package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestPutGetDelete(t *testing.T) {
	s, err := Open(NewMemBackend(), "dmt", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Get("k1")
	if !ok || string(v) != "v1" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	if err := s.Delete("k1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k1"); ok {
		t.Fatal("key survived Delete")
	}
	if err := s.Delete("missing"); err != nil {
		t.Fatalf("deleting missing key: %v", err)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s, _ := Open(NewMemBackend(), "s", Options{})
	if err := s.Put("k", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	v, _ := s.Get("k")
	v[0] = 'X'
	v2, _ := s.Get("k")
	if string(v2) != "abc" {
		t.Fatal("Get exposed internal buffer")
	}
}

func TestPutCopiesValue(t *testing.T) {
	s, _ := Open(NewMemBackend(), "s", Options{})
	val := []byte("abc")
	if err := s.Put("k", val); err != nil {
		t.Fatal(err)
	}
	val[0] = 'X'
	v, _ := s.Get("k")
	if string(v) != "abc" {
		t.Fatal("Put retained caller buffer")
	}
}

func TestRecoveryFromWAL(t *testing.T) {
	b := NewMemBackend()
	s, _ := Open(b, "dmt", Options{})
	for i := 0; i < 100; i++ {
		if err := s.Put(fmt.Sprintf("key%03d", i), []byte(fmt.Sprintf("val%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("key050"); err != nil {
		t.Fatal(err)
	}
	// Reopen as after a crash.
	s2, err := Open(b, "dmt", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 99 {
		t.Fatalf("recovered %d keys, want 99", s2.Len())
	}
	v, ok := s2.Get("key042")
	if !ok || string(v) != "val42" {
		t.Fatalf("recovered key042 = %q,%v", v, ok)
	}
	if _, ok := s2.Get("key050"); ok {
		t.Fatal("deleted key resurrected after recovery")
	}
	if s2.Stats().RecoveredRecords != 101 {
		t.Fatalf("RecoveredRecords = %d, want 101", s2.Stats().RecoveredRecords)
	}
}

func TestRecoveryIgnoresTornTail(t *testing.T) {
	b := NewMemBackend()
	s, _ := Open(b, "dmt", Options{})
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	wal, _ := b.ReadAll("dmt.wal")
	b.Truncate("dmt.wal", len(wal)-37) // tear the last record
	s2, err := Open(b, "dmt", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 9 {
		t.Fatalf("recovered %d keys after torn tail, want 9", s2.Len())
	}
}

func TestRecoveryRejectsCorruptCRC(t *testing.T) {
	b := NewMemBackend()
	s, _ := Open(b, "dmt", Options{})
	if err := s.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	wal, _ := b.ReadAll("dmt.wal")
	// Flip a byte inside the first record's value.
	wal[7] ^= 0xff
	if err := b.Replace("dmt.wal", wal); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(b, "dmt", Options{})
	if err != nil {
		t.Fatal(err)
	}
	// First record corrupt → replay stops immediately; nothing recovered.
	if s2.Len() != 0 {
		t.Fatalf("recovered %d keys from corrupt log, want 0", s2.Len())
	}
}

func TestCompactPreservesDataAndTruncatesWAL(t *testing.T) {
	b := NewMemBackend()
	s, _ := Open(b, "dmt", Options{})
	for i := 0; i < 50; i++ {
		if err := s.Put(fmt.Sprintf("k%02d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	wal, _ := b.ReadAll("dmt.wal")
	if len(wal) != 0 {
		t.Fatalf("wal has %d bytes after compact, want 0", len(wal))
	}
	s2, err := Open(b, "dmt", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 50 {
		t.Fatalf("post-compact reopen has %d keys, want 50", s2.Len())
	}
}

func TestSyncEveryDurableImmediately(t *testing.T) {
	b := NewMemBackend()
	s, _ := Open(b, "dmt", Options{})
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Stats().WALBytes, int64(len(encodeRecord(opPut, "k", []byte("v")))); got != want {
		t.Fatalf("WAL holds %d bytes after one put, want %d", got, want)
	}
	s2, _ := Open(b, "dmt", Options{})
	if s2.Len() != 1 {
		t.Fatal("put not durable when Put returned")
	}
}

func TestAppendFailureSurfaces(t *testing.T) {
	b := NewMemBackend()
	s, _ := Open(b, "dmt", Options{})
	b.FailAppends = true
	if err := s.Put("k", []byte("v")); err == nil {
		t.Fatal("backend failure swallowed")
	}
	// The in-memory map must not contain the failed put.
	if _, ok := s.Get("k"); ok {
		t.Fatal("failed put visible in memory")
	}
}

func TestKeysAndScan(t *testing.T) {
	s, _ := Open(NewMemBackend(), "dmt", Options{})
	for _, k := range []string{"dmt/b", "dmt/a", "cdt/x"} {
		if err := s.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	keys := s.Keys("dmt/")
	if len(keys) != 2 || keys[0] != "dmt/a" || keys[1] != "dmt/b" {
		t.Fatalf("Keys = %v", keys)
	}
	var seen []string
	s.Scan("dmt/", func(k string, v []byte) bool {
		seen = append(seen, k)
		return true
	})
	if len(seen) != 2 {
		t.Fatalf("Scan visited %v", seen)
	}
	// Early stop.
	count := 0
	s.Scan("", func(k string, v []byte) bool { count++; return false })
	if count != 1 {
		t.Fatalf("Scan early-stop visited %d, want 1", count)
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(nil, "x", Options{}); err == nil {
		t.Fatal("nil backend accepted")
	}
}

func TestDirBackendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b, err := NewDirBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(b, "dmt", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("persistent", []byte("yes")); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("after-compact", []byte("also")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(b, "dmt", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Fatalf("dir-backed reopen has %d keys, want 2", s2.Len())
	}
	if err := b.Remove("dmt.wal"); err != nil {
		t.Fatal(err)
	}
	if err := b.Remove("dmt.wal"); err != nil {
		t.Fatal("double remove should be a no-op")
	}
}

// Property: after any sequence of puts/deletes and a crash-reopen, the
// recovered store equals a plain map reference model.
func TestRecoveryMatchesModelProperty(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := int(opsRaw%60) + 1
		b := NewMemBackend()
		s, err := Open(b, "dmt", Options{})
		if err != nil {
			return false
		}
		ref := make(map[string]string)
		for i := 0; i < ops; i++ {
			key := fmt.Sprintf("k%d", rng.Intn(20))
			if rng.Intn(4) == 0 {
				if s.Delete(key) != nil {
					return false
				}
				delete(ref, key)
				continue
			}
			val := fmt.Sprintf("v%d", rng.Int63())
			if s.Put(key, []byte(val)) != nil {
				return false
			}
			ref[key] = val
		}
		// Crash: reopen from backend bytes only.
		s2, err := Open(b, "dmt", Options{})
		if err != nil {
			return false
		}
		if s2.Len() != len(ref) {
			return false
		}
		for k, want := range ref {
			v, ok := s2.Get(k)
			if !ok || string(v) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s, _ := Open(NewMemBackend(), "dmt", Options{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i)
				if err := s.Put(key, []byte("v")); err != nil {
					t.Error(err)
					return
				}
				if _, ok := s.Get(key); !ok {
					t.Errorf("lost own write %s", key)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Fatalf("Len = %d, want 800", s.Len())
	}
}

func TestWALEncodeDecodeRoundTrip(t *testing.T) {
	rec := encodeRecord(opPut, "key", []byte("value"))
	op, key, val, n, ok := decodeRecord(rec)
	if !ok || op != opPut || key != "key" || string(val) != "value" || n != len(rec) {
		t.Fatalf("decode = %v %q %q %d %v", op, key, val, n, ok)
	}
	// Empty key and value are legal.
	rec = encodeRecord(opDel, "", nil)
	op, key, val, _, ok = decodeRecord(rec)
	if !ok || op != opDel || key != "" || len(val) != 0 {
		t.Fatal("empty-key record round trip failed")
	}
}

func TestWALDecodeRejectsGarbage(t *testing.T) {
	if _, _, _, _, ok := decodeRecord([]byte{0xee, 1, 2, 3, 4, 5, 6, 7, 8, 9}); ok {
		t.Fatal("garbage op accepted")
	}
	if _, _, _, _, ok := decodeRecord(nil); ok {
		t.Fatal("empty input accepted")
	}
	rec := encodeRecord(opPut, "k", []byte("v"))
	if _, _, _, _, ok := decodeRecord(rec[:len(rec)-1]); ok {
		t.Fatal("truncated record accepted")
	}
}
