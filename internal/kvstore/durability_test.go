package kvstore

import (
	"bytes"
	"fmt"
	"testing"
)

// TestOpenTruncatesTornTail pins the mid-write-crash fix: a torn trailing
// record is physically truncated at Open (and reported), so records appended
// by the reopened store land on a record boundary and survive the next
// recovery instead of being stranded behind garbage.
func TestOpenTruncatesTornTail(t *testing.T) {
	b := NewMemBackend()
	s, err := Open(b, "dmt", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(i)}, 50)); err != nil {
			t.Fatal(err)
		}
	}
	wal, _ := b.ReadAll("dmt.wal")
	b.Truncate("dmt.wal", len(wal)-17) // tear the last record mid-write

	s2, err := Open(b, "dmt", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 9 {
		t.Fatalf("recovered %d keys after torn tail, want 9", s2.Len())
	}
	if got := s2.Stats().TornWALBytes; got <= 0 {
		t.Fatalf("TornWALBytes = %d, want > 0", got)
	}
	truncated, _ := b.ReadAll("dmt.wal")
	if len(truncated) >= len(wal)-17 {
		t.Fatalf("wal still %d bytes, torn tail not truncated (pre-tear %d)", len(truncated), len(wal))
	}

	// The regression: appends after the torn tail must be recoverable.
	if err := s2.Put("after-crash", []byte("durable")); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(b, "dmt", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s3.Get("after-crash"); !ok || string(v) != "durable" {
		t.Fatalf("record appended after torn tail lost: %q, %v", v, ok)
	}
	if s3.Len() != 10 {
		t.Fatalf("recovered %d keys, want 10", s3.Len())
	}
	if s3.Stats().TornWALBytes != 0 {
		t.Fatalf("second reopen reports torn bytes %d on a clean log", s3.Stats().TornWALBytes)
	}
}

// TestSnapshotFrame pins the snapshot integrity frame: Compact writes
// magic + records + whole-file CRC32C, and Open replays it.
func TestSnapshotFrame(t *testing.T) {
	b := NewMemBackend()
	s, _ := Open(b, "dmt", Options{})
	for i := 0; i < 20; i++ {
		if err := s.Put(fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	snap, _ := b.ReadAll("dmt.snap")
	if len(snap) < snapFrameOverhead || !bytes.HasPrefix(snap, snapMagic) {
		t.Fatalf("snapshot missing frame: %d bytes, prefix %x", len(snap), snap[:minInt(8, len(snap))])
	}
	s2, err := Open(b, "dmt", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 20 {
		t.Fatalf("recovered %d keys from framed snapshot, want 20", s2.Len())
	}
	if st := s2.Stats(); st.SnapQuarantined {
		t.Fatal("clean snapshot reported quarantined")
	}
}

// TestCorruptSnapshotQuarantined proves a damaged snapshot is rejected
// wholesale — the store still opens, serves, and recovers whatever the WAL
// holds, with the quarantine visible in stats. Never a wrong answer, never
// a startup failure.
func TestCorruptSnapshotQuarantined(t *testing.T) {
	b := NewMemBackend()
	s, _ := Open(b, "dmt", Options{})
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("old%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("post-snap", []byte("wal-only")); err != nil {
		t.Fatal(err)
	}

	snap, _ := b.ReadAll("dmt.snap")
	for _, flip := range []int{9, len(snap) / 2, len(snap) - 1} {
		mangled := append([]byte(nil), snap...)
		mangled[flip] ^= 0x10
		if err := b.Replace("dmt.snap", mangled); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(b, "dmt", Options{})
		if err != nil {
			t.Fatalf("flip %d: corrupt snapshot failed open: %v", flip, err)
		}
		if !s2.Stats().SnapQuarantined {
			t.Fatalf("flip %d: quarantine not reported", flip)
		}
		// Snapshot-era keys are gone (quarantined, a safe miss); WAL-era
		// keys survive intact.
		if _, ok := s2.Get("old3"); ok {
			t.Fatalf("flip %d: key served from quarantined snapshot", flip)
		}
		if v, ok := s2.Get("post-snap"); !ok || string(v) != "wal-only" {
			t.Fatalf("flip %d: WAL record lost behind corrupt snapshot: %q, %v", flip, v, ok)
		}
	}
}

// TestUnframedSnapshotQuarantines: a snapshot that is a bare, well-formed
// record stream without the frame's magic is damaged like any other — Open
// quarantines it instead of replaying it, and the WAL still replays.
func TestUnframedSnapshotQuarantines(t *testing.T) {
	b := NewMemBackend()
	var raw []byte
	raw = appendRecord(raw, opPut, "unframed", []byte("snapshot"))
	if err := b.Replace("dmt.snap", raw); err != nil {
		t.Fatal(err)
	}
	if err := b.Append("dmt.wal", appendRecord(nil, opPut, "wal", []byte("record"))); err != nil {
		t.Fatal(err)
	}
	s, err := Open(b, "dmt", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Stats().SnapQuarantined {
		t.Fatal("unframed snapshot not quarantined")
	}
	if v, ok := s.Get("unframed"); ok {
		t.Fatalf("key served from an unframed snapshot: %q", v)
	}
	if v, ok := s.Get("wal"); !ok || string(v) != "record" {
		t.Fatalf("WAL record lost behind the quarantined snapshot: %q, %v", v, ok)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestDirBackendSyncEveryReopen runs the durable store on a real
// directory: durable commits (file sync per append), a compaction
// (synced snapshot renamed into place, WAL reset), more commits and a
// delete, then a reopen from the same directory with exactly the
// committed contents.
func TestDirBackendSyncEveryReopen(t *testing.T) {
	dir := t.TempDir()
	b, err := NewDirBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(b, "dmt", Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]byte)
	put := func(k string, v []byte) {
		t.Helper()
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	for i := 0; i < 40; i++ {
		put(fmt.Sprintf("k%02d", i), bytes.Repeat([]byte{byte(i)}, 10+i))
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 30; i < 60; i++ {
		put(fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("after-compact-%d", i)))
	}
	if err := s.Delete("k05"); err != nil {
		t.Fatal(err)
	}
	delete(want, "k05")

	b2, err := NewDirBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(b2, "dmt", Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string][]byte)
	s2.Scan("", func(k string, v []byte) bool {
		got[k] = append([]byte(nil), v...)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("reopened store has %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if !bytes.Equal(got[k], v) {
			t.Fatalf("key %q: got %q, want %q", k, got[k], v)
		}
	}
}
