package dmt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"s4dcache/internal/kvstore"
)

func TestInsertLookup(t *testing.T) {
	d := New()
	if err := d.Insert("f", 1000, 100, 5000, true); err != nil {
		t.Fatal(err)
	}
	hits, gaps := d.Lookup("f", 1000, 100)
	if len(hits) != 1 || len(gaps) != 0 {
		t.Fatalf("hits=%v gaps=%v", hits, gaps)
	}
	h := hits[0]
	if h.Off != 1000 || h.Len != 100 || h.CacheOff != 5000 || !h.Dirty {
		t.Fatalf("hit = %+v", h)
	}
}

func TestLookupClipsAndTranslates(t *testing.T) {
	d := New()
	if err := d.Insert("f", 1000, 100, 5000, false); err != nil {
		t.Fatal(err)
	}
	hits, gaps := d.Lookup("f", 1050, 200)
	if len(hits) != 1 {
		t.Fatalf("hits = %+v", hits)
	}
	h := hits[0]
	if h.Off != 1050 || h.Len != 50 || h.CacheOff != 5050 {
		t.Fatalf("clipped hit = %+v, want off 1050 len 50 cacheOff 5050", h)
	}
	if len(gaps) != 1 || gaps[0].Off != 1100 || gaps[0].Len != 150 {
		t.Fatalf("gaps = %+v", gaps)
	}
}

func TestLookupMissingFileAllGap(t *testing.T) {
	d := New()
	hits, gaps := d.Lookup("nope", 10, 20)
	if hits != nil || len(gaps) != 1 || gaps[0].Off != 10 || gaps[0].Len != 20 {
		t.Fatalf("hits=%v gaps=%v", hits, gaps)
	}
	if _, gaps := d.Lookup("nope", 0, 0); gaps != nil {
		t.Fatal("zero-length lookup produced gaps")
	}
}

func TestContains(t *testing.T) {
	d := New()
	if err := d.Insert("f", 0, 100, 0, false); err != nil {
		t.Fatal(err)
	}
	if !d.Contains("f", 10, 50) {
		t.Fatal("covered range not contained")
	}
	if d.Contains("f", 50, 100) {
		t.Fatal("partially covered range contained")
	}
	if d.Contains("g", 0, 10) {
		t.Fatal("missing file contained")
	}
}

func TestDirtyLifecycle(t *testing.T) {
	d := New()
	if err := d.Insert("f", 0, 100, 0, true); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert("f", 200, 100, 200, false); err != nil {
		t.Fatal(err)
	}
	dirty := d.DirtyExtents(0)
	if len(dirty) != 1 || dirty[0].Off != 0 || dirty[0].File != "f" {
		t.Fatalf("DirtyExtents = %+v", dirty)
	}
	clean := d.CleanExtents(0)
	if len(clean) != 1 || clean[0].Off != 200 {
		t.Fatalf("CleanExtents = %+v", clean)
	}
	if err := d.SetClean("f", 0, 100); err != nil {
		t.Fatal(err)
	}
	if len(d.DirtyExtents(0)) != 0 {
		t.Fatal("SetClean left dirty extents")
	}
	if err := d.SetDirty("f", 200, 50); err != nil {
		t.Fatal(err)
	}
	dirty = d.DirtyExtents(0)
	if len(dirty) != 1 || dirty[0].Off != 200 || dirty[0].Len != 50 {
		t.Fatalf("partial SetDirty = %+v", dirty)
	}
	// The untouched half stays clean with a correctly advanced cache off.
	hits, _ := d.Lookup("f", 250, 50)
	if len(hits) != 1 || hits[0].Dirty || hits[0].CacheOff != 250 {
		t.Fatalf("clean tail = %+v", hits)
	}
}

func TestSetCleanOnMissingFileNoop(t *testing.T) {
	d := New()
	if err := d.SetClean("missing", 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := d.SetDirty("missing", 0, 10); err != nil {
		t.Fatal(err)
	}
}

func TestDelete(t *testing.T) {
	d := New()
	if err := d.Insert("f", 0, 100, 1000, false); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete("f", 25, 50); err != nil {
		t.Fatal(err)
	}
	hits, gaps := d.Lookup("f", 0, 100)
	if len(hits) != 2 || len(gaps) != 1 {
		t.Fatalf("hits=%v gaps=%v", hits, gaps)
	}
	if hits[1].Off != 75 || hits[1].CacheOff != 1075 {
		t.Fatalf("tail mapping = %+v, want cacheOff 1075", hits[1])
	}
}

func TestOverwriteSplitsCacheOffsets(t *testing.T) {
	d := New()
	if err := d.Insert("f", 0, 300, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert("f", 100, 100, 9000, true); err != nil {
		t.Fatal(err)
	}
	hits, _ := d.Lookup("f", 0, 300)
	if len(hits) != 3 {
		t.Fatalf("hits = %+v", hits)
	}
	if hits[0].CacheOff != 0 || hits[1].CacheOff != 9000 || hits[2].CacheOff != 200 {
		t.Fatalf("cache offsets = %d %d %d, want 0 9000 200",
			hits[0].CacheOff, hits[1].CacheOff, hits[2].CacheOff)
	}
	if !hits[1].Dirty || hits[0].Dirty || hits[2].Dirty {
		t.Fatal("dirty flags wrong after overwrite")
	}
}

func TestMetadataBytes(t *testing.T) {
	d := New()
	for i := int64(0); i < 10; i++ {
		if err := d.Insert("f", i*1000, 100, i*100, false); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.MetadataBytes(); got != 10*EntryBytes {
		t.Fatalf("MetadataBytes = %d, want %d", got, 10*EntryBytes)
	}
	if d.Bytes() != 1000 {
		t.Fatalf("Bytes = %d, want 1000", d.Bytes())
	}
	st := d.Stats()
	if st.Inserts != 10 || st.Entries != 10 {
		t.Fatalf("Stats = %+v", st)
	}
}

func openPersistent(t *testing.T, backend kvstore.Backend) *Table {
	t.Helper()
	store, err := kvstore.Open(backend, "dmt", kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPersistenceSurvivesReopen(t *testing.T) {
	b := kvstore.NewMemBackend()
	d := openPersistent(t, b)
	if err := d.Insert("f", 0, 100, 5000, true); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert("f", 500, 100, 6000, false); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete("f", 0, 50); err != nil {
		t.Fatal(err)
	}
	if err := d.SetClean("f", 50, 50); err != nil {
		t.Fatal(err)
	}

	d2 := openPersistent(t, b)
	if d2.Entries() != d.Entries() || d2.Bytes() != d.Bytes() {
		t.Fatalf("reopened table differs: %d/%d vs %d/%d",
			d2.Entries(), d2.Bytes(), d.Entries(), d.Bytes())
	}
	hits, _ := d2.Lookup("f", 50, 50)
	if len(hits) != 1 || hits[0].CacheOff != 5050 || hits[0].Dirty {
		t.Fatalf("recovered mapping = %+v", hits)
	}
}

func TestOpenResumesAfterHighestSeq(t *testing.T) {
	// The recovered sequence counter must be the max over every log key,
	// not whatever the backend lists last: resuming low would overwrite
	// live records on the next persist.
	b := kvstore.NewMemBackend()
	d := openPersistent(t, b)
	for i := int64(0); i < 12; i++ {
		if err := d.Insert("f", i*100, 100, i*100, false); err != nil {
			t.Fatal(err)
		}
	}
	d2 := openPersistent(t, b)
	if d2.seq.Load() != d.seq.Load() {
		t.Fatalf("recovered seq %d, want %d", d2.seq.Load(), d.seq.Load())
	}
	// New ops after reopen must extend the log, not clobber it.
	if err := d2.Insert("g", 0, 10, 0, false); err != nil {
		t.Fatal(err)
	}
	if d3 := openPersistent(t, b); d3.Entries() != d2.Entries() {
		t.Fatalf("post-reopen insert lost: %d entries, want %d", d3.Entries(), d2.Entries())
	}
}

func TestOpenRejectsMalformedLogKey(t *testing.T) {
	b := kvstore.NewMemBackend()
	d := openPersistent(t, b)
	if err := d.Insert("f", 0, 100, 0, false); err != nil {
		t.Fatal(err)
	}
	// A corrupt key in the op namespace must fail recovery loudly instead
	// of being silently skipped with the counter left at zero.
	store, err := kvstore.Open(b, "dmt", kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("dmtop|not-a-number", []byte{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(store); err == nil {
		t.Fatal("Open accepted a malformed log key")
	}
}

func TestPersistenceCompact(t *testing.T) {
	b := kvstore.NewMemBackend()
	d := openPersistent(t, b)
	for i := int64(0); i < 50; i++ {
		if err := d.Insert("f", i*100, 100, i*100, i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Delete("f", 0, 2500); err != nil {
		t.Fatal(err)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	d2 := openPersistent(t, b)
	if d2.Entries() != 25 || d2.Bytes() != 2500 {
		t.Fatalf("post-compact recovery: %d entries %d bytes", d2.Entries(), d2.Bytes())
	}
	// Sequence must continue without clobbering existing ops.
	if err := d2.Insert("g", 0, 10, 0, false); err != nil {
		t.Fatal(err)
	}
	d3 := openPersistent(t, b)
	if d3.Entries() != 26 {
		t.Fatalf("post-compact insert lost: %d entries", d3.Entries())
	}
}

func TestInsertBatchAtomicAndRecoverable(t *testing.T) {
	b := kvstore.NewMemBackend()
	d := openPersistent(t, b)
	frags := []FragmentInsert{
		{Off: 0, Length: 100, CacheOff: 1000, Dirty: true},
		{Off: 100, Length: 50, CacheOff: 5000, Dirty: true},
		{Off: 0, Length: 0},  // ignored
		{Off: 9, Length: -4}, // ignored
	}
	if err := d.InsertBatch("f", frags); err != nil {
		t.Fatal(err)
	}
	if d.Entries() != 2 || d.Bytes() != 150 {
		t.Fatalf("entries=%d bytes=%d", d.Entries(), d.Bytes())
	}
	d2 := openPersistent(t, b)
	hits, _ := d2.Lookup("f", 100, 50)
	if len(hits) != 1 || hits[0].CacheOff != 5000 {
		t.Fatalf("recovered batch = %+v", hits)
	}
	// Empty and all-degenerate batches are no-ops.
	if err := d.InsertBatch("f", nil); err != nil {
		t.Fatal(err)
	}
	if err := d.InsertBatch("f", []FragmentInsert{{Length: 0}}); err != nil {
		t.Fatal(err)
	}
	// Memory-only tables accept batches too.
	m := New()
	if err := m.InsertBatch("g", frags[:2]); err != nil {
		t.Fatal(err)
	}
	if m.Entries() != 2 {
		t.Fatal("memory-only batch not applied")
	}
}

func TestOpenNilStore(t *testing.T) {
	if _, err := Open(nil); err == nil {
		t.Fatal("nil store accepted")
	}
}

func TestDecodeOpRejectsGarbage(t *testing.T) {
	if _, err := decodeOp(nil); err == nil {
		t.Fatal("nil record accepted")
	}
	if _, err := decodeOp([]byte{99, 0, 0, 0, 0}); err == nil {
		t.Fatal("bad kind accepted")
	}
	op := encodeOp(logOp{kind: kindInsert, file: "abc", off: 1, length: 2, cacheOff: 3, dirty: true})
	if _, err := decodeOp(op[:len(op)-3]); err == nil {
		t.Fatal("truncated record accepted")
	}
	got, err := decodeOp(op)
	if err != nil || got.file != "abc" || got.off != 1 || got.length != 2 || got.cacheOff != 3 || !got.dirty {
		t.Fatalf("round trip = %+v, %v", got, err)
	}
}

// Property: a persisted table recovered after arbitrary operations equals
// the live table, byte for byte.
func TestRecoveryEquivalenceProperty(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := int(opsRaw%30) + 1
		b := kvstore.NewMemBackend()
		store, err := kvstore.Open(b, "dmt", kvstore.Options{})
		if err != nil {
			return false
		}
		d, err := Open(store)
		if err != nil {
			return false
		}
		files := []string{"a", "b"}
		for i := 0; i < ops; i++ {
			file := files[rng.Intn(2)]
			off := rng.Int63n(2000)
			length := rng.Int63n(300) + 1
			switch rng.Intn(4) {
			case 0:
				if d.Delete(file, off, length) != nil {
					return false
				}
			case 1:
				if d.SetClean(file, off, length) != nil {
					return false
				}
			default:
				if d.Insert(file, off, length, rng.Int63n(10000), rng.Intn(2) == 0) != nil {
					return false
				}
			}
		}
		store2, err := kvstore.Open(b, "dmt", kvstore.Options{})
		if err != nil {
			return false
		}
		d2, err := Open(store2)
		if err != nil {
			return false
		}
		if d2.Entries() != d.Entries() || d2.Bytes() != d.Bytes() {
			return false
		}
		// Every byte of both files must agree on mapping and dirtiness.
		for _, file := range files {
			for x := int64(0); x < 2400; x += 7 {
				h1, _ := d.Lookup(file, x, 1)
				h2, _ := d2.Lookup(file, x, 1)
				if len(h1) != len(h2) {
					return false
				}
				if len(h1) == 1 && (h1[0].CacheOff != h2[0].CacheOff || h1[0].Dirty != h2[0].Dirty) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
