package dmt

import (
	"math/rand"
	"testing"
)

// dirtySum recomputes the dirty byte count the slow way, as the oracle for
// the incremental counter.
func dirtySum(t *Table) int64 {
	var n int64
	for _, h := range t.DirtyExtents(0) {
		n += h.Len
	}
	return n
}

// TestDirtyBytesCounter drives a randomized mix of inserts, deletes and
// flag flips and checks the O(1) dirty counter against a full walk after
// every mutation.
func TestDirtyBytesCounter(t *testing.T) {
	tbl := New()
	rng := rand.New(rand.NewSource(7))
	files := []string{"/a", "/b", "/c"}
	for i := 0; i < 2000; i++ {
		file := files[rng.Intn(len(files))]
		off := int64(rng.Intn(64)) << 10
		length := int64(1+rng.Intn(32)) << 10
		var err error
		switch rng.Intn(5) {
		case 0, 1:
			err = tbl.Insert(file, off, length, off, rng.Intn(2) == 0)
		case 2:
			err = tbl.Delete(file, off, length)
		case 3:
			err = tbl.SetClean(file, off, length)
		case 4:
			err = tbl.SetDirty(file, off, length)
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if got, want := tbl.DirtyBytes(), dirtySum(tbl); got != want {
			t.Fatalf("op %d: DirtyBytes=%d, walk says %d", i, got, want)
		}
		if got, want := tbl.HasDirty(), dirtySum(tbl) > 0; got != want {
			t.Fatalf("op %d: HasDirty=%v, walk says %v", i, got, want)
		}
	}
}

// TestDirtyBytesCounterBatch covers the batched insert path.
func TestDirtyBytesCounterBatch(t *testing.T) {
	tbl := New()
	if err := tbl.InsertBatch("/f", []FragmentInsert{
		{Off: 0, Length: 4096, CacheOff: 0, Dirty: true},
		{Off: 8192, Length: 4096, CacheOff: 4096, Dirty: false},
		{Off: 2048, Length: 4096, CacheOff: 8192, Dirty: true},
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := tbl.DirtyBytes(), dirtySum(tbl); got != want {
		t.Fatalf("DirtyBytes=%d, walk says %d", got, want)
	}
}

// TestHasDirtyZeroAllocs pins the poll predicate at zero allocations: the
// Rebuilder ticker calls it every period.
func TestHasDirtyZeroAllocs(t *testing.T) {
	tbl := New()
	if err := tbl.Insert("/f", 0, 4096, 0, true); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if !tbl.HasDirty() {
			t.Fatal("lost dirty state")
		}
	}); n != 0 {
		t.Fatalf("Table.HasDirty allocates %v/op, want 0", n)
	}
}
