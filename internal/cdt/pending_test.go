package cdt

import (
	"fmt"
	"math/rand"
	"testing"
)

// pendingSum recomputes the flagged byte count the slow way, as the oracle
// for the incremental counter.
func pendingSum(t *Table) int64 {
	var n int64
	for _, f := range t.PendingFetches(0) {
		n += f.Len
	}
	return n
}

// TestPendingBytesCounter drives a randomized mix of adds, flag flips and
// removals — on a byte-bounded table so FIFO eviction runs too — and
// checks the O(1) pending counter against a full walk after every
// mutation.
func TestPendingBytesCounter(t *testing.T) {
	for _, maxBytes := range []int64{0, 96 << 10} {
		t.Run(fmt.Sprintf("max=%d", maxBytes), func(t *testing.T) {
			tbl := New(maxBytes)
			rng := rand.New(rand.NewSource(11))
			files := []string{"/a", "/b", "/c"}
			for i := 0; i < 2000; i++ {
				file := files[rng.Intn(len(files))]
				off := int64(rng.Intn(64)) << 10
				length := int64(1+rng.Intn(32)) << 10
				switch rng.Intn(5) {
				case 0, 1:
					tbl.Add(file, off, length)
				case 2:
					tbl.SetCFlag(file, off, length)
				case 3:
					tbl.ClearCFlag(file, off, length)
				case 4:
					tbl.Remove(file, off, length)
				}
				if got, want := tbl.PendingBytes(), pendingSum(tbl); got != want {
					t.Fatalf("op %d: PendingBytes=%d, walk says %d", i, got, want)
				}
				if got, want := tbl.HasPending(), pendingSum(tbl) > 0; got != want {
					t.Fatalf("op %d: HasPending=%v, walk says %v", i, got, want)
				}
			}
		})
	}
}

// TestHasPendingZeroAllocs pins the poll predicate at zero allocations:
// the Rebuilder ticker calls it every period.
func TestHasPendingZeroAllocs(t *testing.T) {
	tbl := New(0)
	tbl.Add("/f", 0, 4096)
	tbl.SetCFlag("/f", 0, 4096)
	if n := testing.AllocsPerRun(100, func() {
		if !tbl.HasPending() {
			t.Fatal("lost pending state")
		}
	}); n != 0 {
		t.Fatalf("Table.HasPending allocates %v/op, want 0", n)
	}
}

// TestContainsZeroAllocs pins the criticality check — the read path's
// question for every miss segment — at zero allocations per operation
// (`make alloc-check`).
func TestContainsZeroAllocs(t *testing.T) {
	tbl := New(0)
	file := "alloc.dat"
	for off := int64(0); off < 8192; off += 1024 {
		tbl.Add(file, off, 512) // gapped: many runs
	}
	if n := testing.AllocsPerRun(200, func() {
		if !tbl.Contains(file, 2048, 512) {
			t.Fatal("coverage missing")
		}
		if tbl.Contains(file, 2048, 1024) {
			t.Fatal("hole reported covered")
		}
	}); n != 0 {
		t.Fatalf("Contains allocates %v/op, want 0", n)
	}
}
