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

// TestStripedPendingBytes checks the aggregate counter and the early-exit
// predicate across stripes.
func TestStripedPendingBytes(t *testing.T) {
	s := NewStriped(0)
	if s.HasPending() {
		t.Fatal("empty table claims pending fetches")
	}
	for i := 0; i < 40; i++ {
		file := fmt.Sprintf("/w%02d", i)
		s.Add(file, 0, 4096)
		if i%2 == 0 {
			s.SetCFlag(file, 0, 4096)
		}
	}
	if got, want := s.PendingBytes(), int64(20*4096); got != want {
		t.Fatalf("PendingBytes=%d, want %d", got, want)
	}
	if !s.HasPending() {
		t.Fatal("HasPending=false with flagged ranges present")
	}
	for i := 0; i < 40; i += 2 {
		s.ClearCFlag(fmt.Sprintf("/w%02d", i), 0, 4096)
	}
	if s.HasPending() {
		t.Fatalf("HasPending=true after clearing every flag (PendingBytes=%d)", s.PendingBytes())
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
	s := NewStriped(0)
	s.Add("/f", 0, 4096)
	s.SetCFlag("/f", 0, 4096)
	if n := testing.AllocsPerRun(100, func() {
		if !s.HasPending() {
			t.Fatal("lost pending state")
		}
	}); n != 0 {
		t.Fatalf("Striped.HasPending allocates %v/op, want 0", n)
	}
}
