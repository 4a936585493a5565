package cdt

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStripedMatchesTable drives an identical unbounded mutation script
// through a plain Table and a Striped table and requires identical
// critical coverage: striping must be invisible to per-file semantics.
func TestStripedMatchesTable(t *testing.T) {
	const files = 20
	plain := New(0)
	striped := NewStriped(0)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 600; i++ {
		file := fmt.Sprintf("/cdt/f%02d", rng.Intn(files))
		off := int64(rng.Intn(1 << 14))
		n := int64(1 + rng.Intn(1<<10))
		switch rng.Intn(5) {
		case 0:
			plain.Remove(file, off, n)
			striped.Remove(file, off, n)
		case 1:
			plain.SetCFlag(file, off, n)
			striped.SetCFlag(file, off, n)
		case 2:
			plain.ClearCFlag(file, off, n)
			striped.ClearCFlag(file, off, n)
		default:
			plain.Add(file, off, n)
			striped.Add(file, off, n)
		}
	}
	if plain.Entries() != striped.Entries() {
		t.Fatalf("entries: plain %d, striped %d", plain.Entries(), striped.Entries())
	}
	if plain.Bytes() != striped.Bytes() {
		t.Fatalf("bytes: plain %d, striped %d", plain.Bytes(), striped.Bytes())
	}
	for i := 0; i < files; i++ {
		file := fmt.Sprintf("/cdt/f%02d", i)
		for off := int64(0); off < 1<<14; off += 512 {
			if p, s := plain.Contains(file, off, 512), striped.Contains(file, off, 512); p != s {
				t.Fatalf("%s [%d,+512): plain contains=%v, striped=%v", file, off, p, s)
			}
		}
		if p, s := plain.FileTracked(file), striped.FileTracked(file); p != s {
			t.Fatalf("%s: plain tracked=%v, striped=%v", file, p, s)
		}
	}
	// Pending fetch sets must agree as sets (order differs by stripe).
	key := func(f Fetch) string { return fmt.Sprintf("%s|%d|%d", f.File, f.Off, f.Len) }
	want := map[string]bool{}
	for _, f := range plain.PendingFetches(0) {
		want[key(f)] = true
	}
	got := striped.PendingFetches(0)
	if len(got) != len(want) {
		t.Fatalf("pending fetches: plain %d, striped %d", len(want), len(got))
	}
	for _, f := range got {
		if !want[key(f)] {
			t.Fatalf("striped pending fetch %+v absent from plain table", f)
		}
	}
}

// TestStripedBound proves the divided byte bound holds in aggregate: a
// bounded striped table under sustained inserts never tracks more than
// maxBytes plus the per-stripe rounding slack, and eviction fires.
func TestStripedBound(t *testing.T) {
	const maxBytes = 1 << 16
	striped := NewStriped(maxBytes)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		file := fmt.Sprintf("/bound/f%03d", rng.Intn(64))
		striped.Add(file, int64(rng.Intn(1<<14)), int64(1+rng.Intn(1<<10)))
		if b := striped.Bytes(); b > maxBytes+numStripes {
			t.Fatalf("tracked %d bytes, bound %d (+%d rounding slack)", b, maxBytes, numStripes)
		}
	}
	if striped.Evicted() == 0 {
		t.Fatal("bound never forced an eviction")
	}
}

// TestStripedConcurrent hammers the striped table from concurrent
// goroutines on disjoint file sets and compares per-file state against
// sequential oracles. Under -race this is the data-race gate for the
// striped CDT.
func TestStripedConcurrent(t *testing.T) {
	const (
		workers = 8
		ops     = 400
	)
	striped := NewStriped(0)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + g)))
			for i := 0; i < ops; i++ {
				file := fmt.Sprintf("/w%d/f%d", g, rng.Intn(4))
				off := int64(rng.Intn(1 << 13))
				n := int64(1 + rng.Intn(1<<9))
				switch rng.Intn(5) {
				case 0:
					striped.Remove(file, off, n)
				case 1:
					striped.SetCFlag(file, off, n)
				case 2:
					striped.ClearCFlag(file, off, n)
				default:
					striped.Add(file, off, n)
				}
				striped.Contains(file, off, n)
				if i%64 == 0 {
					striped.PendingFetches(8)
					striped.Bytes()
				}
			}
		}(g)
	}
	wg.Wait()

	for g := 0; g < workers; g++ {
		oracle := New(0)
		rng := rand.New(rand.NewSource(int64(500 + g)))
		for i := 0; i < ops; i++ {
			file := fmt.Sprintf("/w%d/f%d", g, rng.Intn(4))
			off := int64(rng.Intn(1 << 13))
			n := int64(1 + rng.Intn(1<<9))
			switch rng.Intn(5) {
			case 0:
				oracle.Remove(file, off, n)
			case 1:
				oracle.SetCFlag(file, off, n)
			case 2:
				oracle.ClearCFlag(file, off, n)
			default:
				oracle.Add(file, off, n)
			}
		}
		for f := 0; f < 4; f++ {
			file := fmt.Sprintf("/w%d/f%d", g, f)
			for off := int64(0); off < 1<<13; off += 256 {
				if o, s := oracle.Contains(file, off, 256), striped.Contains(file, off, 256); o != s {
					t.Fatalf("%s [%d,+256): oracle contains=%v, striped=%v", file, off, o, s)
				}
			}
		}
	}
}

// TestStripedAddRefreshAndEvict checks the striped Add on its paths: a
// re-Add of covered ranges leaves coverage and tracked bytes as they were
// while a growing Add extends them, and over a bounded stripe the FIFO
// eviction drops the oldest run while the newest stays covered.
func TestStripedAddRefreshAndEvict(t *testing.T) {
	s := NewStriped(0)
	file := "hot.dat"
	s.Add(file, 0, 4096)
	for i := 0; i < 100; i++ {
		s.Add(file, 0, 4096)
		s.Add(file, 512, 1024)
	}
	if s.Bytes() != 4096 || !s.Contains(file, 0, 4096) || s.Contains(file, 0, 4097) {
		t.Fatalf("covered re-Adds changed coverage: %d bytes tracked", s.Bytes())
	}
	s.Add(file, 4096, 100)
	if !s.Contains(file, 0, 4196) {
		t.Fatal("grown coverage not visible")
	}

	// A bound of one 4 KiB run per stripe: a second run of the same file
	// (same stripe) evicts the first.
	b := NewStriped(4096 * numStripes)
	file = "evict.dat"
	b.Add(file, 0, 4096)
	if !b.Contains(file, 0, 4096) {
		t.Fatal("initial coverage missing")
	}
	b.Add(file, 4096, 4096)
	if b.Evicted() == 0 {
		t.Fatal("expected a FIFO eviction")
	}
	if b.Contains(file, 0, 1) {
		t.Fatal("evicted run still covered")
	}
	if !b.Contains(file, 4096, 4096) {
		t.Fatal("surviving run not covered")
	}
}

// TestStripedConcurrentHolePunch runs readers against a writer that
// punches a hole into a file's coverage and fills it again (run under
// -race in CI). Whatever the interleaving, the coverage on both sides of
// the hole never disappears.
func TestStripedConcurrentHolePunch(t *testing.T) {
	s := NewStriped(0)
	const (
		file    = "runs.dat"
		fileLen = int64(8192)
		holeOff = int64(3072)
		holeLen = int64(1024)
	)
	s.Add(file, 0, fileLen)

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		for !stop.Load() {
			s.Remove(file, holeOff, holeLen)
			s.Add(file, holeOff, holeLen)
		}
	}()

	readers := 4
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if !s.Contains(file, 0, holeOff) || !s.Contains(file, holeOff+holeLen, fileLen-holeOff-holeLen) {
					errs <- "coverage outside the hole disappeared"
					return
				}
			}
		}()
	}

	time.Sleep(200 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}

// TestStripedContainsZeroAllocs pins the striped criticality check — the
// concurrent read path's question for every miss segment — at zero
// allocations per operation (`make alloc-check`).
func TestStripedContainsZeroAllocs(t *testing.T) {
	s := NewStriped(0)
	file := "alloc.dat"
	for off := int64(0); off < 8192; off += 1024 {
		s.Add(file, off, 512) // gapped: many runs
	}
	if n := testing.AllocsPerRun(200, func() {
		if !s.Contains(file, 2048, 512) {
			t.Fatal("coverage missing")
		}
		if s.Contains(file, 2048, 1024) {
			t.Fatal("hole reported covered")
		}
	}); n != 0 {
		t.Fatalf("Contains allocates %v/op, want 0", n)
	}
}
