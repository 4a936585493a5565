package dmt

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s4dcache/internal/extent"
	"s4dcache/internal/kvstore"
)

// stripedOp is one scripted mutation for the equivalence tests.
type stripedOp struct {
	kind     byte // 0 insert, 1 delete, 2 setdirty, 3 setclean
	file     string
	off, n   int64
	cacheOff int64
	dirty    bool
}

func stripedScript(files, ops int, seed int64) []stripedOp {
	rng := rand.New(rand.NewSource(seed))
	out := make([]stripedOp, 0, ops)
	for i := 0; i < ops; i++ {
		op := stripedOp{
			kind:     byte(rng.Intn(4)),
			file:     fmt.Sprintf("/bench/f%03d", rng.Intn(files)),
			off:      int64(rng.Intn(1 << 16)),
			n:        int64(1 + rng.Intn(1<<12)),
			cacheOff: int64(rng.Intn(1 << 20)),
			dirty:    rng.Intn(2) == 0,
		}
		out = append(out, op)
	}
	return out
}

func applyScript(t *testing.T, apply func(stripedOp) error, script []stripedOp) {
	t.Helper()
	for _, op := range script {
		if err := apply(op); err != nil {
			t.Fatal(err)
		}
	}
}

func tableApply(tb *Table) func(stripedOp) error {
	return func(op stripedOp) error {
		switch op.kind {
		case 0:
			return tb.Insert(op.file, op.off, op.n, op.cacheOff, op.dirty)
		case 1:
			return tb.Delete(op.file, op.off, op.n)
		case 2:
			return tb.SetDirty(op.file, op.off, op.n)
		default:
			return tb.SetClean(op.file, op.off, op.n)
		}
	}
}

func stripedApply(st *Striped) func(stripedOp) error {
	return func(op stripedOp) error {
		switch op.kind {
		case 0:
			return st.Insert(op.file, op.off, op.n, op.cacheOff, op.dirty)
		case 1:
			return st.Delete(op.file, op.off, op.n)
		case 2:
			return st.SetDirty(op.file, op.off, op.n)
		default:
			return st.SetClean(op.file, op.off, op.n)
		}
	}
}

// expectSameState asserts the plain and striped tables agree on aggregate
// counters and on every per-file lookup over the probed ranges.
func expectSameState(t *testing.T, want *Table, got *Striped, files int) {
	t.Helper()
	if w, g := want.Entries(), got.Entries(); w != g {
		t.Fatalf("entries: plain %d, striped %d", w, g)
	}
	if w, g := want.Bytes(), got.Bytes(); w != g {
		t.Fatalf("bytes: plain %d, striped %d", w, g)
	}
	for i := 0; i < files; i++ {
		file := fmt.Sprintf("/bench/f%03d", i)
		wh, wg := want.Lookup(file, 0, 1<<21)
		gh, gg := got.Lookup(file, 0, 1<<21)
		if len(wh) != len(gh) || len(wg) != len(gg) {
			t.Fatalf("%s: plain %d hits/%d gaps, striped %d hits/%d gaps",
				file, len(wh), len(wg), len(gh), len(gg))
		}
		for j := range wh {
			if wh[j] != gh[j] {
				t.Fatalf("%s hit %d: plain %+v, striped %+v", file, j, wh[j], gh[j])
			}
		}
		for j := range wg {
			if wg[j] != gg[j] {
				t.Fatalf("%s gap %d: plain %+v, striped %+v", file, j, wg[j], gg[j])
			}
		}
	}
}

// TestStripedMatchesTable drives an identical mutation script through a
// plain Table and a Striped table and requires identical mapped state:
// striping must be invisible to per-file semantics.
func TestStripedMatchesTable(t *testing.T) {
	const files = 24
	script := stripedScript(files, 800, 11)
	plain := New()
	striped := NewStriped()
	applyScript(t, tableApply(plain), script)
	applyScript(t, stripedApply(striped), script)
	expectSameState(t, plain, striped, files)
}

// TestStripedLogInteroperates proves the striped table writes the same
// log format the plain table reads, and vice versa: a log produced by
// one reopens byte-for-extent identical through the other.
func TestStripedLogInteroperates(t *testing.T) {
	const files = 16
	script := stripedScript(files, 500, 23)

	// Striped writes, plain reopens.
	backend := kvstore.NewMemBackend()
	st, err := kvstore.Open(backend, "dmt", kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	striped, err := OpenStriped(st)
	if err != nil {
		t.Fatal(err)
	}
	applyScript(t, stripedApply(striped), script)
	st2, err := kvstore.Open(backend, "dmt", kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Open(st2)
	if err != nil {
		t.Fatal(err)
	}
	expectSameState(t, plain, striped, files)

	// Plain writes, striped reopens — including after a striped Compact.
	backend2 := kvstore.NewMemBackend()
	st3, err := kvstore.Open(backend2, "dmt", kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain2, err := Open(st3)
	if err != nil {
		t.Fatal(err)
	}
	applyScript(t, tableApply(plain2), script)
	st4, err := kvstore.Open(backend2, "dmt", kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	striped2, err := OpenStriped(st4)
	if err != nil {
		t.Fatal(err)
	}
	expectSameState(t, plain2, striped2, files)
	if err := striped2.Compact(); err != nil {
		t.Fatal(err)
	}
	st5, err := kvstore.Open(backend2, "dmt", kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	striped3, err := OpenStriped(st5)
	if err != nil {
		t.Fatal(err)
	}
	expectSameState(t, plain2, striped3, files)
}

// TestStripedConcurrent hammers one persistent striped table from
// concurrent goroutines on disjoint file sets (so expected state is
// computable), with a concurrent Compact thrown in, then verifies the
// live state equals a sequential replay and the persisted log recovers
// it exactly. Under -race this is the data-race gate for the striped DMT
// feeding the store's group committer.
func TestStripedConcurrent(t *testing.T) {
	backend := kvstore.NewMemBackend()
	st, err := kvstore.Open(backend, "dmt", kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	striped, err := OpenStriped(st)
	if err != nil {
		t.Fatal(err)
	}

	const (
		workers = 8
		perFile = 4 // files per worker
		ops     = 150
	)
	scripts := make([][]stripedOp, workers)
	for g := range scripts {
		rng := rand.New(rand.NewSource(int64(100 + g)))
		for i := 0; i < ops; i++ {
			op := stripedOp{
				kind:     byte(rng.Intn(4)),
				file:     fmt.Sprintf("/w%d/f%d", g, rng.Intn(perFile)),
				off:      int64(rng.Intn(1 << 14)),
				n:        int64(1 + rng.Intn(1<<10)),
				cacheOff: int64(rng.Intn(1 << 18)),
				dirty:    rng.Intn(2) == 0,
			}
			scripts[g] = append(scripts[g], op)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			apply := stripedApply(striped)
			for i, op := range scripts[g] {
				if err := apply(op); err != nil {
					t.Error(err)
					return
				}
				if i%40 == 39 {
					// Batched fragments exercise the atomic insert path.
					if err := striped.InsertBatch(op.file, []FragmentInsert{
						{Off: op.off, Length: 64, CacheOff: op.cacheOff},
						{Off: op.off + 64, Length: 64, CacheOff: op.cacheOff + 64, Dirty: true},
					}); err != nil {
						t.Error(err)
						return
					}
				}
				striped.Lookup(op.file, 0, 1<<15)
				striped.Contains(op.file, op.off, op.n)
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Sequential oracle: the same per-worker scripts applied to plain
	// tables, one per worker (disjoint file sets make this exact).
	for g := 0; g < workers; g++ {
		oracle := New()
		apply := tableApply(oracle)
		for i, op := range scripts[g] {
			if err := apply(op); err != nil {
				t.Fatal(err)
			}
			if i%40 == 39 {
				if err := oracle.InsertBatch(op.file, []FragmentInsert{
					{Off: op.off, Length: 64, CacheOff: op.cacheOff},
					{Off: op.off + 64, Length: 64, CacheOff: op.cacheOff + 64, Dirty: true},
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for f := 0; f < perFile; f++ {
			file := fmt.Sprintf("/w%d/f%d", g, f)
			wh, _ := oracle.Lookup(file, 0, 1<<20)
			gh, _ := striped.Lookup(file, 0, 1<<20)
			if len(wh) != len(gh) {
				t.Fatalf("%s: oracle %d hits, striped %d", file, len(wh), len(gh))
			}
			for j := range wh {
				if wh[j] != gh[j] {
					t.Fatalf("%s hit %d: oracle %+v, striped %+v", file, j, wh[j], gh[j])
				}
			}
		}
	}

	// Recovery: reopen the persisted log and compare to the live table.
	stR, err := kvstore.Open(backend, "dmt", kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := OpenStriped(stR)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Entries() != striped.Entries() || recovered.Bytes() != striped.Bytes() {
		t.Fatalf("recovered %d entries/%d bytes, live %d/%d",
			recovered.Entries(), recovered.Bytes(), striped.Entries(), striped.Bytes())
	}
	for g := 0; g < workers; g++ {
		for f := 0; f < perFile; f++ {
			file := fmt.Sprintf("/w%d/f%d", g, f)
			wh, _ := striped.Lookup(file, 0, 1<<20)
			gh, _ := recovered.Lookup(file, 0, 1<<20)
			if len(wh) != len(gh) {
				t.Fatalf("%s: live %d hits, recovered %d", file, len(wh), len(gh))
			}
			for j := range wh {
				if wh[j] != gh[j] {
					t.Fatalf("%s hit %d: live %+v, recovered %+v", file, j, wh[j], gh[j])
				}
			}
		}
	}
}

// TestStripedLookupAfterDelete checks that a deleted mapping is gone from
// every lookup, and that a file the table never saw is one whole gap.
func TestStripedLookupAfterDelete(t *testing.T) {
	s := NewStriped()
	file := "gone.dat"
	if err := s.Insert(file, 0, 100, 500, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(file, 0, 100); err != nil {
		t.Fatal(err)
	}
	if s.Contains(file, 0, 1) {
		t.Fatal("table still contains the deleted mapping")
	}
	if h, g := s.Lookup(file, 0, 100); len(h) != 0 || len(g) != 1 {
		t.Fatalf("deleted file: hits=%v gaps=%v", h, g)
	}
	if h, g := s.Lookup("other", 10, 20); len(h) != 0 || len(g) != 1 || g[0] != (extent.Gap{Off: 10, Len: 20}) {
		t.Fatalf("unknown file: hits=%v gaps=%v", h, g)
	}
}

// TestStripedConcurrentLookupsNeverTorn is the torn-mapping property test
// (run under -race in CI). One writer flips a file between two
// batch-inserted layouts, A and B, with distinct cache-offset bases, and
// toggles dirty flags across the whole file between the flips. Concurrent
// readers assert every lookup is exactly layout A or layout B — full
// coverage from a single base, uniform dirty bit — or, between a Delete
// and the re-insert, one whole-file gap. A torn batch or a half-applied
// flag flip fails the oracle.
func TestStripedConcurrentLookupsNeverTorn(t *testing.T) {
	s := NewStriped()
	const (
		file    = "torn.dat"
		fileLen = int64(4096)
		baseA   = int64(1 << 20)
		baseB   = int64(2 << 20)
	)
	batch := func(base int64, frag int64) []FragmentInsert {
		var out []FragmentInsert
		for off := int64(0); off < fileLen; off += frag {
			out = append(out, FragmentInsert{Off: off, Length: frag, CacheOff: base + off, Dirty: false})
		}
		return out
	}
	layoutA := batch(baseA, 256) // 16 fragments
	layoutB := batch(baseB, 512) // 8 fragments
	if err := s.InsertBatch(file, layoutA); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		cur := layoutA
		for i := 0; !stop.Load(); i++ {
			if err := s.SetDirty(file, 0, fileLen); err != nil {
				t.Error(err)
				return
			}
			if err := s.SetClean(file, 0, fileLen); err != nil {
				t.Error(err)
				return
			}
			if err := s.Delete(file, 0, fileLen); err != nil {
				t.Error(err)
				return
			}
			if cur = layoutB; i%2 == 1 {
				cur = layoutA
			}
			if err := s.InsertBatch(file, cur); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	readers := 4
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var hits []Hit
			var gaps []extent.Gap
			for !stop.Load() {
				hits, gaps = s.AppendLookup(hits[:0], gaps[:0], file, 0, fileLen)
				if len(hits) == 0 {
					if len(gaps) != 1 || gaps[0].Off != 0 || gaps[0].Len != fileLen {
						errs <- "empty lookup is not one whole-file gap"
						return
					}
					continue
				}
				if len(gaps) != 0 {
					errs <- "torn lookup: partial coverage"
					return
				}
				base := hits[0].CacheOff - hits[0].Off
				if base != baseA && base != baseB {
					errs <- "unknown cache base"
					return
				}
				dirty := hits[0].Dirty
				pos := int64(0)
				for _, h := range hits {
					if h.Off != pos {
						errs <- "non-contiguous hits"
						return
					}
					if h.CacheOff != base+h.Off {
						errs <- "torn lookup: mixed layouts"
						return
					}
					if h.Dirty != dirty {
						errs <- "torn lookup: mixed dirty bits"
						return
					}
					pos += h.Len
				}
				if pos != fileLen {
					errs <- "coverage short of file length"
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

// BenchmarkStripedCommitters measures the concurrent metadata stack: four
// goroutines inserting mappings of disjoint files into a striped DMT whose
// persistence feeds the store's group committer over a backend charging
// 20µs per sync. ns/op is wall time over total inserts; compare with
// kvstore's BenchmarkCommitters/c4 for the table's own overhead.
func BenchmarkStripedCommitters(b *testing.B) {
	const n = 4
	st, err := kvstore.Open(kvstore.NewDelayBackend(kvstore.NewMemBackend(), 20*time.Microsecond),
		"dmt", kvstore.Options{Sync: kvstore.SyncEvery})
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := OpenStriped(st)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		share := b.N / n
		if g < b.N%n {
			share++
		}
		file := fmt.Sprintf("/bench/w%02d", g)
		wg.Add(1)
		go func(file string, share int) {
			defer wg.Done()
			for i := 0; i < share; i++ {
				off := int64(i%1024) << 12
				if err := tbl.Insert(file, off, 4096, off, true); err != nil {
					b.Error(err)
					return
				}
			}
		}(file, share)
	}
	wg.Wait()
}
