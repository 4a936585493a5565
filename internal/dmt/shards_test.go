package dmt

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"
	"time"

	"s4dcache/internal/kvstore"
)

// scriptOp is one scripted mutation for the equivalence tests.
type scriptOp struct {
	kind     byte // 0 insert, 1 delete, 2 setdirty, 3 setclean
	file     string
	off, n   int64
	cacheOff int64
	dirty    bool
}

func opScript(files, ops int, seed int64) []scriptOp {
	rng := rand.New(rand.NewSource(seed))
	out := make([]scriptOp, 0, ops)
	for i := 0; i < ops; i++ {
		op := scriptOp{
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

func applyScript(t *testing.T, apply func(scriptOp) error, script []scriptOp) {
	t.Helper()
	for _, op := range script {
		if err := apply(op); err != nil {
			t.Fatal(err)
		}
	}
}

func tableApply(tb *Table) func(scriptOp) error {
	return func(op scriptOp) error {
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

// routeBy routes a file to one of n tables by FNV-1a hash, as a sharded
// caller would.
func routeBy(n int) func(string) int {
	return func(file string) int {
		h := fnv.New32a()
		h.Write([]byte(file))
		return int(h.Sum32() % uint32(n))
	}
}

// shardsApply applies a script op to the table its file routes to.
func shardsApply(ts []*Table) func(scriptOp) error {
	route := routeBy(len(ts))
	return func(op scriptOp) error { return tableApply(ts[route(op.file)])(op) }
}

// expectSameState asserts a single table and a set of n tables (files
// routed by routeBy) agree on aggregate counters and on every per-file
// lookup over the probed ranges.
func expectSameState(t *testing.T, want *Table, got []*Table, files int) {
	t.Helper()
	entries, bytes := 0, int64(0)
	for _, tb := range got {
		entries += tb.Entries()
		bytes += tb.Bytes()
	}
	if w := want.Entries(); w != entries {
		t.Fatalf("entries: one table %d, %d tables %d", w, len(got), entries)
	}
	if w := want.Bytes(); w != bytes {
		t.Fatalf("bytes: one table %d, %d tables %d", w, len(got), bytes)
	}
	route := routeBy(len(got))
	for i := 0; i < files; i++ {
		file := fmt.Sprintf("/bench/f%03d", i)
		wh, wg := want.Lookup(file, 0, 1<<21)
		gh, gg := got[route(file)].Lookup(file, 0, 1<<21)
		if len(wh) != len(gh) || len(wg) != len(gg) {
			t.Fatalf("%s: one table %d hits/%d gaps, %d tables %d hits/%d gaps",
				file, len(wh), len(wg), len(got), len(gh), len(gg))
		}
		for j := range wh {
			if wh[j] != gh[j] {
				t.Fatalf("%s hit %d: one table %+v, %d tables %+v", file, j, wh[j], len(got), gh[j])
			}
		}
		for j := range wg {
			if wg[j] != gg[j] {
				t.Fatalf("%s gap %d: one table %+v, %d tables %+v", file, j, wg[j], len(got), gg[j])
			}
		}
	}
}

// openStore opens the "dmt" store over backend.
func openStore(t testing.TB, backend kvstore.Backend) *kvstore.Store {
	t.Helper()
	st, err := kvstore.Open(backend, "dmt", kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStripedMatchesTable drives an identical mutation script through
// one table and through sets of n memory-only tables with files striped
// across them by hash, and requires identical mapped state: splitting
// files across tables must be invisible to per-file semantics.
func TestStripedMatchesTable(t *testing.T) {
	const files = 24
	script := opScript(files, 800, 11)
	plain := New()
	applyScript(t, tableApply(plain), script)
	for _, n := range []int{1, 3, 16} {
		set := NewShards(n)
		applyScript(t, shardsApply(set), script)
		expectSameState(t, plain, set, files)
	}
}

// TestStripedLogInteroperates proves n tables over one store write the
// log a single table reads: a script applied to a 5-table set matches the
// same script on one table, and the store reopens as one table
// extent-for-extent identical to the set — before and after the set's
// one-pass compaction, with more ops logged after the compaction.
func TestStripedLogInteroperates(t *testing.T) {
	const files, n = 16, 5
	script := opScript(files, 500, 23)
	more := opScript(files, 200, 29)

	backend := kvstore.NewMemBackend()
	set, err := NewPersistedShards(openStore(t, backend), 0, n)
	if err != nil {
		t.Fatal(err)
	}
	applyScript(t, shardsApply(set), script)
	live := New()
	applyScript(t, tableApply(live), script)
	expectSameState(t, live, set, files)
	one, err := Open(openStore(t, backend))
	if err != nil {
		t.Fatal(err)
	}
	expectSameState(t, one, set, files)

	// The set compacts and logs on; one table reopens the result.
	if err := CompactShards(set); err != nil {
		t.Fatal(err)
	}
	applyScript(t, shardsApply(set), more)
	applyScript(t, tableApply(live), more)
	expectSameState(t, live, set, files)
	one2, err := Open(openStore(t, backend))
	if err != nil {
		t.Fatal(err)
	}
	expectSameState(t, one2, set, files)
}

// TestShardsConcurrent gives each of 8 goroutines its own table of one
// 8-table set and has them mutate disjoint files at once, sharing the
// store and the op-log sequence, then verifies the live state equals a
// sequential replay and that the log reopens to it exactly. Under -race
// this is the data-race gate for the shared sequence feeding the store's
// group committer.
func TestShardsConcurrent(t *testing.T) {
	const (
		workers = 8
		perFile = 4 // files per worker
		ops     = 150
	)
	backend := kvstore.NewMemBackend()
	set, err := NewPersistedShards(openStore(t, backend), 0, workers)
	if err != nil {
		t.Fatal(err)
	}
	scripts := make([][]scriptOp, workers)
	for g := range scripts {
		rng := rand.New(rand.NewSource(int64(100 + g)))
		for i := 0; i < ops; i++ {
			scripts[g] = append(scripts[g], scriptOp{
				kind:     byte(rng.Intn(4)),
				file:     fmt.Sprintf("/w%d/f%d", g, rng.Intn(perFile)),
				off:      int64(rng.Intn(1 << 14)),
				n:        int64(1 + rng.Intn(1<<10)),
				cacheOff: int64(rng.Intn(1 << 18)),
				dirty:    rng.Intn(2) == 0,
			})
		}
	}
	// run applies worker g's script to tb; every 40th op also commits a
	// two-fragment batch, the atomic insert path.
	run := func(tb *Table, g int) error {
		apply := tableApply(tb)
		for i, op := range scripts[g] {
			if err := apply(op); err != nil {
				return err
			}
			if i%40 == 39 {
				if err := tb.InsertBatch(op.file, []FragmentInsert{
					{Off: op.off, Length: 64, CacheOff: op.cacheOff},
					{Off: op.off + 64, Length: 64, CacheOff: op.cacheOff + 64, Dirty: true},
				}); err != nil {
					return err
				}
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if err := run(set[g], g); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	reopened, err := Open(openStore(t, backend))
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < workers; g++ {
		oracle := New()
		if err := run(oracle, g); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < perFile; f++ {
			file := fmt.Sprintf("/w%d/f%d", g, f)
			wh, _ := oracle.Lookup(file, 0, 1<<20)
			for _, got := range []*Table{set[g], reopened} {
				gh, _ := got.Lookup(file, 0, 1<<20)
				if len(wh) != len(gh) {
					t.Fatalf("%s: oracle %d hits, got %d", file, len(wh), len(gh))
				}
				for j := range wh {
					if wh[j] != gh[j] {
						t.Fatalf("%s hit %d: oracle %+v, got %+v", file, j, wh[j], gh[j])
					}
				}
			}
		}
	}
}

// BenchmarkShardCommitters measures the concurrent metadata stack: four
// goroutines, each inserting mappings of its own file into its own table
// of a 4-table set whose persistence feeds the store's group committer
// over a backend charging 20µs per sync. ns/op is wall time over total
// inserts; compare with kvstore's BenchmarkCommitters/c4 for the tables'
// own overhead.
func BenchmarkShardCommitters(b *testing.B) {
	const n = 4
	st, err := kvstore.Open(kvstore.NewDelayBackend(kvstore.NewMemBackend(), 20*time.Microsecond),
		"dmt", kvstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	set, err := NewPersistedShards(st, 0, n)
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
		wg.Add(1)
		go func(tbl *Table, file string, share int) {
			defer wg.Done()
			for i := 0; i < share; i++ {
				off := int64(i%1024) << 12
				if err := tbl.Insert(file, off, 4096, off, true); err != nil {
					b.Error(err)
					return
				}
			}
		}(set[g], fmt.Sprintf("/bench/w%02d", g), share)
	}
	wg.Wait()
}
