package dmt

import (
	"fmt"
	"math/rand"
	"testing"

	"s4dcache/internal/extent"
	"s4dcache/internal/kvstore"
)

// spillStore opens a fresh in-memory metadata store.
func spillStore(t *testing.T) *kvstore.Store {
	t.Helper()
	st, err := kvstore.Open(kvstore.NewMemBackend(), "dmt", kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// spillTable opens a budgeted table over a fresh store.
func spillTable(t *testing.T, budget int64, opts ...Option) *Table {
	t.Helper()
	tbl, err := Open(spillStore(t), append([]Option{WithMetaBudget(budget)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func spillName(i int) string { return fmt.Sprintf("sf%03d", i) }

// fillSpill inserts n clean single-extent files.
func fillSpill(t *testing.T, tbl *Table, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := tbl.Insert(spillName(i), 0, 4096, int64(i)*4096, false); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSpillFaultInRoundTrip drives a file through the full resident →
// spilled → resident cycle: the budget spills cold clean files, a lookup
// of a spilled file faults its sealed record back in, and the faulted
// mappings are byte-for-byte what was inserted.
func TestSpillFaultInRoundTrip(t *testing.T) {
	tbl := spillTable(t, 200)
	fillSpill(t, tbl, 16)
	st := tbl.Stats()
	if st.Spills == 0 || st.SpilledFiles == 0 {
		t.Fatalf("budget never spilled: %+v", st)
	}
	if tbl.ResidentBytes() > 200 {
		t.Fatalf("resident bytes %d exceed budget", tbl.ResidentBytes())
	}
	// Every file — spilled or resident — must serve correct mappings.
	for i := 0; i < 16; i++ {
		hits, gaps := tbl.Lookup(spillName(i), 0, 4096)
		if len(hits) != 1 || len(gaps) != 0 {
			t.Fatalf("file %d: hits=%v gaps=%v", i, hits, gaps)
		}
		if h := hits[0]; h.Off != 0 || h.Len != 4096 || h.CacheOff != int64(i)*4096 || h.Dirty {
			t.Fatalf("file %d: faulted hit %+v", i, h)
		}
	}
	if tbl.Stats().FaultIns == 0 {
		t.Fatal("lookups never faulted a spilled file in")
	}
	// Entries and mapped bytes must account spilled files throughout.
	if got := tbl.Entries(); got != 16 {
		t.Fatalf("entries = %d, want 16", got)
	}
	if got := tbl.Bytes(); got != 16*4096 {
		t.Fatalf("bytes = %d, want %d", got, 16*4096)
	}
}

// TestSpillSkipsDirtyFiles pins the spilled ⇒ clean invariant: a file
// holding dirty extents is never spilled, no matter how cold, because
// the Rebuilder's dirty scans only walk resident state.
func TestSpillSkipsDirtyFiles(t *testing.T) {
	tbl := spillTable(t, 150)
	if err := tbl.Insert("dirty", 0, 4096, 0, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := tbl.Insert(spillName(i), 0, 4096, int64(1+i)*4096, false); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(tbl.DirtyExtents(0)); got != 1 {
		t.Fatalf("dirty extents = %d, want 1 (dirty file must stay resident)", got)
	}
	// SetClean makes it eligible; further pressure may now spill it.
	if err := tbl.SetClean("dirty", 0, 4096); err != nil {
		t.Fatal(err)
	}
	for i := 12; i < 40; i++ {
		if err := tbl.Insert(spillName(i), 0, 4096, int64(1+i)*4096, false); err != nil {
			t.Fatal(err)
		}
	}
	hits, _ := tbl.Lookup("dirty", 0, 4096)
	if len(hits) != 1 || hits[0].Dirty {
		t.Fatalf("clean-after-spill lookup: %+v", hits)
	}
}

// TestSpillVsUnboundedDeterminism is the spill determinism oracle: the
// same op+lookup sequence against a tightly budgeted table and an
// unbounded one must expose byte-identical virtual state — extents,
// bytes, entries — at every step. Spilling may only move metadata, never
// change it.
func TestSpillVsUnboundedDeterminism(t *testing.T) {
	budgeted := spillTable(t, 300)
	unbounded := New()
	rng := rand.New(rand.NewSource(41))
	for step := 0; step < 4000; step++ {
		file := spillName(rng.Intn(24))
		off := int64(rng.Intn(32)) * 4096
		length := int64(rng.Intn(3)+1) * 4096
		switch rng.Intn(5) {
		case 0:
			if err := budgeted.Delete(file, off, length); err != nil {
				t.Fatal(err)
			}
			_ = unbounded.Delete(file, off, length)
		case 1:
			bh, bg := budgeted.Lookup(file, off, length)
			uh, ug := unbounded.Lookup(file, off, length)
			if fmt.Sprint(bh, bg) != fmt.Sprint(uh, ug) {
				t.Fatalf("step %d: lookup diverged:\nbudgeted  %v %v\nunbounded %v %v", step, bh, bg, uh, ug)
			}
		default:
			cacheOff := int64(step) * 4096
			// Dirty inserts are rare so most files stay spill-eligible.
			dirty := rng.Intn(8) == 0
			if err := budgeted.Insert(file, off, length, cacheOff, dirty); err != nil {
				t.Fatal(err)
			}
			_ = unbounded.Insert(file, off, length, cacheOff, dirty)
			if dirty {
				if err := budgeted.SetClean(file, off, length); err != nil {
					t.Fatal(err)
				}
				_ = unbounded.SetClean(file, off, length)
			}
		}
		if budgeted.Entries() != unbounded.Entries() || budgeted.Bytes() != unbounded.Bytes() {
			t.Fatalf("step %d: accounting diverged: entries %d/%d bytes %d/%d", step,
				budgeted.Entries(), unbounded.Entries(), budgeted.Bytes(), unbounded.Bytes())
		}
	}
	if budgeted.Stats().Spills == 0 || budgeted.Stats().FaultIns == 0 {
		t.Fatalf("oracle never exercised spill machinery: %+v", budgeted.Stats())
	}
	// Full final dump comparison, dirty and clean.
	bd, bc := fmt.Sprint(budgeted.DirtyExtents(0)), fmt.Sprint(budgeted.CleanExtents(0))
	ud, uc := fmt.Sprint(unbounded.DirtyExtents(0)), fmt.Sprint(unbounded.CleanExtents(0))
	if bd != ud || bc != uc {
		t.Fatalf("final state diverged:\nbudgeted dirty  %s\nunbounded dirty %s\nbudgeted clean  %s\nunbounded clean %s", bd, ud, bc, uc)
	}
}

// TestSpillSurvivesReopen closes the loop with §14 recovery: spilled
// baseline records plus the op log rebuild the identical table on a
// fresh Open, with clean spilled files installed lazily (no fault-in
// until first touch).
func TestSpillSurvivesReopen(t *testing.T) {
	backend := kvstore.NewMemBackend()
	st, err := kvstore.Open(backend, "dmt", kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Open(st, WithMetaBudget(200))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := tbl.Insert(spillName(i), 0, 4096, int64(i)*4096, false); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Stats().Spills == 0 {
		t.Fatal("no spills before reopen")
	}

	st2, err := kvstore.Open(backend, "dmt", kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	re, err := Open(st2, WithMetaBudget(200))
	if err != nil {
		t.Fatal(err)
	}
	if re.Entries() != 16 || re.Bytes() != 16*4096 {
		t.Fatalf("reopen: entries=%d bytes=%d", re.Entries(), re.Bytes())
	}
	if re.Stats().SpilledFiles == 0 {
		t.Fatal("reopen installed every spilled file resident")
	}
	for i := 0; i < 16; i++ {
		hits, gaps := re.Lookup(spillName(i), 0, 4096)
		if len(hits) != 1 || len(gaps) != 0 || hits[0].CacheOff != int64(i)*4096 {
			t.Fatalf("reopen file %d: hits=%v gaps=%v", i, hits, gaps)
		}
	}
}

// TestSpillQuarantineThenMiss damages a spilled record via the SpillRead
// hook (at-rest corruption on the fault-in path): the fault must
// quarantine the file — served as a full miss, tombstoned so stale ops
// cannot resurrect it — never decode wrong mappings.
func TestSpillQuarantineThenMiss(t *testing.T) {
	backend := kvstore.NewMemBackend()
	st, err := kvstore.Open(backend, "dmt", kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := Open(st, WithMetaBudget(200), WithSpillRead(func(name string, data []byte) []byte {
		out := append([]byte(nil), data...)
		out[len(out)/2] ^= 0x40
		return out
	}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := tbl.Insert(spillName(i), 0, 4096, int64(i)*4096, false); err != nil {
			t.Fatal(err)
		}
	}
	st0 := tbl.Stats()
	if st0.Spills == 0 {
		t.Fatal("nothing spilled")
	}
	var quarantined int
	for i := 0; i < 16; i++ {
		hits, gaps := tbl.Lookup(spillName(i), 0, 4096)
		switch {
		case len(hits) == 1 && len(gaps) == 0 && hits[0].CacheOff == int64(i)*4096:
			// stayed resident — fine
		case len(hits) == 0 && len(gaps) == 1:
			quarantined++ // full miss, never wrong data
		default:
			t.Fatalf("file %d: partial or wrong mappings after corrupt fault-in: hits=%v gaps=%v", i, hits, gaps)
		}
	}
	st1 := tbl.Stats()
	if quarantined == 0 || st1.SpillQuarantined == 0 {
		t.Fatalf("corruption never quarantined: misses=%d stats=%+v", quarantined, st1)
	}
	// Quarantine is durable: a reopen must not resurrect the damaged
	// files from stale ops.
	st2, err := kvstore.Open(backend, "dmt", kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	re, err := Open(st2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := re.Entries(), 16-quarantined; got != want {
		t.Fatalf("reopen entries = %d, want %d (quarantine must stick)", got, want)
	}
}

// TestShardsSpillFaultIn checks that each table of a 4-table set over
// one store spills files under its own resident budget, and that a lookup
// of a spilled file faults it back in and returns its mapping.
func TestShardsSpillFaultIn(t *testing.T) {
	const n = 4
	route := routeBy(n)
	set, err := NewPersistedShards(spillStore(t), 0, n, WithMetaBudget(75))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := set[route(spillName(i))].Insert(spillName(i), 0, 4096, int64(i)*4096, false); err != nil {
			t.Fatal(err)
		}
	}
	stats := func() (st Stats) {
		for _, tbl := range set {
			s := tbl.Stats()
			st.SpilledFiles += s.SpilledFiles
			st.FaultIns += s.FaultIns
		}
		return st
	}
	if stats().SpilledFiles == 0 {
		t.Fatal("nothing spilled")
	}
	for i := 0; i < 32; i++ {
		if h, g := set[route(spillName(i))].Lookup(spillName(i), 0, 4096); len(h) != 1 || len(g) != 0 || h[0].CacheOff != int64(i)*4096 {
			t.Fatalf("file %d: lookup: hits=%v gaps=%v", i, h, g)
		}
	}
	if stats().FaultIns == 0 {
		t.Fatal("no lookup faulted a spilled file in")
	}
}

// TestPackedLookupZeroAllocs pins the packed-extent serve path:
// AppendLookup against resident files with caller-owned buffers must not
// allocate, budget machinery included.
func TestPackedLookupZeroAllocs(t *testing.T) {
	tbl := spillTable(t, 1<<20) // budget present but never exceeded
	fillSpill(t, tbl, 64)
	names := make([]string, 64)
	for i := range names {
		names[i] = spillName(i)
	}
	hits := make([]Hit, 0, 8)
	gaps := make([]extent.Gap, 0, 8)
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		hits, gaps = tbl.AppendLookup(hits[:0], gaps[:0], names[i%64], 0, 4096)
		i++
	})
	if avg != 0 {
		t.Fatalf("packed AppendLookup allocates %.1f/op, want 0", avg)
	}
}

// TestSpillBookkeepingZeroAllocs pins the budget bookkeeping on the
// serve path: lookups of resident files on a table actively holding
// spilled files (clock touches, residency accounting) must not allocate.
func TestSpillBookkeepingZeroAllocs(t *testing.T) {
	tbl := spillTable(t, 400)
	fillSpill(t, tbl, 64)
	if tbl.Stats().SpilledFiles == 0 {
		t.Fatal("no spilled files to bookkeep around")
	}
	// Fault a stable working set in once; repeated lookups of the same
	// files stay resident (clock protection) and must be clean.
	resident := []string{spillName(60), spillName(61)}
	for _, f := range resident {
		tbl.Lookup(f, 0, 4096)
	}
	hits := make([]Hit, 0, 8)
	gaps := make([]extent.Gap, 0, 8)
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		hits, gaps = tbl.AppendLookup(hits[:0], gaps[:0], resident[i%2], 0, 4096)
		i++
	})
	if avg != 0 {
		t.Fatalf("budgeted AppendLookup allocates %.1f/op, want 0", avg)
	}
}
