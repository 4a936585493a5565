package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"
	"unsafe"

	"s4dcache/internal/cluster"
	"s4dcache/internal/dmt"
	"s4dcache/internal/extent"
	"s4dcache/internal/kvstore"
)

// The metascale family measures the metadata plane at file counts the
// paper's 24 B/entry argument (§V.E.1) presumes but the original
// map[string]*extent.Map representation could not reach: 100k and 1M
// distinct files, with and without a resident-metadata budget (DESIGN.md
// §16). Three layers of measurement:
//
//   - representation cells build bare DMTs — the legacy string-keyed
//     interval maps vs the packed slab — and report bytes/extent from
//     both the table's own accounting and honest runtime.MemStats heap
//     deltas, plus wall-clock lookup p50/p99 over a seeded random sweep;
//   - budget cells repeat the packed build under MetaBudget fractions of
//     the unbounded resident bytes, adding spill/fault-in counters and
//     the fault-in rate the lookup sweep pays;
//   - engine cells run a small write+read workload through a full S4D
//     testbed (PersistMeta+ChargeMetaIO) budgeted vs unbounded, proving
//     the budget costs virtual-time metadata reads, not hits.
//
// `make bench-metascale` writes the JSON report (BENCH_pr10.json); the
// registered "metascale" experiment renders the deterministic accounting
// subset (no heap or wall-clock columns) as a suite table.

// MetaScaleConfig sizes the metascale bench.
type MetaScaleConfig struct {
	// Files lists the distinct-file counts to sweep.
	Files []int
	// ExtentsPerFile is the mapped extents built per file.
	ExtentsPerFile int
	// BudgetFracs are the MetaBudget settings as fractions of the
	// unbounded resident bytes measured at the same file count.
	BudgetFracs []float64
	// Lookups is the seeded random lookup sweep length per cell.
	Lookups int
	// EngineFiles is the distinct-file count of the full-testbed
	// hit-rate cells.
	EngineFiles int
}

// DefaultMetaScale is the `make bench-metascale` configuration: the
// ROADMAP's 100k and 1M file targets.
func DefaultMetaScale() MetaScaleConfig {
	return MetaScaleConfig{
		Files:          []int{100_000, 1_000_000},
		ExtentsPerFile: 8,
		BudgetFracs:    []float64{0.5, 0.25, 0.10},
		Lookups:        200_000,
		EngineFiles:    20_000,
	}
}

// quickMetaScale sizes the registered experiment and the smoke test so
// the suite stays interactive.
func quickMetaScale() MetaScaleConfig {
	return MetaScaleConfig{
		Files:          []int{20_000},
		ExtentsPerFile: 8,
		BudgetFracs:    []float64{0.25},
		Lookups:        20_000,
		EngineFiles:    2_000,
	}
}

// MemPoint is one runtime.MemStats capture, taken after a forced GC so
// HeapAlloc reflects live bytes, not garbage awaiting collection.
type MemPoint struct {
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	HeapInuseBytes uint64 `json:"heap_inuse_bytes"`
	NumGC          uint32 `json:"num_gc"`
}

// captureMem forces a collection and snapshots the heap.
func captureMem() MemPoint {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return MemPoint{HeapAllocBytes: ms.HeapAlloc, HeapInuseBytes: ms.HeapInuse, NumGC: ms.NumGC}
}

// MemDelta prices one measured section: live-heap points on both sides
// plus the collections the section triggered (the After capture's own
// forced GC included).
type MemDelta struct {
	Before MemPoint `json:"before"`
	After  MemPoint `json:"after"`
	GCs    uint32   `json:"gcs"`
}

func memDelta(before, after MemPoint) MemDelta {
	return MemDelta{Before: before, After: after, GCs: after.NumGC - before.NumGC}
}

// heapDelta is the live-bytes growth of a measured section; sections
// that free memory clamp to 0.
func (d MemDelta) heapDelta() int64 {
	if d.After.HeapAllocBytes < d.Before.HeapAllocBytes {
		return 0
	}
	return int64(d.After.HeapAllocBytes - d.Before.HeapAllocBytes)
}

// metaScale extent geometry: extents sit 4 stripe-aligned KB long at
// 16 KB spacing, so neighbours never coalesce and every insert stays one
// slab segment.
const (
	metaExtLen     = 4 << 10
	metaExtSpacing = 16 << 10
)

// metaFileNames builds the sweep's file-name universe once per file
// count, outside any measured section, so name construction never
// pollutes a heap delta or a timed lookup.
func metaFileNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("/meta/d%03d/f%07d", i%512, i)
	}
	return names
}

// legacyMapping mirrors the pre-packed dmt.Mapping payload.
type legacyMapping struct {
	CacheOff int64
	Dirty    bool
}

// legacyMeta is the representation this PR replaced, rebuilt here
// verbatim as the measured baseline. That is more than the Go map of
// per-file pointer-held interval maps plus the duplicate name slice:
// the pre-PR striped table also published a per-file epoch view — an
// immutable []extent.Entry copy behind a slot pointer — for the
// lock-free serve path, which the legacy rows keep carrying.
type legacyMeta struct {
	files map[string]*extent.Map[legacyMapping]
	names []string
	views map[string]*legacyFileSlot
}

// legacyFileSlot and legacyFileExtents mirror the pre-PR view layer's
// fileSlot/fileExtents allocations one for one.
type legacyFileSlot struct {
	ext *legacyFileExtents
}

type legacyFileExtents struct {
	entries []extent.Entry[legacyMapping]
}

func buildLegacy(names []string, extPerFile int) *legacyMeta {
	lm := &legacyMeta{
		files: make(map[string]*extent.Map[legacyMapping]),
		views: make(map[string]*legacyFileSlot),
	}
	for i, name := range names {
		m := extent.New[legacyMapping](nil)
		for e := 0; e < extPerFile; e++ {
			off := int64(e) * metaExtSpacing
			m.Insert(off, metaExtLen, legacyMapping{CacheOff: int64(i*extPerFile+e) * metaExtSpacing})
		}
		lm.files[name] = m
		lm.names = append(lm.names, name)
		// Publish the file's epoch view exactly as the pre-PR striped table
		// did: a fresh exact-capacity entry copy behind a slot pointer.
		ents := m.AppendEntries(make([]extent.Entry[legacyMapping], 0, m.Len()))
		lm.views[name] = &legacyFileSlot{ext: &legacyFileExtents{entries: ents}}
	}
	return lm
}

// accountBytes sums the legacy representation's own accounting: interval
// entry structs — live map and published view copy — plus the duplicated
// name bytes and headers (map bucket and pointer overhead show up only
// in the heap delta, which is why this undercounts relative to it).
func (lm *legacyMeta) accountBytes() int64 {
	const entrySize = int64(unsafe.Sizeof(extent.Entry[legacyMapping]{}))
	const stringHeader = int64(unsafe.Sizeof(""))
	var n int64
	for _, name := range lm.names {
		// Each name is stored three times — map key, names slice, view map
		// key — sharing the byte array but not the headers.
		n += int64(lm.files[name].Len())*entrySize + int64(len(name)) + 3*stringHeader
		n += int64(len(lm.views[name].ext.entries)) * entrySize
	}
	return n
}

// MetaScaleRow is one representation × budget cell of the report.
type MetaScaleRow struct {
	// Repr is "legacy" (string-keyed interval maps) or "packed" (slab +
	// arena).
	Repr  string `json:"repr"`
	Files int    `json:"files"`
	// Extents is the mapped extent count (files × extents/file).
	Extents int `json:"extents"`
	// BudgetFrac is MetaBudget over the unbounded resident bytes; 0
	// means unbounded.
	BudgetFrac  float64 `json:"budget_frac"`
	BudgetBytes int64   `json:"budget_bytes"`
	// ResidentBytes/MemoryBytes/ArenaBytes are the table's
	// accounting (packed rows); legacy rows report their own accounting
	// under MemoryBytes and the heap delta under ResidentBytes
	// (everything is resident there).
	ResidentBytes int64 `json:"resident_bytes"`
	MemoryBytes   int64 `json:"memory_bytes"`
	ArenaBytes    int64 `json:"arena_bytes"`
	// HeapDeltaBytes is the live-heap growth of the build, measured via
	// forced-GC MemStats captures. Budget cells include the in-memory
	// spill store (the stand-in for the SSD), so their resident truth is
	// ResidentPerExtent, not this.
	HeapDeltaBytes int64 `json:"heap_delta_bytes"`
	// ResidentPerExtent is resident RAM per mapped extent:
	// (MemoryBytes+ArenaBytes)/Extents for packed rows,
	// heap/Extents for legacy (its own accounting undercounts map
	// overheads; the unbounded packed row's heap delta cross-checks that
	// the packed accounting and the heap agree). VsLegacy is the legacy
	// row's value over this row's.
	ResidentPerExtent float64 `json:"resident_bytes_per_extent"`
	HeapPerExtent     float64 `json:"heap_bytes_per_extent"`
	VsLegacy          float64 `json:"vs_legacy"`
	SpilledFiles      int     `json:"spilled_files"`
	Spills            uint64  `json:"spills"`
	FaultIns          uint64  `json:"fault_ins"`
	// FaultInRate is fault-ins per lookup over the sweep.
	FaultInRate float64 `json:"fault_in_rate"`
	LookupP50Us float64 `json:"lookup_p50_us"`
	LookupP99Us float64 `json:"lookup_p99_us"`
	// LookupHits sanity-checks the sweep (every lookup must hit).
	LookupHits uint64   `json:"lookup_hits"`
	Mem        MemDelta `json:"mem"`
}

// MetaEngineRow is one full-testbed hit-rate cell.
type MetaEngineRow struct {
	Budget      string  `json:"budget"`
	BudgetBytes int64   `json:"budget_bytes"`
	Files       int     `json:"files"`
	HitRate     float64 `json:"hit_rate"`
	// HitRateDelta is this cell's hit rate minus the unbounded cell's —
	// the budget must cost metadata I/O, not hits, so this stays 0.
	HitRateDelta      float64 `json:"hit_rate_delta_vs_unbounded"`
	MetaResidentBytes int64   `json:"meta_resident_bytes"`
	MetaSpilledFiles  int     `json:"meta_spilled_files"`
	MetaSpills        uint64  `json:"meta_spills"`
	MetaFaultIns      uint64  `json:"meta_fault_ins"`
	// MetaReads counts fault-ins charged as CServer reads in virtual
	// time (ChargeMetaIO).
	MetaReads uint64 `json:"meta_reads"`
	// ReadP50Us/ReadP99Us are per-request virtual-time read latencies.
	ReadP50Us float64 `json:"read_p50_us"`
	ReadP99Us float64 `json:"read_p99_us"`
}

// MetaScaleReport is the schema of BENCH_pr10.json.
type MetaScaleReport struct {
	Schema         string          `json:"schema"`
	GoVersion      string          `json:"go_version"`
	GOMAXPROCS     int             `json:"gomaxprocs"`
	ExtentsPerFile int             `json:"extents_per_file"`
	Lookups        int             `json:"lookups"`
	Rows           []MetaScaleRow  `json:"rows"`
	Engine         []MetaEngineRow `json:"engine"`
	WallClockMs    int64           `json:"wall_clock_ms"`
}

// metaLookupSweep runs the seeded random lookup sweep, recording
// wall-clock latencies; returns the number of lookups that found the
// extent. The seed is fixed so budgeted cells see the same fault-in
// pattern in every run.
func metaLookupSweep(names []string, extPerFile, lookups int, h *LatencyHist,
	look func(name string, off int64) bool) (hits uint64) {
	rng := rand.New(rand.NewSource(17))
	for k := 0; k < lookups; k++ {
		name := names[rng.Intn(len(names))]
		off := int64(rng.Intn(extPerFile)) * metaExtSpacing
		start := time.Now()
		ok := look(name, off)
		h.Record(time.Since(start))
		if ok {
			hits++
		}
	}
	return hits
}

// legacyCell builds and measures the legacy representation at one file
// count.
func legacyCell(names []string, extPerFile, lookups int) MetaScaleRow {
	before := captureMem()
	lm := buildLegacy(names, extPerFile)
	after := captureMem()
	extents := len(names) * extPerFile
	var h LatencyHist
	var scratch []extent.Entry[legacyMapping]
	hits := metaLookupSweep(names, extPerFile, lookups, &h, func(name string, off int64) bool {
		scratch = lm.files[name].AppendOverlaps(scratch[:0], off, metaExtLen)
		return len(scratch) > 0
	})
	md := memDelta(before, after)
	heap := md.heapDelta()
	row := MetaScaleRow{
		Repr: "legacy", Files: len(names), Extents: extents,
		ResidentBytes: heap, MemoryBytes: lm.accountBytes(),
		HeapDeltaBytes:    heap,
		ResidentPerExtent: float64(heap) / float64(extents),
		HeapPerExtent:     float64(heap) / float64(extents),
		VsLegacy:          1,
		LookupP50Us:       float64(h.P50()) / 1e3,
		LookupP99Us:       float64(h.P99()) / 1e3,
		LookupHits:        hits,
		Mem:               md,
	}
	runtime.KeepAlive(lm)
	return row
}

// packedCell builds a packed table at one file count under the
// given budget (0 = unbounded, built without a store so the heap delta
// is pure table). Returns the row; the unbounded row's ResidentBytes is
// the reference the budget fractions scale from.
func packedCell(names []string, extPerFile, lookups int, budgetFrac float64, budgetBytes int64) (MetaScaleRow, error) {
	before := captureMem()
	var tbl *dmt.Table
	if budgetBytes > 0 {
		st, err := kvstore.Open(kvstore.NewMemBackend(), "dmt", kvstore.Options{})
		if err != nil {
			return MetaScaleRow{}, err
		}
		tbl, err = dmt.Open(st, dmt.WithMetaBudget(budgetBytes))
		if err != nil {
			return MetaScaleRow{}, err
		}
	} else {
		tbl = dmt.New()
	}
	for i, name := range names {
		for e := 0; e < extPerFile; e++ {
			off := int64(e) * metaExtSpacing
			cacheOff := int64(i*extPerFile+e) * metaExtSpacing
			if err := tbl.Insert(name, off, metaExtLen, cacheOff, false); err != nil {
				return MetaScaleRow{}, err
			}
		}
	}
	after := captureMem()

	buildStats := tbl.Stats()
	var h LatencyHist
	var hitsBuf []dmt.Hit
	var gapsBuf []extent.Gap
	hits := metaLookupSweep(names, extPerFile, lookups, &h, func(name string, off int64) bool {
		hitsBuf, gapsBuf = tbl.AppendLookup(hitsBuf[:0], gapsBuf[:0], name, off, metaExtLen)
		return len(hitsBuf) > 0
	})
	st := tbl.Stats()

	extents := len(names) * extPerFile
	arenaBytes := tbl.Arena().Bytes()
	resident := st.MemoryBytes + arenaBytes
	md := memDelta(before, after)
	row := MetaScaleRow{
		Repr: "packed", Files: len(names), Extents: extents,
		BudgetFrac: budgetFrac, BudgetBytes: budgetBytes,
		ResidentBytes: st.ResidentBytes, MemoryBytes: st.MemoryBytes, ArenaBytes: arenaBytes,
		HeapDeltaBytes:    md.heapDelta(),
		ResidentPerExtent: float64(resident) / float64(extents),
		HeapPerExtent:     float64(md.heapDelta()) / float64(extents),
		SpilledFiles:      st.SpilledFiles,
		Spills:            st.Spills,
		FaultIns:          st.FaultIns - buildStats.FaultIns,
		FaultInRate:       float64(st.FaultIns-buildStats.FaultIns) / float64(max(lookups, 1)),
		LookupP50Us:       float64(h.P50()) / 1e3,
		LookupP99Us:       float64(h.P99()) / 1e3,
		LookupHits:        hits,
		Mem:               md,
	}
	runtime.KeepAlive(tbl)
	return row, nil
}

// collectMetaScale runs the representation and budget cells sequentially
// (honest MemStats need exclusive heaps) and returns the rows grouped by
// file count: legacy, packed-unbounded, then one row per budget
// fraction.
func collectMetaScale(msc MetaScaleConfig, progress io.Writer) ([]MetaScaleRow, error) {
	var rows []MetaScaleRow
	for _, n := range msc.Files {
		names := metaFileNames(n)
		if progress != nil {
			fmt.Fprintf(progress, "bench-metascale: %d files × %d extents: legacy\n", n, msc.ExtentsPerFile)
		}
		legacy := legacyCell(names, msc.ExtentsPerFile, msc.Lookups)
		rows = append(rows, legacy)

		if progress != nil {
			fmt.Fprintf(progress, "bench-metascale: %d files: packed unbounded\n", n)
		}
		unbounded, err := packedCell(names, msc.ExtentsPerFile, msc.Lookups, 0, 0)
		if err != nil {
			return nil, err
		}
		unbounded.VsLegacy = legacy.ResidentPerExtent / unbounded.ResidentPerExtent
		rows = append(rows, unbounded)

		for _, frac := range msc.BudgetFracs {
			budget := int64(frac * float64(unbounded.ResidentBytes))
			if budget < 1 {
				budget = 1
			}
			if progress != nil {
				fmt.Fprintf(progress, "bench-metascale: %d files: budget %.0f%%\n", n, frac*100)
			}
			row, err := packedCell(names, msc.ExtentsPerFile, msc.Lookups, frac, budget)
			if err != nil {
				return nil, err
			}
			row.VsLegacy = legacy.ResidentPerExtent / row.ResidentPerExtent
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// metaEngineWorkload drives one full-testbed cell: 4 seeded-random 4 KB
// writes per file, a Rebuilder drain, then the same ranges read back with
// per-request virtual-time latency. budget 0 = unbounded.
func metaEngineCell(files int, budget int64) (MetaEngineRow, error) {
	const (
		ranks     = 4
		fileSpan  = 64 << 10
		writesPer = 4
	)
	params := cluster.Default()
	// The cell drives the Rebuilder explicitly (DrainRebuild below); a
	// periodic ticker would keep Engine.Run from ever draining.
	params.RebuildPeriod = 0
	params.CacheCapacity = int64(files) * writesPer * metaExtLen * 2
	params.PersistMeta = true
	params.ChargeMetaIO = true
	params.MetaBudget = budget
	tb, err := cluster.NewS4D(params)
	if err != nil {
		return MetaEngineRow{}, err
	}
	defer tb.Close()

	// Per-file seeded random offsets: the same access pattern for every
	// budget setting, 4 KB-aligned within the file span.
	rng := rand.New(rand.NewSource(23))
	offs := make([][]int64, files)
	for i := range offs {
		offs[i] = make([]int64, writesPer)
		for j := range offs[i] {
			offs[i][j] = int64(rng.Intn(fileSpan/metaExtLen)) * metaExtLen
		}
	}
	name := func(i int) string { return fmt.Sprintf("/eng/f%06d", i) }

	for i := 0; i < files; i++ {
		for _, off := range offs[i] {
			if err := tb.S4D.Write(i%ranks, name(i), off, metaExtLen, nil, nil); err != nil {
				return MetaEngineRow{}, err
			}
			tb.Eng.Run()
		}
	}
	drained := false
	tb.S4D.DrainRebuild(func() { drained = true })
	tb.Eng.RunWhile(func() bool { return !drained })

	var h LatencyHist
	for i := 0; i < files; i++ {
		for _, off := range offs[i] {
			start := tb.Eng.Now()
			finished := false
			if err := tb.S4D.Read(i%ranks, name(i), off, metaExtLen, nil, func(error) { finished = true }); err != nil {
				return MetaEngineRow{}, err
			}
			tb.Eng.RunWhile(func() bool { return !finished })
			h.Record(tb.Eng.Now() - start)
		}
	}
	st := tb.S4D.Stats()
	label := "unbounded"
	if budget > 0 {
		label = fmt.Sprintf("%d", budget)
	}
	return MetaEngineRow{
		Budget: label, BudgetBytes: budget, Files: files,
		HitRate:           st.CacheReadShare(),
		MetaResidentBytes: st.MetaResidentBytes,
		MetaSpilledFiles:  st.MetaSpilledFiles,
		MetaSpills:        st.MetaSpills,
		MetaFaultIns:      st.MetaFaultIns,
		MetaReads:         st.MetaReads,
		ReadP50Us:         float64(h.P50()) / 1e3,
		ReadP99Us:         float64(h.P99()) / 1e3,
	}, nil
}

// collectMetaEngine runs the unbounded cell, then a 25%-budget cell
// scaled from its measured resident bytes.
func collectMetaEngine(files int, progress io.Writer) ([]MetaEngineRow, error) {
	if progress != nil {
		fmt.Fprintf(progress, "bench-metascale: engine %d files: unbounded\n", files)
	}
	base, err := metaEngineCell(files, 0)
	if err != nil {
		return nil, err
	}
	budget := base.MetaResidentBytes / 4
	if budget < 1 {
		budget = 1
	}
	if progress != nil {
		fmt.Fprintf(progress, "bench-metascale: engine %d files: budget 25%%\n", files)
	}
	tight, err := metaEngineCell(files, budget)
	if err != nil {
		return nil, err
	}
	tight.Budget = "25%"
	tight.HitRateDelta = tight.HitRate - base.HitRate
	return []MetaEngineRow{base, tight}, nil
}

// EmitMetaScaleJSON runs the metascale bench, writing a MetaScaleReport
// to w. s4dbench's -bench-metascale flag drives it; `make
// bench-metascale` regenerates the committed BENCH_pr10.json.
func EmitMetaScaleJSON(w io.Writer, msc MetaScaleConfig, progress io.Writer) error {
	rep := MetaScaleReport{
		Schema:         "s4d-metascale/1",
		GoVersion:      runtime.Version(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		ExtentsPerFile: msc.ExtentsPerFile,
		Lookups:        msc.Lookups,
	}
	start := time.Now()
	rows, err := collectMetaScale(msc, progress)
	if err != nil {
		return fmt.Errorf("bench: emit metascale json: %w", err)
	}
	rep.Rows = rows
	engine, err := collectMetaEngine(msc.EngineFiles, progress)
	if err != nil {
		return fmt.Errorf("bench: emit metascale json: %w", err)
	}
	rep.Engine = engine
	rep.WallClockMs = time.Since(start).Milliseconds()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&rep)
}

func init() {
	register(Experiment{
		ID:    "metascale",
		Title: "Metadata plane at scale: packed extents + resident budget",
		Run:   runMetaScale,
	})
}

// runMetaScale renders the deterministic accounting subset of the
// metascale sweep as a suite table: representation bytes/extent from the
// tables' own accounting, spill/fault-in counts and rates. Heap deltas
// and wall-clock latencies live only in the JSON report — this table
// must come out byte-identical at every -parallel setting and under
// -faults.
func runMetaScale(cfg Config) (*Table, error) {
	msc := quickMetaScale()
	rows, err := collectMetaScale(msc, nil)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "metascale",
		Title: "metadata plane at scale (accounting bytes; heap/latency in BENCH_pr10.json)",
		Columns: []string{"repr", "files", "extents", "budget", "resident-B",
			"accounted-B/ext", "spilled-files", "fault-ins", "fault-rate", "lookup-hits"},
	}
	for _, r := range rows {
		budget := "unbounded"
		if r.BudgetBytes > 0 {
			budget = fmt.Sprintf("%.0f%%", r.BudgetFrac*100)
		}
		perExt := float64(r.MemoryBytes+r.ArenaBytes) / float64(r.Extents)
		resident := r.ResidentBytes
		if r.Repr == "legacy" {
			// The legacy row's accounting resident bytes are its interval
			// slices + names; the heap delta stays out of the
			// deterministic table.
			resident = r.MemoryBytes
			perExt = float64(r.MemoryBytes) / float64(r.Extents)
		}
		t.AddRow(r.Repr, fmt.Sprintf("%d", r.Files), fmt.Sprintf("%d", r.Extents), budget,
			fmt.Sprintf("%d", resident), fmt.Sprintf("%.1f", perExt),
			fmt.Sprintf("%d", r.SpilledFiles), fmt.Sprintf("%d", r.FaultIns),
			fmt.Sprintf("%.3f", r.FaultInRate), fmt.Sprintf("%d", r.LookupHits))
	}
	t.AddNote("budget rows spill cold files into the kvstore; lookups fault them back in")
	t.AddNote("heap-measured bytes/extent and lookup p50/p99 are in `make bench-metascale` output")
	return t, nil
}
