package bench

import (
	"fmt"

	"s4dcache/internal/cluster"
	"s4dcache/internal/core"
	"s4dcache/internal/dmt"
	"s4dcache/internal/mpiio"
	"s4dcache/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "fig9",
		Title: "HPIO throughput vs region spacing, stock vs S4D",
		Run:   runFig9,
	})
	register(Experiment{
		ID:    "fig10",
		Title: "MPI-Tile-IO throughput vs process count, stock vs S4D",
		Run:   runFig10,
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Runtime overhead with all-miss workload (S4D machinery on, nothing cached)",
		Run:   runFig11,
	})
	register(Experiment{
		ID:    "meta",
		Title: "DMT metadata space overhead",
		Run:   runMeta,
	})
}

// wrPairCells builds the (stock, s4d) cell pair for one write+read phase
// sweep point: the stock testbed runs write then read; the S4D testbed
// drains the Rebuilder between them (phases w, nil, r) so reads hit the
// reorganized cache.
func wrPairCells(label string, ranks int, cacheCapacity int64,
	wPhase, rPhase phase) []Cell[wr] {
	return []Cell[wr]{
		{
			Label: label + "/stock",
			Run: func() (wr, error) {
				stock, err := cluster.NewStock(cluster.Default())
				if err != nil {
					return wr{}, err
				}
				res, err := runPhases(stock, ranks, wPhase, rPhase)
				if err != nil {
					return wr{}, err
				}
				return wr{w: res[0].ThroughputMBps(), r: res[1].ThroughputMBps()}, nil
			},
		},
		{
			Label: label + "/s4d",
			Run: func() (wr, error) {
				params := cluster.Default()
				params.CacheCapacity = cacheCapacity
				s4d, err := cluster.NewS4D(params)
				if err != nil {
					return wr{}, err
				}
				res, err := runPhases(s4d, ranks, wPhase, nil, rPhase)
				if err != nil {
					return wr{}, err
				}
				return wr{w: res[0].ThroughputMBps(), r: res[2].ThroughputMBps()}, nil
			},
		},
	}
}

// runFig9 reproduces Figure 9: HPIO with 16 processes, 4096 regions of
// 8 KB, region spacing 0–4 KB. The paper reports gains of +18/28/30/33%
// growing with spacing.
func runFig9(cfg Config) (*Table, error) {
	ranks := 16
	regions := 4096
	if cfg.Scale < 1 {
		ranks = cfg.Ranks
		regions = 512
	}
	t := &Table{
		ID:    "fig9",
		Title: "HPIO (8KB regions), varying region spacing",
		Columns: []string{"spacing", "stock-w", "s4d-w", "write-gain",
			"stock-r", "s4d-r", "read-gain"},
	}
	spacings := []int64{0, 1 << 10, 2 << 10, 4 << 10}
	var cells []Cell[wr]
	for _, spacing := range spacings {
		hp := workload.HPIOConfig{
			Ranks: ranks, RegionCount: regions, RegionSize: 8 << 10,
			RegionSpacing: spacing,
		}
		dataSize := int64(ranks) * int64(regions) * hp.RegionSize
		wPhase := func(comm *mpiio.Comm, done func(workload.Result)) error {
			return workload.RunHPIO(comm, hp, true, done)
		}
		rPhase := func(comm *mpiio.Comm, done func(workload.Result)) error {
			return workload.RunHPIO(comm, hp, false, done)
		}
		cells = append(cells, wrPairCells("fig9/"+kb(spacing), ranks, dataSize/5, wPhase, rPhase)...)
	}
	res, err := RunCells(cfg.Parallel, cells)
	if err != nil {
		return nil, err
	}
	for i, spacing := range spacings {
		stock, s4d := res[2*i], res[2*i+1]
		t.AddRow(kb(spacing), mbps(stock.w), mbps(s4d.w), pct(s4d.w, stock.w),
			mbps(stock.r), mbps(s4d.r), pct(s4d.r, stock.r))
	}
	t.AddNote("paper: +18%%, +28%%, +30%%, +33%% — gains grow with spacing (poorer stock locality)")
	return t, nil
}

// runFig10 reproduces Figure 10: MPI-Tile-IO with 10×10-element tiles of
// 32 KB elements, 100–400 processes (scaled). The paper reports +21–33%
// writes and +18–31% reads.
func runFig10(cfg Config) (*Table, error) {
	counts := []int{100, 200, 400}
	elemSize := int64(32 << 10)
	if cfg.Scale < 1 {
		counts = []int{16, 36, 64}
		elemSize = 16 << 10
	}
	t := &Table{
		ID:    "fig10",
		Title: "MPI-Tile-IO (10x10 tiles), varying process count",
		Columns: []string{"procs", "stock-w", "s4d-w", "write-gain",
			"stock-r", "s4d-r", "read-gain"},
	}
	var cells []Cell[wr]
	for _, procs := range counts {
		tile := workload.TileIOConfig{
			Ranks: procs, ElementsX: 10, ElementsY: 10, ElementSize: elemSize,
		}
		dataSize := int64(procs) * 100 * elemSize
		wPhase := func(comm *mpiio.Comm, done func(workload.Result)) error {
			return workload.RunTileIO(comm, tile, true, done)
		}
		rPhase := func(comm *mpiio.Comm, done func(workload.Result)) error {
			return workload.RunTileIO(comm, tile, false, done)
		}
		cells = append(cells, wrPairCells(fmt.Sprintf("fig10/%dp", procs), procs, dataSize/5, wPhase, rPhase)...)
	}
	res, err := RunCells(cfg.Parallel, cells)
	if err != nil {
		return nil, err
	}
	for i, procs := range counts {
		stock, s4d := res[2*i], res[2*i+1]
		t.AddRow(fmt.Sprintf("%d", procs), mbps(stock.w), mbps(s4d.w), pct(s4d.w, stock.w),
			mbps(stock.r), mbps(s4d.r), pct(s4d.r, stock.r))
	}
	t.AddNote("paper: +21%%–33%% writes, +18%%–31%% reads (nested-stride locality between IOR and HPIO)")
	return t, nil
}

// runFig11 reproduces Figure 11: a random shared-file write workload where
// every request intentionally misses the cache (admission disabled). The
// identification, CDT/DMT lookup and synchronous metadata machinery all
// run; the throughput difference vs stock is the S4D overhead, which the
// paper reports as "almost unobservable".
func runFig11(cfg Config) (*Table, error) {
	fileSize := int64(10 << 30)
	if cfg.Scale < 1 {
		fileSize = int64(float64(fileSize) * cfg.Scale)
	}
	t := &Table{
		ID:      "fig11",
		Title:   "All-miss overhead (random shared-file writes)",
		Columns: []string{"req", "stock MB/s", "s4d-off MB/s", "overhead"},
	}
	reqs := []int64{8 << 10, 16 << 10, 32 << 10}
	var cells []Cell[float64]
	for _, req := range reqs {
		ior := workload.IORConfig{
			Ranks: cfg.Ranks, FileSize: fileSize, RequestSize: req,
			Random: true, Seed: 5,
		}
		phaseW := func(comm *mpiio.Comm, done func(workload.Result)) error {
			return workload.RunIOR(comm, ior, true, done)
		}
		for _, s4dOff := range []bool{false, true} {
			s4dOff := s4dOff
			sys := "stock"
			if s4dOff {
				sys = "s4d-off"
			}
			cells = append(cells, Cell[float64]{
				Label: fmt.Sprintf("fig11/%s/%s", kb(req), sys),
				Run: func() (float64, error) {
					var tb *cluster.Testbed
					var err error
					if s4dOff {
						params := cluster.Default()
						params.CacheCapacity = fileSize / 5
						params.Policy = core.PolicyNone
						params.PersistMeta = true
						params.ChargeMetaIO = true
						tb, err = cluster.NewS4D(params)
					} else {
						tb, err = cluster.NewStock(cluster.Default())
					}
					if err != nil {
						return 0, err
					}
					res, err := runPhases(tb, cfg.Ranks, phaseW)
					if err != nil {
						return 0, err
					}
					return res[0].ThroughputMBps(), nil
				},
			})
		}
	}
	res, err := RunCells(cfg.Parallel, cells)
	if err != nil {
		return nil, err
	}
	for i, req := range reqs {
		base, got := res[2*i], res[2*i+1]
		overhead := "0.0%"
		if base > 0 {
			overhead = fmt.Sprintf("%.1f%%", (1-got/base)*100)
		}
		t.AddRow(kb(req), mbps(base), mbps(got), overhead)
	}
	t.AddNote("paper: overhead almost unobservable")
	return t, nil
}

// runMeta reproduces §V.E.1: the DMT space overhead. The worst case is
// all-4KB requests: one 24-byte entry per 4 KB of cache, 0.6%. The
// measured column populates a cache with 4 KB critical writes and reports
// entries*24B / cache capacity. A single testbed — nothing to parallelize.
func runMeta(cfg Config) (*Table, error) {
	capacity := int64(64 << 20)
	params := cluster.Default()
	params.CacheCapacity = capacity
	tb, err := cluster.NewS4D(params)
	if err != nil {
		return nil, err
	}
	ior := workload.IORConfig{
		Ranks: cfg.Ranks, FileSize: capacity, RequestSize: 4 << 10,
		Random: true, Seed: 13,
	}
	if _, err := runPhases(tb, cfg.Ranks, func(comm *mpiio.Comm, done func(workload.Result)) error {
		return workload.RunIOR(comm, ior, true, done)
	}); err != nil {
		return nil, err
	}
	table := tb.S4D.DMT()
	entries := table.Entries()
	metaBytes := table.MetadataBytes()
	used := tb.S4D.Space().Stats().UsedBytes
	measured := 0.0
	if used > 0 {
		measured = float64(metaBytes) / float64(used) * 100
	}
	// The paper's 24 B/entry is an assumption; the packed table accounts
	// its actual footprint (slab segments + per-file state + interned
	// names), reported per entry next to the constant.
	residentPer, memoryPer := 0.0, 0.0
	if entries > 0 {
		residentPer = float64(table.ResidentBytes()) / float64(entries)
		memoryPer = float64(table.MemoryBytes()+table.Arena().Bytes()) / float64(entries)
	}
	t := &Table{
		ID:      "meta",
		Title:   "DMT metadata space overhead (worst case: 4KB requests)",
		Columns: []string{"metric", "value"},
	}
	t.AddRow("analytic overhead (24B / 4KB)", "0.59%")
	t.AddRow("DMT entries", fmt.Sprintf("%d", entries))
	t.AddRow("paper constant B/entry", fmt.Sprintf("%d", int64(dmt.EntryBytes)))
	t.AddRow("measured packed B/entry", fmt.Sprintf("%.1f", residentPer))
	t.AddRow("measured B/entry incl. file state + names", fmt.Sprintf("%.1f", memoryPer))
	t.AddRow("metadata bytes (paper accounting)", fmt.Sprintf("%d", metaBytes))
	t.AddRow("cached bytes", fmt.Sprintf("%d", used))
	t.AddRow("measured overhead", fmt.Sprintf("%.2f%%", measured))
	t.AddNote("paper: ~0.6%%, negligible")
	t.AddNote("see the metascale experiment for the 100k/1M-file footprint sweep")
	return t, nil
}
