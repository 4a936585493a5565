package bench

import (
	"fmt"
	"time"

	"s4dcache/internal/cluster"
	"s4dcache/internal/core"
	"s4dcache/internal/dmt"
	"s4dcache/internal/mpiio"
	"s4dcache/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "ablation-admission",
		Title: "Selective admission vs cache-everything vs stock",
		Run:   runAblationAdmission,
	})
	register(Experiment{
		ID:    "ablation-policy",
		Title: "Benefit-model admission vs temporal-locality (Hystor-style) admission",
		Run:   runAblationPolicy,
	})
	register(Experiment{
		ID:    "ablation-lazy",
		Title: "Lazy (Rebuilder) vs eager (request-path) read caching",
		Run:   runAblationLazy,
	})
	register(Experiment{
		ID:    "ablation-dmtsync",
		Title: "Synchronous DMT persistence I/O cost on vs off",
		Run:   runAblationDMTSync,
	})
	register(Experiment{
		ID:    "ablation-rebuild",
		Title: "Rebuilder period sweep",
		Run:   runAblationRebuild,
	})
	register(Experiment{
		ID:    "ablation-tableii",
		Title: "Exact stripe math vs the paper's Table II formulas",
		Run:   runAblationTableII,
	})
	register(Experiment{
		ID:    "ablation-collective",
		Title: "Middleware I/O methods (List I/O, data sieving, two-phase collective) with and without S4D",
		Run:   runAblationCollective,
	})
}

// runAblationAdmission quantifies the value of selectivity: caching
// everything funnels large sequential traffic through the (fewer, slower
// in aggregate) CServers, while the benefit-model admission only absorbs
// the requests that pay off — the design DESIGN.md calls out.
func runAblationAdmission(cfg Config) (*Table, error) {
	mix := workload.PaperMixedIOR(cfg.Ranks, 16<<10, cfg.Scale)
	t := &Table{
		ID:      "ablation-admission",
		Title:   "Mixed IOR 16KB write throughput by admission policy",
		Columns: []string{"policy", "MB/s", "vs stock"},
	}
	policies := []struct {
		name   string
		policy core.AdmissionPolicy
	}{
		{"selective (paper)", core.PolicyBenefit},
		{"cache everything", core.PolicyAll},
	}
	// Cell 0 is the stock baseline; the "vs stock" column needs it, so
	// rows are assembled after all cells return.
	cells := []Cell[float64]{{
		Label: "ablation-admission/stock",
		Run: func() (float64, error) {
			stock, err := cluster.NewStock(cluster.Default())
			if err != nil {
				return 0, err
			}
			res, err := runPhases(stock, cfg.Ranks, mixedWrite(mix))
			if err != nil {
				return 0, err
			}
			return res[0].ThroughputMBps(), nil
		},
	}}
	for _, pol := range policies {
		pol := pol
		cells = append(cells, Cell[float64]{
			Label: "ablation-admission/" + pol.name,
			Run: func() (float64, error) {
				params := cluster.Default()
				params.CacheCapacity = mix.DataSize() / 5
				params.Policy = pol.policy
				tb, err := cluster.NewS4D(params)
				if err != nil {
					return 0, err
				}
				res, err := runPhases(tb, cfg.Ranks, mixedWrite(mix))
				if err != nil {
					return 0, err
				}
				return res[0].ThroughputMBps(), nil
			},
		})
	}
	res, err := RunCells(cfg.Parallel, cells)
	if err != nil {
		return nil, err
	}
	base := res[0]
	t.AddRow("stock (no cache)", mbps(base), "+0.0%")
	for i, pol := range policies {
		t.AddRow(pol.name, mbps(res[i+1]), pct(res[i+1], base))
	}
	t.AddNote("selectivity is the paper's core claim: cache-everything saturates the small CServer set")
	return t, nil
}

// runAblationPolicy contrasts the paper's randomness-driven admission
// with the conventional locality-driven criterion (second touch of a
// region — Hystor-style, paper [15]). Random one-touch requests — the
// HDD killers — exhibit no temporal locality, so the locality policy
// leaves most of them on the DServers.
func runAblationPolicy(cfg Config) (*Table, error) {
	mix := scaledMixed(cfg, 16<<10)
	t := &Table{
		ID:      "ablation-policy",
		Title:   "Mixed IOR 16KB write throughput by admission criterion",
		Columns: []string{"criterion", "MB/s", "vs stock", "cache write share"},
	}
	type polResult struct {
		mbs   float64
		share float64
	}
	policies := []struct {
		name   string
		policy core.AdmissionPolicy
	}{
		{"randomness/benefit (paper)", core.PolicyBenefit},
		{"temporal locality (Hystor-style)", core.PolicyLocality},
	}
	cells := []Cell[polResult]{{
		Label: "ablation-policy/stock",
		Run: func() (polResult, error) {
			stock, err := cluster.NewStock(cluster.Default())
			if err != nil {
				return polResult{}, err
			}
			res, err := runPhases(stock, cfg.Ranks, mixedWrite(mix))
			if err != nil {
				return polResult{}, err
			}
			return polResult{mbs: res[0].ThroughputMBps()}, nil
		},
	}}
	for _, pol := range policies {
		pol := pol
		cells = append(cells, Cell[polResult]{
			Label: "ablation-policy/" + pol.name,
			Run: func() (polResult, error) {
				params := cluster.Default()
				params.CacheCapacity = mix.DataSize() / 5
				params.Policy = pol.policy
				tb, err := cluster.NewS4D(params)
				if err != nil {
					return polResult{}, err
				}
				res, err := runPhases(tb, cfg.Ranks, mixedWrite(mix))
				if err != nil {
					return polResult{}, err
				}
				return polResult{
					mbs:   res[0].ThroughputMBps(),
					share: tb.S4D.Stats().CacheWriteShare(),
				}, nil
			},
		})
	}
	res, err := RunCells(cfg.Parallel, cells)
	if err != nil {
		return nil, err
	}
	base := res[0].mbs
	t.AddRow("stock (no cache)", mbps(base), "+0.0%", "0.00")
	for i, pol := range policies {
		r := res[i+1]
		t.AddRow(pol.name, mbps(r.mbs), pct(r.mbs, base), fmt.Sprintf("%.2f", r.share))
	}
	t.AddNote("one-touch random requests have no temporal locality; only the benefit model catches them (paper §I)")
	return t, nil
}

// runAblationLazy compares the paper's lazy read caching (C_flag + the
// Rebuilder) against eager request-path caching: lazy keeps first-run read
// latency low at the cost of needing a rebuild pass before reads benefit.
func runAblationLazy(cfg Config) (*Table, error) {
	fileSize := int64(float64(2<<30) * cfg.Scale)
	ior := workload.IORConfig{
		Ranks: cfg.Ranks, FileSize: fileSize, RequestSize: 16 << 10,
		Random: true, Seed: 17,
	}
	seed := workload.IORConfig{Ranks: cfg.Ranks, FileSize: fileSize, RequestSize: 1 << 20}
	t := &Table{
		ID:      "ablation-lazy",
		Title:   "Random 16KB reads: first and second run by fetch mode",
		Columns: []string{"mode", "run1 MB/s", "run2 MB/s"},
	}
	modes := []struct {
		name  string
		eager bool
	}{{"lazy (paper)", false}, {"eager", true}}
	cells := make([]Cell[[]string], 0, len(modes))
	for _, mode := range modes {
		mode := mode
		cells = append(cells, Cell[[]string]{
			Label: "ablation-lazy/" + mode.name,
			Run: func() ([]string, error) {
				params := cluster.Default()
				// The cache holds the whole read working set, isolating the
				// fetch-mode contrast from capacity thrashing.
				params.CacheCapacity = fileSize * 2
				params.EagerFetch = mode.eager
				tb, err := cluster.NewS4D(params)
				if err != nil {
					return nil, err
				}
				seedPhase := func(comm *mpiio.Comm, done func(workload.Result)) error {
					return workload.RunIOR(comm, seed, true, done)
				}
				readPhase := func(comm *mpiio.Comm, done func(workload.Result)) error {
					return workload.RunIOR(comm, ior, false, done)
				}
				res, err := runPhases(tb, cfg.Ranks, seedPhase, nil, readPhase, nil, readPhase)
				if err != nil {
					return nil, err
				}
				return []string{mode.name, mbps(res[2].ThroughputMBps()), mbps(res[4].ThroughputMBps())}, nil
			},
		})
	}
	rows, err := RunCells(cfg.Parallel, cells)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.AddNote("lazy defers population to the Rebuilder (paper §III.E: reduces read response time)")
	return t, nil
}

// runAblationDMTSync measures the throughput cost of charging every DMT
// commit as synchronous CServer I/O (paper §III.D requires synchronous
// persistence).
func runAblationDMTSync(cfg Config) (*Table, error) {
	mix := workload.PaperMixedIOR(cfg.Ranks, 16<<10, cfg.Scale)
	t := &Table{
		ID:      "ablation-dmtsync",
		Title:   "Mixed IOR 16KB write throughput vs DMT persistence charging",
		Columns: []string{"dmt persistence", "MB/s"},
	}
	modes := []struct {
		name   string
		charge bool
	}{{"uncharged (memory only)", false}, {"synchronous to CServers", true}}
	cells := make([]Cell[[]string], 0, len(modes))
	for _, mode := range modes {
		mode := mode
		cells = append(cells, Cell[[]string]{
			Label: "ablation-dmtsync/" + mode.name,
			Run: func() ([]string, error) {
				params := cluster.Default()
				params.CacheCapacity = mix.DataSize() / 5
				params.PersistMeta = true
				params.ChargeMetaIO = mode.charge
				tb, err := cluster.NewS4D(params)
				if err != nil {
					return nil, err
				}
				res, err := runPhases(tb, cfg.Ranks, mixedWrite(mix))
				if err != nil {
					return nil, err
				}
				return []string{mode.name, mbps(res[0].ThroughputMBps())}, nil
			},
		})
	}
	rows, err := RunCells(cfg.Parallel, cells)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.AddNote("metadata writes are %d bytes per mapping change; the cost stays small", dmt.EntryBytes)
	return t, nil
}

// runAblationRebuild sweeps the Rebuilder period: too slow and the cache
// fills with dirty data (admission failures); too fast and reorganization
// I/O competes with the application even at low priority.
func runAblationRebuild(cfg Config) (*Table, error) {
	mix := workload.PaperMixedIOR(cfg.Ranks, 16<<10, cfg.Scale)
	t := &Table{
		ID:      "ablation-rebuild",
		Title:   "Mixed IOR 16KB write throughput vs Rebuilder period",
		Columns: []string{"period", "MB/s", "admit failures"},
	}
	periods := []time.Duration{
		50 * time.Millisecond, 250 * time.Millisecond, time.Second, 4 * time.Second,
	}
	cells := make([]Cell[[]string], 0, len(periods))
	for _, period := range periods {
		period := period
		cells = append(cells, Cell[[]string]{
			Label: "ablation-rebuild/" + period.String(),
			Run: func() ([]string, error) {
				params := cluster.Default()
				params.CacheCapacity = mix.DataSize() / 10 // tighter cache stresses reclaim
				params.RebuildPeriod = period
				tb, err := cluster.NewS4D(params)
				if err != nil {
					return nil, err
				}
				res, err := runPhases(tb, cfg.Ranks, mixedWrite(mix))
				if err != nil {
					return nil, err
				}
				return []string{period.String(), mbps(res[0].ThroughputMBps()),
					fmt.Sprintf("%d", tb.S4D.Stats().AdmitFailures)}, nil
			},
		})
	}
	rows, err := RunCells(cfg.Parallel, cells)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.AddNote("a stalled Rebuilder starves admission; paper §III.F triggers it periodically")
	return t, nil
}

// runAblationCollective crosses the classic middleware optimizations the
// paper's §II.A discusses (List I/O [19], data sieving [6], two-phase
// collective I/O [6]) with S4D-Cache, on the MPI-Tile-IO pattern. The
// paper's claim: "S4D-Cache can use not only these techniques for its
// underlying parallel file systems but also utilize SSDs'
// characteristics" — S4D helps most where requests stay small and
// noncontiguous (List I/O) and least where the middleware already merges
// them into large sequential runs (collective).
func runAblationCollective(cfg Config) (*Table, error) {
	tile := workload.TileIOConfig{
		Ranks: cfg.Ranks * 4, ElementsX: 10, ElementsY: 10, ElementSize: 8 << 10,
	}
	dataSize := int64(tile.Ranks) * 100 * tile.ElementSize
	t := &Table{
		ID:      "ablation-collective",
		Title:   "MPI-Tile-IO write throughput by I/O method",
		Columns: []string{"method", "stock MB/s", "s4d MB/s", "gain"},
	}
	methods := []struct {
		name string
		run  func(tb *cluster.Testbed) (workload.Result, error)
	}{
		{"list I/O (independent)", func(tb *cluster.Testbed) (workload.Result, error) {
			comm, err := tb.Comm(tile.Ranks)
			if err != nil {
				return workload.Result{}, err
			}
			var res workload.Result
			finished := false
			if err := workload.RunTileIO(comm, tile, true, func(r workload.Result) { res = r; finished = true }); err != nil {
				return workload.Result{}, err
			}
			tb.Eng.RunWhile(func() bool { return !finished })
			return res, nil
		}},
		{"data sieving", func(tb *cluster.Testbed) (workload.Result, error) {
			comm, err := tb.Comm(tile.Ranks)
			if err != nil {
				return workload.Result{}, err
			}
			f := comm.Open("tile.dat")
			start := tb.Eng.Now()
			remaining := tile.Ranks
			for r := 0; r < tile.Ranks; r++ {
				if err := f.SetView(r, tile.View(r)); err != nil {
					return workload.Result{}, err
				}
				if err := f.WriteStrided(r, int64(tile.ElementsY), func(error) { remaining-- }); err != nil {
					return workload.Result{}, err
				}
			}
			tb.Eng.RunWhile(func() bool { return remaining > 0 })
			return workload.Result{Bytes: dataSize, Start: start, End: tb.Eng.Now()}, nil
		}},
		{"two-phase collective", func(tb *cluster.Testbed) (workload.Result, error) {
			comm, err := tb.Comm(tile.Ranks)
			if err != nil {
				return workload.Result{}, err
			}
			f := comm.Open("tile.dat")
			perRank, err := tile.Spans()
			if err != nil {
				return workload.Result{}, err
			}
			start := tb.Eng.Now()
			finished := false
			err = f.CollectiveWrite(perRank, mpiio.CollectiveConfig{
				Aggregators: tile.Ranks / 4, Shuffle: tb.Params.Net,
			}, func(error) { finished = true })
			if err != nil {
				return workload.Result{}, err
			}
			tb.Eng.RunWhile(func() bool { return !finished })
			return workload.Result{Bytes: dataSize, Start: start, End: tb.Eng.Now()}, nil
		}},
	}
	var cells []Cell[float64]
	for _, m := range methods {
		m := m
		for _, s4d := range []bool{false, true} {
			s4d := s4d
			sys := "stock"
			if s4d {
				sys = "s4d"
			}
			cells = append(cells, Cell[float64]{
				Label: fmt.Sprintf("ablation-collective/%s/%s", m.name, sys),
				Run: func() (float64, error) {
					var tb *cluster.Testbed
					var err error
					if s4d {
						params := cluster.Default()
						params.CacheCapacity = dataSize / 5
						tb, err = cluster.NewS4D(params)
					} else {
						tb, err = cluster.NewStock(cluster.Default())
					}
					if err != nil {
						return 0, err
					}
					res, err := m.run(tb)
					if err != nil {
						return 0, err
					}
					tb.Close()
					return res.ThroughputMBps(), nil
				},
			})
		}
	}
	res, err := RunCells(cfg.Parallel, cells)
	if err != nil {
		return nil, err
	}
	for i, m := range methods {
		stock, s4d := res[2*i], res[2*i+1]
		t.AddRow(m.name, mbps(stock), mbps(s4d), pct(s4d, stock))
	}
	t.AddNote("S4D complements the middleware: the less the method merges, the more the cache helps (§II.A)")
	return t, nil
}

// runAblationTableII compares admission behaviour between the exact stripe
// math and the paper's published Table II formulas (which overestimate s_m
// by up to one stripe at aligned request ends).
func runAblationTableII(cfg Config) (*Table, error) {
	mix := workload.PaperMixedIOR(cfg.Ranks, 64<<10, cfg.Scale) // stripe-aligned requests
	t := &Table{
		ID:      "ablation-tableii",
		Title:   "Mixed IOR 64KB (stripe-aligned) by s_m formula",
		Columns: []string{"formula", "MB/s", "cache write share"},
	}
	modes := []struct {
		name  string
		paper bool
	}{{"exact stripe walk", false}, {"paper Table II", true}}
	cells := make([]Cell[[]string], 0, len(modes))
	for _, mode := range modes {
		mode := mode
		cells = append(cells, Cell[[]string]{
			Label: "ablation-tableii/" + mode.name,
			Run: func() ([]string, error) {
				params := cluster.Default()
				params.CacheCapacity = mix.DataSize() / 5
				params.PaperTableII = mode.paper
				tb, err := cluster.NewS4D(params)
				if err != nil {
					return nil, err
				}
				res, err := runPhases(tb, cfg.Ranks, mixedWrite(mix))
				if err != nil {
					return nil, err
				}
				return []string{mode.name, mbps(res[0].ThroughputMBps()),
					fmt.Sprintf("%.2f", tb.S4D.Stats().CacheWriteShare())}, nil
			},
		})
	}
	rows, err := RunCells(cfg.Parallel, cells)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.AddNote("the formulas differ only when requests end exactly on stripe boundaries")
	return t, nil
}
