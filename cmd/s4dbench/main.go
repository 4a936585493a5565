// Command s4dbench regenerates the paper's tables and figures (and the
// DESIGN.md ablations) on the simulated testbed.
//
// Usage:
//
//	s4dbench [-exp id[,id...]] [-scale f] [-ranks n] [-parallel n] [-full] [-list]
//	         [-faults plan] [-fault-seed n]
//	         [-bench-metascale file] [-meta-files list] [-meta-extents n] [-meta-lookups n]
//	         [-cpuprofile file] [-memprofile file] [-trace file]
//	         [-mutexprofile file] [-blockprofile file]
//
// By default every experiment runs at the quick scale (~1/250 of the
// paper's data volume, all ratios preserved). -full uses the published
// sizes and process counts; expect a long runtime.
//
// -faults injects a deterministic failure schedule (transient I/O
// errors, CServer crash/restart, see internal/faults for the plan
// syntax) and emits the availability/degradation table; with no explicit
// -exp it runs just that experiment. -fault-seed varies the random
// streams the plan draws from. The table is byte-identical for a given
// (plan, seed) at every -parallel setting.
//
// -bench-metascale runs the metadata-at-scale family (legacy vs packed
// bytes/extent, the resident-budget sweep) and writes its JSON report.
// The profiling flags capture pprof CPU/heap/mutex/blocking profiles and
// a runtime trace of whatever the invocation runs.
//
// Wall-clock performance is measured by the repository benchmark
// (s4dperf/README.md), not by this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"s4dcache/internal/bench"
	"s4dcache/internal/faults"
	"s4dcache/internal/profiling"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		expFlag     = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		scale       = flag.Float64("scale", 0, "file-size scale factor (0 = quick default)")
		ranks       = flag.Int("ranks", 0, "base process count (0 = scale default)")
		parallel    = flag.Int("parallel", 0, "experiment cells simulated concurrently (0 = GOMAXPROCS)")
		full        = flag.Bool("full", false, "use the paper's published sizes (slow)")
		listOnly    = flag.Bool("list", false, "list experiment ids and exit")
		faultPlan   = flag.String("faults", "", "fault-injection plan for the 'faults' experiment (see internal/faults)")
		faultSeed   = flag.Int64("fault-seed", 1, "seed for the fault plan's random streams")
		benchMeta   = flag.String("bench-metascale", "", "run the metadata-at-scale family (100k/1M files, resident-budget sweep) and write its JSON report to this file")
		metaFiles   = flag.String("meta-files", "100000,1000000", "distinct-file counts for -bench-metascale")
		metaExtents = flag.Int("meta-extents", 8, "mapped extents per file for -bench-metascale")
		metaLookups = flag.Int("meta-lookups", 200000, "random lookups per -bench-metascale cell")
		cpuProf     = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf     = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
		tracePath   = flag.String("trace", "", "write a runtime execution trace to this file")
		mutexProf   = flag.String("mutexprofile", "", "write a pprof mutex-contention profile to this file at exit")
		blockProf   = flag.String("blockprofile", "", "write a pprof goroutine-blocking profile to this file at exit")
	)
	flag.Parse()

	if *listOnly {
		for _, e := range bench.All() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		return 0
	}

	stopProf, err := profiling.Config{
		CPUProfile:   *cpuProf,
		MemProfile:   *memProf,
		Trace:        *tracePath,
		MutexProfile: *mutexProf,
		BlockProfile: *blockProf,
	}.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "s4dbench: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "s4dbench: %v\n", err)
		}
	}()

	cfg := bench.Quick()
	if *full {
		cfg = bench.Paper()
	}
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *ranks > 0 {
		cfg.Ranks = *ranks
	}
	cfg.Parallel = *parallel
	cfg.FaultSeed = *faultSeed
	if *faultPlan != "" {
		plan, err := faults.Parse(*faultPlan)
		if err != nil {
			fmt.Fprintf(os.Stderr, "s4dbench: -faults: %v\n", err)
			return 2
		}
		cfg.FaultPlan = plan
		if *expFlag == "all" {
			// A plan was given but no experiment selection: run the fault
			// experiment it parameterizes.
			*expFlag = "faults"
		}
	}

	if *benchMeta != "" {
		var files []int
		for _, s := range strings.Split(*metaFiles, ",") {
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &n); err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "s4dbench: -meta-files: bad count %q\n", s)
				return 2
			}
			files = append(files, n)
		}
		f, err := os.Create(*benchMeta)
		if err != nil {
			fmt.Fprintf(os.Stderr, "s4dbench: %v\n", err)
			return 1
		}
		msc := bench.DefaultMetaScale()
		msc.Files = files
		if *metaExtents > 0 {
			msc.ExtentsPerFile = *metaExtents
		}
		if *metaLookups > 0 {
			msc.Lookups = *metaLookups
		}
		if err := bench.EmitMetaScaleJSON(f, msc, os.Stderr); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "s4dbench: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "s4dbench: %v\n", err)
			return 1
		}
		fmt.Printf("s4dbench: wrote %s\n", *benchMeta)
		return 0
	}

	var selected []bench.Experiment
	if *expFlag == "all" {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(id)
			e, ok := bench.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "s4dbench: unknown experiment %q (try -list)\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	}

	fmt.Printf("s4dbench: scale=%.4g ranks=%d experiments=%d\n\n", cfg.Scale, cfg.Ranks, len(selected))
	for _, e := range selected {
		start := time.Now()
		table, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "s4dbench: %s: %v\n", e.ID, err)
			return 1
		}
		fmt.Println(table.String())
		fmt.Printf("(%s finished in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
