// Package bench regenerates every table and figure of the paper's
// evaluation (§V) plus the ablations listed in DESIGN.md. Each experiment
// builds fresh testbeds, drives the corresponding workload, and reports a
// text table with the same rows/series the paper plots.
//
// Experiments run at a configurable scale: Quick (default) preserves every
// ratio of the paper's setup (request:stripe:file:cache) at roughly 1/250
// of the data volume so the whole suite finishes in seconds; Paper uses
// the published absolute sizes.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"s4dcache/internal/cluster"
	"s4dcache/internal/faults"
	"s4dcache/internal/mpiio"
	"s4dcache/internal/workload"
)

// Config scales the experiments.
type Config struct {
	// Scale multiplies the paper's file sizes (1.0 = published sizes).
	Scale float64
	// Ranks is the base process count (the paper's default is 32).
	Ranks int
	// Parallel bounds how many experiment cells (independent
	// testbed+workload units) simulate concurrently; <= 0 means
	// GOMAXPROCS. Tables come out identical for any setting — cells are
	// reassembled in deterministic order.
	Parallel int
	// FaultPlan overrides the "faults" experiment's injected-failure
	// schedule (see internal/faults); the zero value uses
	// DefaultFaultPlan. The hitrate experiments also honor a non-empty
	// plan (every policy row runs under the same injected faults); all
	// other experiments always run fault-free.
	FaultPlan faults.Plan
	// FaultSeed derives the fault plan's random streams; 0 means 1.
	FaultSeed int64
}

// Quick returns the fast configuration used by default: ~1/250 of the
// paper's data volume, 4 processes.
func Quick() Config { return Config{Scale: 0.004, Ranks: 4} }

// Paper returns the published configuration: full sizes, 32 processes.
func Paper() Config { return Config{Scale: 1.0, Ranks: 32} }

// Table is one regenerated table or figure.
type Table struct {
	// ID is the experiment identifier ("fig6", "table4", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Columns are the column headers.
	Columns []string
	// Rows are the data rows.
	Rows [][]string
	// Notes carry per-experiment commentary (paper values, protocol).
	Notes []string
}

// AddRow appends a data row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a commentary line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is one runnable table/figure regeneration.
type Experiment struct {
	// ID matches the DESIGN.md experiment index.
	ID string
	// Title describes what is reproduced.
	Title string
	// Run executes the experiment.
	Run func(cfg Config) (*Table, error)
}

var registry []Experiment

// canonicalOrder lists experiments in presentation order: the paper's
// tables and figures first (in publication order), then the ablations.
var canonicalOrder = []string{
	"fig1", "fig6", "table3", "fig7", "table4", "fig8", "fig9", "fig10",
	"fig11", "meta",
	"ablation-admission", "ablation-policy", "ablation-lazy", "ablation-dmtsync",
	"ablation-rebuild", "ablation-tableii", "ablation-collective",
	"ext-memcache", "faults",
	"hitrate", "hitrate-shift", "recovery",
}

func register(e Experiment) { registry = append(registry, e) }

// All returns every registered experiment in canonical (publication)
// order; experiments without a canonical position sort last by id.
func All() []Experiment {
	rank := make(map[string]int, len(canonicalOrder))
	for i, id := range canonicalOrder {
		rank[id] = i
	}
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool {
		ri, iOK := rank[out[i].ID]
		rj, jOK := rank[out[j].ID]
		switch {
		case iOK && jOK:
			return ri < rj
		case iOK:
			return true
		case jOK:
			return false
		default:
			return out[i].ID < out[j].ID
		}
	})
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// phase is one workload phase on a communicator; it must eventually call
// done exactly once (in virtual time).
type phase func(comm *mpiio.Comm, done func(workload.Result)) error

// runPhases executes phases sequentially on one testbed and returns their
// results. A nil phase drains the Rebuilder instead of running I/O.
func runPhases(tb *cluster.Testbed, ranks int, phases ...phase) ([]workload.Result, error) {
	comm, err := tb.Comm(ranks)
	if err != nil {
		return nil, err
	}
	results := make([]workload.Result, 0, len(phases))
	for _, ph := range phases {
		finished := false
		var res workload.Result
		if ph == nil {
			if tb.S4D == nil {
				finished = true
			} else {
				tb.S4D.DrainRebuild(func() { finished = true })
			}
		} else {
			if err := ph(comm, func(r workload.Result) { res = r; finished = true }); err != nil {
				return nil, err
			}
		}
		tb.Eng.RunWhile(func() bool { return !finished })
		if !finished {
			return nil, fmt.Errorf("bench: phase did not complete (event queue drained)")
		}
		results = append(results, res)
	}
	tb.Close()
	return results, nil
}

// mixedWrite returns a phase running the §V.B mixed IOR write pass.
func mixedWrite(cfg workload.MixedIORConfig) phase {
	return func(comm *mpiio.Comm, done func(workload.Result)) error {
		return workload.RunMixed(comm, cfg, true, done)
	}
}

// mixedRead returns a phase running the mixed IOR read pass.
func mixedRead(cfg workload.MixedIORConfig) phase {
	return func(comm *mpiio.Comm, done func(workload.Result)) error {
		return workload.RunMixed(comm, cfg, false, done)
	}
}

func pct(s4d, stock float64) string {
	if stock <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (s4d/stock-1)*100)
}

func mbps(v float64) string { return fmt.Sprintf("%.1f", v) }

func kb(v int64) string {
	switch {
	case v >= 1<<20:
		return fmt.Sprintf("%dMB", v>>20)
	case v >= 1<<10:
		return fmt.Sprintf("%dKB", v>>10)
	default:
		return fmt.Sprintf("%dB", v)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
