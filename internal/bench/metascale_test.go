package bench

import (
	"math"
	"testing"
)

// TestMetaScaleSmoke is the CI-reduced metascale sweep (ISSUE: 50k files,
// tight budget): the budget rows must actually enforce their fraction of
// the unbounded resident bytes, spill and fault in, still answer every
// lookup correctly — and the tightest row (well under the acceptance's
// "budget <= 25%") must come out >= 3x smaller per extent than the
// pre-PR representation the legacy row rebuilds.
func TestMetaScaleSmoke(t *testing.T) {
	files := 50_000
	lookups := 10_000
	if testing.Short() {
		files, lookups = 10_000, 4_000
	}
	msc := MetaScaleConfig{
		Files:          []int{files},
		ExtentsPerFile: 8,
		BudgetFracs:    []float64{0.25, 0.10},
		Lookups:        lookups,
	}
	rows, err := collectMetaScale(msc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 (legacy, unbounded, 25%%, 10%%)", len(rows))
	}
	legacy, unbounded := rows[0], rows[1]
	if legacy.Repr != "legacy" || unbounded.Repr != "packed" {
		t.Fatalf("row order: %s/%s", legacy.Repr, unbounded.Repr)
	}
	wantExt := files * msc.ExtentsPerFile
	for _, r := range rows {
		if r.Extents != wantExt {
			t.Fatalf("%s row holds %d extents, want %d", r.Repr, r.Extents, wantExt)
		}
		if r.LookupHits != uint64(lookups) {
			t.Fatalf("%s row: %d/%d lookups hit", r.Repr, r.LookupHits, lookups)
		}
	}
	// The methodology cross-check: the unbounded packed row's accounting
	// (slab + file state + arena) must agree with its forced-GC
	// heap delta — that agreement is what lets the budget rows report
	// accounting while their heap deltas carry the in-memory spill store.
	if legacy.HeapPerExtent <= 0 || unbounded.HeapPerExtent <= 0 {
		t.Fatalf("heap accounting missing: legacy %.1f packed %.1f", legacy.HeapPerExtent, unbounded.HeapPerExtent)
	}
	if err := math.Abs(unbounded.ResidentPerExtent-unbounded.HeapPerExtent) / unbounded.HeapPerExtent; err > 0.15 {
		t.Fatalf("packed accounting %.1f B/ext disagrees with measured heap %.1f B/ext by %.0f%%",
			unbounded.ResidentPerExtent, unbounded.HeapPerExtent, err*100)
	}
	// Every budget row must enforce its budget with real spill traffic.
	for _, r := range rows[2:] {
		if r.BudgetBytes <= 0 || r.ResidentBytes > r.BudgetBytes {
			t.Fatalf("budget %.0f%% row: resident %d > budget %d", r.BudgetFrac*100, r.ResidentBytes, r.BudgetBytes)
		}
		if frac := float64(r.ResidentBytes) / float64(unbounded.ResidentBytes); frac > r.BudgetFrac+0.01 {
			t.Fatalf("budget %.0f%% row resident = %.1f%% of unbounded", r.BudgetFrac*100, frac*100)
		}
		if r.Spills == 0 || r.SpilledFiles == 0 {
			t.Fatalf("budget %.0f%% row never spilled: %+v", r.BudgetFrac*100, r)
		}
		if r.FaultIns == 0 || r.FaultInRate <= 0 {
			t.Fatalf("budget %.0f%% row never faulted in: %+v", r.BudgetFrac*100, r)
		}
	}
	// The acceptance floor: under a resident budget at or below 25% of
	// the unbounded bytes, resident bytes per mapped extent at least 3x
	// better than the pre-PR representation (interval maps + entry-copy
	// epoch views), everything resident there. Fixed-granularity costs —
	// 160 KiB slab chunks, 64 KiB arena chunks — need the full 50k-file
	// cell to amortize, so the short run keeps only the enforcement
	// checks above.
	if testing.Short() {
		return
	}
	tight := rows[len(rows)-1]
	if ratio := legacy.ResidentPerExtent / tight.ResidentPerExtent; ratio < 3 {
		t.Fatalf("budgeted packed is only %.2fx smaller than legacy (legacy %.1f B/ext, packed@%.0f%% %.1f B/ext), want >= 3x",
			ratio, legacy.ResidentPerExtent, tight.BudgetFrac*100, tight.ResidentPerExtent)
	}
}

// TestMetaScaleEngineCells checks the full-testbed arm: a 25%-budget
// engine serves the exact same hit rate as the unbounded one — the
// budget moves metadata, never correctness — while actually faulting
// spilled records back in on the read path.
func TestMetaScaleEngineCells(t *testing.T) {
	rows, err := collectMetaEngine(600, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("engine rows = %d, want 2", len(rows))
	}
	base, tight := rows[0], rows[1]
	if base.HitRate <= 0 {
		t.Fatalf("unbounded engine cell never hit the cache: %+v", base)
	}
	if tight.HitRateDelta != 0 {
		t.Fatalf("budget changed the hit rate by %+.4f (unbounded %.4f, tight %.4f)",
			tight.HitRateDelta, base.HitRate, tight.HitRate)
	}
	if tight.MetaSpills == 0 || tight.MetaFaultIns == 0 {
		t.Fatalf("tight engine cell never exercised spill: %+v", tight)
	}
	if tight.MetaResidentBytes > base.MetaResidentBytes/4 {
		t.Fatalf("tight engine resident %d over its %d budget", tight.MetaResidentBytes, base.MetaResidentBytes/4)
	}
}

// TestMetaScaleExperimentDeterministic pins the suite table: the
// accounting-only metascale experiment must render byte-identically at
// every -parallel setting, and identically again under an injected-fault
// serve plan — the accounting cells never touch the faulted serve path.
func TestMetaScaleExperimentDeterministic(t *testing.T) {
	clean := identicalAcrossParallel(t, "metascale", tiny())
	e, _ := ByID("metascale")
	tbl, err := e.Run(faultyTiny(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.String(); got != clean {
		t.Fatalf("metascale table changed under a fault plan:\n--- clean ---\n%s--- faulty ---\n%s", clean, got)
	}
}
