package workload

import (
	"testing"

	"s4dcache/internal/cluster"
	"s4dcache/internal/mpiio"
)

func stockComm(t *testing.T, ranks int) *mpiio.Comm {
	t.Helper()
	p := cluster.Default()
	tb, err := cluster.NewStock(p)
	if err != nil {
		t.Fatal(err)
	}
	comm, err := tb.Comm(ranks)
	if err != nil {
		t.Fatal(err)
	}
	return comm
}

func TestIORValidate(t *testing.T) {
	good := IORConfig{Ranks: 4, FileSize: 1 << 20, RequestSize: 16 << 10}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []IORConfig{
		{Ranks: 0, FileSize: 1 << 20, RequestSize: 16 << 10},
		{Ranks: 4, FileSize: 0, RequestSize: 16 << 10},
		{Ranks: 4, FileSize: 1 << 20, RequestSize: 0},
		{Ranks: 4, FileSize: 32 << 10, RequestSize: 16 << 10}, // segment < request
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("config %+v accepted", bad)
		}
	}
}

func TestIORSequentialSpans(t *testing.T) {
	cfg := IORConfig{Ranks: 2, FileSize: 1 << 20, RequestSize: 128 << 10}
	spans, err := cfg.Spans()
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("ranks = %d", len(spans))
	}
	// Each rank: 512KB segment / 128KB = 4 requests, sequential.
	for r, s := range spans {
		if len(s) != 4 {
			t.Fatalf("rank %d has %d spans", r, len(s))
		}
		base := int64(r) * 512 << 10
		for i, sp := range s {
			if sp.Off != base+int64(i)*128<<10 || sp.Len != 128<<10 {
				t.Fatalf("rank %d span %d = %+v", r, i, sp)
			}
		}
	}
}

func TestIORRandomSpansStayInSegment(t *testing.T) {
	cfg := IORConfig{Ranks: 4, FileSize: 4 << 20, RequestSize: 16 << 10, Random: true, Seed: 7}
	spans, err := cfg.Spans()
	if err != nil {
		t.Fatal(err)
	}
	seg := int64(1 << 20)
	distinct := 0
	for r, s := range spans {
		lo, hi := int64(r)*seg, int64(r+1)*seg
		prev := int64(-1)
		for _, sp := range s {
			if sp.Off < lo || sp.Off+sp.Len > hi {
				t.Fatalf("rank %d span %+v escapes segment [%d,%d)", r, sp, lo, hi)
			}
			if sp.Off%cfg.RequestSize != 0 {
				t.Fatalf("unaligned random offset %d", sp.Off)
			}
			if sp.Off != prev+cfg.RequestSize {
				distinct++
			}
			prev = sp.Off
		}
	}
	if distinct == 0 {
		t.Fatal("random spans look sequential")
	}
	// Determinism.
	again, _ := cfg.Spans()
	for r := range spans {
		for i := range spans[r] {
			if spans[r][i] != again[r][i] {
				t.Fatal("random spans not deterministic")
			}
		}
	}
}

func TestRunIOREndToEnd(t *testing.T) {
	comm := stockComm(t, 4)
	cfg := IORConfig{Ranks: 4, FileSize: 8 << 20, RequestSize: 256 << 10}
	var res Result
	if err := RunIOR(comm, cfg, true, func(r Result) { res = r }); err != nil {
		t.Fatal(err)
	}
	comm.Engine().Run()
	if res.Bytes != 8<<20 {
		t.Fatalf("moved %d bytes, want 8MB", res.Bytes)
	}
	if res.Requests != 32 {
		t.Fatalf("issued %d requests, want 32", res.Requests)
	}
	if res.Elapsed() <= 0 {
		t.Fatal("elapsed time not positive")
	}
	if res.ThroughputMBps() <= 0 {
		t.Fatal("throughput not positive")
	}
}

func TestRunEmptyStreams(t *testing.T) {
	comm := stockComm(t, 2)
	f := comm.Open("x")
	called := false
	if err := Run(f, [][]mpiio.Span{nil, nil}, true, func(Result) { called = true }); err != nil {
		t.Fatal(err)
	}
	comm.Engine().Run()
	if !called {
		t.Fatal("empty run never completed")
	}
}

func TestHPIOValidateAndSpans(t *testing.T) {
	if err := (HPIOConfig{Ranks: 0, RegionCount: 1, RegionSize: 1}).Validate(); err == nil {
		t.Fatal("zero ranks accepted")
	}
	if err := (HPIOConfig{Ranks: 1, RegionCount: 1, RegionSize: 1, RegionSpacing: -1}).Validate(); err == nil {
		t.Fatal("negative spacing accepted")
	}
	cfg := HPIOConfig{Ranks: 2, RegionCount: 3, RegionSize: 100, RegionSpacing: 20}
	spans, err := cfg.Spans()
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0: offsets 0, 240, 480; rank 1: 120, 360, 600.
	want0 := []int64{0, 240, 480}
	want1 := []int64{120, 360, 600}
	for i := range want0 {
		if spans[0][i].Off != want0[i] || spans[1][i].Off != want1[i] {
			t.Fatalf("spans = %+v / %+v", spans[0], spans[1])
		}
		if spans[0][i].Len != 100 {
			t.Fatalf("region size = %d", spans[0][i].Len)
		}
	}
}

func TestHPIOZeroSpacingIsContiguous(t *testing.T) {
	cfg := HPIOConfig{Ranks: 2, RegionCount: 2, RegionSize: 100}
	spans, _ := cfg.Spans()
	// With spacing 0 the union of all ranks' regions tiles the file.
	seen := map[int64]bool{}
	for _, s := range spans {
		for _, sp := range s {
			seen[sp.Off] = true
		}
	}
	for off := int64(0); off < 400; off += 100 {
		if !seen[off] {
			t.Fatalf("offset %d not covered with zero spacing", off)
		}
	}
}

// viewBlocks lists the first n blocks of v, capped at its Count.
func viewBlocks(v mpiio.View, n int64) []mpiio.Span {
	if v.Count > 0 {
		n = min(n, v.Count)
	}
	out := make([]mpiio.Span, 0, max(n, 0))
	for i := int64(0); i < n; i++ {
		out = append(out, mpiio.Span{Off: v.Disp + i*v.Stride, Len: v.BlockLen})
	}
	return out
}

func TestHPIOViewMatchesSpans(t *testing.T) {
	cfg := HPIOConfig{Ranks: 4, RegionCount: 5, RegionSize: 64, RegionSpacing: 16}
	spans, _ := cfg.Spans()
	for r := 0; r < cfg.Ranks; r++ {
		v := cfg.View(r)
		got := viewBlocks(v, int64(cfg.RegionCount))
		if len(got) != len(spans[r]) {
			t.Fatalf("rank %d view spans = %d", r, len(got))
		}
		for i := range got {
			if got[i] != spans[r][i] {
				t.Fatalf("rank %d span %d: view %+v vs direct %+v", r, i, got[i], spans[r][i])
			}
		}
	}
}

func TestTileIOGridAndSpans(t *testing.T) {
	cfg := TileIOConfig{Ranks: 4, ElementsX: 2, ElementsY: 2, ElementSize: 10}
	tx, ty := cfg.Grid()
	if tx != 2 || ty != 2 {
		t.Fatalf("grid = %dx%d, want 2x2", tx, ty)
	}
	spans, err := cfg.Spans()
	if err != nil {
		t.Fatal(err)
	}
	// Row width = 2 tiles * 2 elements * 10B = 40B. Tile row length 20B.
	// Rank 0 (tile 0,0): rows at 0 and 40. Rank 1 (tile 1,0): 20, 60.
	// Rank 2 (tile 0,1): dataset rows 2,3 → 80, 120.
	if spans[0][0].Off != 0 || spans[0][1].Off != 40 {
		t.Fatalf("rank0 spans = %+v", spans[0])
	}
	if spans[1][0].Off != 20 || spans[1][1].Off != 60 {
		t.Fatalf("rank1 spans = %+v", spans[1])
	}
	if spans[2][0].Off != 80 || spans[2][1].Off != 120 {
		t.Fatalf("rank2 spans = %+v", spans[2])
	}
	for _, s := range spans {
		for _, sp := range s {
			if sp.Len != 20 {
				t.Fatalf("tile row length = %d, want 20", sp.Len)
			}
		}
	}
}

func TestTileIOViewMatchesSpans(t *testing.T) {
	cfg := TileIOConfig{Ranks: 9, ElementsX: 3, ElementsY: 4, ElementSize: 32}
	spans, _ := cfg.Spans()
	for r := 0; r < cfg.Ranks; r++ {
		v := cfg.View(r)
		got := viewBlocks(v, int64(cfg.ElementsY))
		for i := range got {
			if got[i] != spans[r][i] {
				t.Fatalf("rank %d: view %+v vs direct %+v", r, got[i], spans[r][i])
			}
		}
	}
}

func TestTileIOValidate(t *testing.T) {
	if err := (TileIOConfig{Ranks: 0, ElementsX: 1, ElementsY: 1, ElementSize: 1}).Validate(); err == nil {
		t.Fatal("zero ranks accepted")
	}
	if err := (TileIOConfig{Ranks: 1, ElementsX: 0, ElementsY: 1, ElementSize: 1}).Validate(); err == nil {
		t.Fatal("zero elements accepted")
	}
}

func TestMixedInstanceAssignment(t *testing.T) {
	cfg := PaperMixedIOR(4, 16<<10, 0.01)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	random := 0
	for i := 0; i < cfg.Instances; i++ {
		inst := cfg.Instance(i)
		if inst.Random {
			random++
		}
		if inst.File == "" {
			t.Fatal("instance without file name")
		}
	}
	if random != cfg.RandomInstances {
		t.Fatalf("%d random instances, want %d", random, cfg.RandomInstances)
	}
	if cfg.DataSize() != int64(cfg.Instances)*cfg.FileSize {
		t.Fatal("DataSize mismatch")
	}
}

func TestMixedValidation(t *testing.T) {
	bad := MixedIORConfig{Instances: 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero instances accepted")
	}
	bad = MixedIORConfig{Instances: 2, RandomInstances: 3, Ranks: 1, FileSize: 1 << 20, RequestSize: 1 << 10}
	if err := bad.Validate(); err == nil {
		t.Fatal("random > instances accepted")
	}
}

func TestRunMixedEndToEnd(t *testing.T) {
	comm := stockComm(t, 2)
	cfg := MixedIORConfig{
		Instances: 4, RandomInstances: 2, Ranks: 2,
		FileSize: 1 << 20, RequestSize: 64 << 10, Seed: 1,
	}
	var res Result
	doneCalled := false
	if err := RunMixed(comm, cfg, true, func(r Result) { res = r; doneCalled = true }); err != nil {
		t.Fatal(err)
	}
	comm.Engine().Run()
	if !doneCalled {
		t.Fatal("mixed run never completed")
	}
	if res.Bytes != 4<<20 {
		t.Fatalf("moved %d bytes, want 4MB", res.Bytes)
	}
	if res.Elapsed() <= 0 {
		t.Fatal("elapsed not positive")
	}
}

func TestResultMerge(t *testing.T) {
	a := Result{Bytes: 10, Requests: 1, Start: 100, End: 200}
	b := Result{Bytes: 20, Requests: 2, Start: 50, End: 300}
	m := a.Merge(b)
	if m.Bytes != 30 || m.Requests != 3 || m.Start != 50 || m.End != 300 {
		t.Fatalf("merge = %+v", m)
	}
}

func TestResultThroughputZeroElapsed(t *testing.T) {
	r := Result{Bytes: 100, Start: 5, End: 5}
	if r.ThroughputMBps() != 0 {
		t.Fatal("zero-elapsed throughput should be 0")
	}
}
