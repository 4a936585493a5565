package main

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// TestWorkloadsExitClean runs every workload briefly and checks that each
// passes its validity rules and leaves no goroutine behind.
func TestWorkloadsExitClean(t *testing.T) {
	if runtime.NumCPU() < conns {
		t.Skipf("needs %d CPUs", conns)
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			out, err := workloads[name](options{seed: 3, seconds: 0.3})
			if err != nil {
				t.Fatal(err)
			}
			if len(out.problems) > 0 && !raceEnabled {
				t.Fatalf("validity checks failed: %v", out.problems)
			}
			if out.failed > 0 || out.attempted == 0 {
				t.Fatalf("attempted %d, failed %d", out.attempted, out.failed)
			}
			for _, m := range endToEnd {
				if v, ok := out.metrics[m.name]; !ok || v <= 0 {
					t.Errorf("metric %s = %v, want > 0", m.name, v)
				}
			}
			if err := goroutinesSettle(base); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHotNetTraceReconciles checks on hot-net that wire, engine and
// backend self times add up to the client round trips.
func TestHotNetTraceReconciles(t *testing.T) {
	if runtime.NumCPU() < conns {
		t.Skipf("needs %d CPUs", conns)
	}
	out := &outcome{metrics: map[string]float64{}}
	r, err := runNetRound(hotNet, 5, 300*time.Millisecond, newTracer(), out)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.problems) > 0 && !raceEnabled {
		t.Fatalf("validity checks failed: %v", out.problems)
	}
	if res := r.layer["trace.residual_share"]; math.Abs(res) > 0.03 {
		t.Fatalf("residual %.4f of the round trips is unaccounted for", res)
	}
	for _, m := range []string{"wire.self_us_p50", "core.self_us_p50", "pfs.wait_us_p50", "clock.timers_per_op"} {
		if r.layer[m] <= 0 {
			t.Errorf("%s = %v, want > 0", m, r.layer[m])
		}
	}
}

// TestAttribute checks the decomposition on hand-built spans: one request
// whose backend call nests in its engine span reconciles exactly; a client
// call with no engine span shows up in the residual.
func TestAttribute(t *testing.T) {
	eng := []engSpan{{start: 10, ret: 15, end: 60, file: "bench|f000", off: 0, size: 8, ptr: 100}}
	back := []backSpan{{start: 12, end: 50, file: "__s4d_cache__", ptr: 100}}
	client := []clientSpan{{file: "f000", off: 0, send: 0, recv: 70}}
	bd := attribute(eng, back, client)
	if bd.residual != 0 || len(bd.wire) != 1 || bd.wire[0] != 20 || bd.core[0] != 12 {
		t.Fatalf("nested: wire %v core %v residual %v, want [20] [12] 0", bd.wire, bd.core, bd.residual)
	}
	client = append(client, clientSpan{file: "f001", off: 0, send: 0, recv: 70})
	if bd := attribute(eng, back, client); bd.residual != -0.5 {
		t.Fatalf("unmatched call: residual %v, want -0.5", bd.residual)
	}
}

func TestUnion(t *testing.T) {
	iv := [][2]int64{{0, 10}, {5, 20}, {30, 40}, {35, 38}}
	if got := union(iv, 2, 36); got != 24 {
		t.Fatalf("union = %d, want 24", got)
	}
}

// TestSimTraceReportsLayers checks that a traced virtual-time run keeps
// the untraced tail latencies and fills the simulator's layer metrics.
func TestSimTraceReportsLayers(t *testing.T) {
	out, err := runSim(simSeq, options{seed: 2, seconds: 0.2, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"tail.read_p99_us", "tail.write_p99_us", "sim.events_per_op", "core.issue_us_per_op", "trace.untraced_ops_per_s"} {
		if out.metrics[m] <= 0 {
			t.Errorf("%s = %v, want > 0", m, out.metrics[m])
		}
	}
	if c := out.metrics["core.critical_share"]; c > 0.01 {
		t.Errorf("critical share %v on large sequential requests", c)
	}
}
