// Command s4dperf is the repository benchmark. One invocation runs one
// workload for a fixed measuring time and prints, as the last line of its
// standard output, one JSON object with the correctness verdict, the
// attempted and failed request counts, and the metrics: the end-to-end
// metrics with -trace 0, the per-layer metrics of a traced run with
// -trace 1. The line before it records the host facts the numbers depend
// on, with the share of CPU time the hypervisor stole during the run.
// README.md maps each workload to the layers it stresses.
//
//	go run . -workload hot-net -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the driver-facing knobs of one run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int64
	// problems lists failed validity checks; any entry makes the run
	// incorrect.
	problems []string
	metrics  map[string]float64
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(options) (*outcome, error){
	"hot-net":   func(o options) (*outcome, error) { return runNet(hotNet, o) },
	"churn-net": func(o options) (*outcome, error) { return runNet(churnNet, o) },
	"sim-rand":  func(o options) (*outcome, error) { return runSim(simRand, o) },
	"sim-seq":   func(o options) (*outcome, error) { return runSim(simSeq, o) },
}

// endToEnd lists the end-to-end metrics and their units. Every workload
// reports every one of them (README.md gives each one's meaning per
// workload family).
var endToEnd = []struct{ name, unit string }{
	{"ops_per_s", "1/s"},
	{"read_p50_us", "us"},
	{"read_p90_us", "us"},
	{"write_p50_us", "us"},
	{"write_p90_us", "us"},
	{"cpu_us_per_op", "us"},
	{"heap_live_mb", "MiB"},
	{"setup_s", "s"},
	{"write_mbps", "MB/s"},
	{"read_mbps", "MB/s"},
}

// perLayer lists the traced run's metrics. A layer a workload does not
// run reports 0 (README.md says which are live where).
var perLayer = []struct{ name, unit string }{
	{"wire.self_us_p50", "us"},
	{"wire.syscalls_per_op", "1/op"},
	{"wire.bytes_per_op", "B/op"},
	{"netserve.busy_share", "share"},
	{"core.self_us_p50", "us"},
	{"core.self_us_p99", "us"},
	{"core.critical_share", "share"},
	{"core.issue_us_per_op", "us"},
	{"cachespace.read_hit_share", "share"},
	{"cachespace.admit_share", "share"},
	{"cachespace.evictions_per_op", "1/op"},
	{"cdt.entries", "count"},
	{"dmt.entries", "count"},
	{"rebuild.bytes_per_write_byte", "B/B"},
	{"rebuild.wasted_share", "share"},
	{"pfs.bg_bytes_share", "share"},
	{"kvstore.append_us_p50", "us"},
	{"kvstore.bytes_per_user_byte", "B/B"},
	{"kvstore.group_size", "count"},
	{"pfs.opfs_calls_per_op", "1/op"},
	{"pfs.cpfs_calls_per_op", "1/op"},
	{"pfs.wait_us_p50", "us"},
	{"clock.timers_per_op", "1/op"},
	{"clock.late_us_p99", "us"},
	{"sim.events_per_op", "1/op"},
	{"sim.dispatch_us_per_op", "us"},
	{"tail.read_p99_us", "us"},
	{"tail.write_p99_us", "us"},
	{"trace.untraced_ops_per_s", "1/s"},
	{"trace.traced_ops_per_s", "1/s"},
	{"trace.overhead_share", "share"},
	{"trace.residual_share", "share"},
}

// runDeadline bounds a whole run: a hang fails it with a non-zero exit
// instead of holding the caller.
const runDeadline = 170 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "s4dperf: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || *seconds > 60 {
		fmt.Fprintf(os.Stderr, "s4dperf: -seconds must be in (0, 60], got %v\n", *seconds)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "s4dperf: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	watchdog := time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "s4dperf: %s did not finish within %v\n", *workload, runDeadline)
		os.Exit(3)
	})
	defer watchdog.Stop()

	steal0, total0 := cpuStat()
	out, err := drive(options{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "s4dperf: %s: %v\n", *workload, err)
		return 1
	}
	steal1, total1 := cpuStat()
	host, _ := json.Marshal(map[string]any{"host": map[string]any{
		"num_cpu":     runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"device":      deviceSetting,
		"workload":    *workload,
		"seed":        *seed,
		"steal_share": share(float64(steal1-steal0), float64(total1-total0)),
	}})
	fmt.Println(string(host))
	names := endToEnd
	if *trace == 1 {
		names = perLayer
	}
	rep := report{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for _, m := range names {
		v, ok := out.metrics[m.name]
		if !ok && *trace == 0 {
			fmt.Fprintf(os.Stderr, "s4dperf: %s: metric %s not measured\n", *workload, m.name)
			return 1
		}
		rep.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "s4dperf: %s: check failed: %s\n", *workload, p)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "s4dperf: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
