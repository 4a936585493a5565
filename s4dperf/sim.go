package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"s4dcache/internal/cluster"
	"s4dcache/internal/core"
	"s4dcache/internal/mpiio"
	"s4dcache/internal/pfs"
)

// simRanks is the paper's §V.A process count. The testbed is
// cluster.Default: 8 HDD DServers, 4 SSD CServers, 64 KiB stripes.
const simRanks = 32

// simParams is one virtual-time workload: an IOR write phase then a read
// phase over one shared file, each rank in its own segment.
type simParams struct {
	reqSize  int64
	fileSize int64
	cache    int64
	random   bool
}

// simMinRounds rounds run even when they overrun the measuring time, so
// the same-seed determinism check always has rounds to compare.
const simMinRounds = 3

var (
	// simRand is the Fig. 6 random pattern with the file fitting in the
	// cache: every request is critical, so the cache tables do the work.
	simRand = simParams{reqSize: 8 << 10, fileSize: 64 << 20, cache: 64 << 20, random: true}
	// simSeq is the large sequential pattern the Identifier rejects: the
	// bypass route and the DServer models do the work.
	simSeq = simParams{reqSize: 1 << 20, fileSize: 4 << 30, cache: 4 << 30 / 5}
)

// simSpans generates every rank's offsets from the seed. Random: uniform
// request slots of the rank's segment, with replacement, as IOR does.
// Sequential: each rank streams a segment front to back; the seed permutes
// which segment each rank owns.
func simSpans(p simParams, seed int64) [][]mpiio.Span {
	segment := p.fileSize / simRanks / p.reqSize * p.reqSize
	perSeg := segment / p.reqSize
	rng := rand.New(rand.NewSource(seed))
	owner := rng.Perm(simRanks)
	out := make([][]mpiio.Span, simRanks)
	for r := range out {
		rr := rand.New(rand.NewSource(seed*1_000_003 + int64(r)*7919 + 1))
		base := int64(owner[r]) * segment
		spans := make([]mpiio.Span, perSeg)
		for i := range spans {
			slot := int64(i)
			if p.random {
				slot = rr.Int63n(perSeg)
			}
			spans[i] = mpiio.Span{Off: base + slot*p.reqSize, Len: p.reqSize}
		}
		out[r] = spans
	}
	return out
}

// tracedTransport times each call into the engine from the MPI-IO layer.
type tracedTransport struct {
	inner  mpiio.Transport
	issues []int64
}

func (t *tracedTransport) Read(rank int, file string, off, size int64, buf []byte, done func(error)) error {
	start := time.Now()
	err := t.inner.Read(rank, file, off, size, buf, done)
	t.issues = append(t.issues, int64(time.Since(start)))
	return err
}

func (t *tracedTransport) Write(rank int, file string, off, size int64, data []byte, done func(error)) error {
	start := time.Now()
	err := t.inner.Write(rank, file, off, size, data, done)
	t.issues = append(t.issues, int64(time.Since(start)))
	return err
}

// simPhase is one phase's outcome.
type simPhase struct {
	lat      []int64 // wall ns from each call to its completion
	wall     time.Duration
	bytes    int64
	errors   int64
	virtMBps float64
}

// runPhase drives every rank closed-loop through its spans and runs the
// engine until all finish.
func runPhase(tb *cluster.Testbed, f *mpiio.File, spans [][]mpiio.Span, write bool) (simPhase, error) {
	var ph simPhase
	vstart := tb.Eng.Now()
	left := len(spans)
	var issueErr error
	start := time.Now()
	for rank := range spans {
		rank := rank
		var issue func(i int)
		issue = func(i int) {
			if i == len(spans[rank]) {
				left--
				return
			}
			sp := spans[rank][i]
			t0 := time.Now()
			next := func(err error) {
				ph.lat = append(ph.lat, int64(time.Since(t0)))
				if err != nil {
					ph.errors++
				}
				ph.bytes += sp.Len
				issue(i + 1)
			}
			var err error
			if write {
				err = f.WriteAt(rank, sp.Off, sp.Len, nil, next)
			} else {
				err = f.ReadAt(rank, sp.Off, sp.Len, nil, next)
			}
			if err != nil && issueErr == nil {
				issueErr = err
			}
		}
		issue(0)
	}
	tb.Eng.RunWhile(func() bool { return left > 0 && issueErr == nil })
	ph.wall = time.Since(start)
	if issueErr != nil {
		return ph, issueErr
	}
	ph.virtMBps = share(float64(ph.bytes)/1e6, (tb.Eng.Now() - vstart).Seconds())
	return ph, nil
}

// simRound is one round: a fresh testbed, the write phase, a Rebuilder
// drain, the read phase.
type simRound struct {
	setups   []time.Duration
	measured time.Duration
	cpu      time.Duration
	steal    uint64 // machine steal ticks while measuring
	heapMB   float64
	critical float64
	w, r     simPhase
	ops      int
	stats    map[string]float64
	layer    map[string]float64
}

// drainSim runs Rebuilder drains until nothing is pending. One
// DrainRebuild can return with dirty data left: when it joins a periodic
// cycle whose flushes all lost to concurrent writes, it sees no progress
// and stops. Draining again gives every seed the same state after it.
func drainSim(tb *cluster.Testbed) error {
	for i := 0; tb.S4D.RebuildPending(); i++ {
		if i == maxDrains {
			return fmt.Errorf("Rebuilder still has work pending after %d drains", maxDrains)
		}
		drained := false
		tb.S4D.DrainRebuild(func() { drained = true })
		tb.Eng.RunWhile(func() bool { return !drained })
	}
	return nil
}

// maxDrains bounds the drain retries of drainSim and deployment.drain.
const maxDrains = 8

// simSetups is how many testbeds each round builds; every build is timed
// and the last one runs the round, so a run has many set-up samples.
const simSetups = 4

// buildSim assembles a testbed and its communicator.
func buildSim(p simParams, traced bool) (*cluster.Testbed, *tracedTransport, *mpiio.File, error) {
	params := cluster.Default()
	params.CacheCapacity = p.cache
	tb, err := cluster.NewS4D(params)
	if err != nil {
		return nil, nil, nil, err
	}
	var transport mpiio.Transport = tb.S4D
	var tt *tracedTransport
	if traced {
		tt = &tracedTransport{inner: tb.S4D}
		transport = tt
	}
	comm, err := mpiio.NewComm(tb.Eng, simRanks, transport)
	if err != nil {
		return nil, nil, nil, err
	}
	return tb, tt, comm.Open("ior.dat"), nil
}

func runSimRound(p simParams, spans [][]mpiio.Span, traced bool) (*simRound, error) {
	r := &simRound{}
	var tb *cluster.Testbed
	var tt *tracedTransport
	var f *mpiio.File
	var err error
	for i := 0; i < simSetups; i++ {
		if tb != nil {
			tb.Close()
		}
		runtime.GC() // each set-up starts from a collected heap
		t0 := time.Now()
		if tb, tt, f, err = buildSim(p, traced); err != nil {
			return nil, err
		}
		r.setups = append(r.setups, time.Since(t0))
	}

	before := simCounters(tb)
	cpu0 := cpuTime()
	steal0, _ := cpuStat()
	if r.w, err = runPhase(tb, f, spans, true); err != nil {
		return nil, err
	}
	start := time.Now()
	if err := drainSim(tb); err != nil {
		return nil, err
	}
	drainWall := time.Since(start)
	if r.r, err = runPhase(tb, f, spans, false); err != nil {
		return nil, err
	}
	r.measured = r.w.wall + drainWall + r.r.wall
	r.ops = len(r.w.lat) + len(r.r.lat)
	r.cpu = cpuTime() - cpu0
	steal1, _ := cpuStat()
	r.steal = steal1 - steal0
	after := simCounters(tb)
	r.critical = share(float64(after.eng.Critical-before.eng.Critical), float64(after.eng.Identified-before.eng.Identified))
	if traced {
		r.layer = simLayers(tt, before, after, r)
	}
	r.stats = roundStats(r)
	r.w.lat, r.r.lat = nil, nil
	if err := drainSim(tb); err != nil {
		return nil, err
	}
	if !traced {
		r.heapMB = liveHeapMB()
	}
	tb.Close()
	if err := tb.Eng.RunMax(1 << 26); err != nil {
		return nil, fmt.Errorf("testbed did not go idle: %w", err)
	}
	return r, nil
}

// simCounts is a snapshot of the testbed counters.
type simCounts struct {
	eng        core.Stats
	opfs, cpfs pfs.Stats
	events     uint64
	cdt, dmt   int
}

func simCounters(tb *cluster.Testbed) simCounts {
	return simCounts{eng: tb.S4D.Stats(), opfs: tb.OPFS.Stats(), cpfs: tb.CPFS.Stats(),
		events: tb.Eng.Processed(), cdt: tb.S4D.CDT().Entries(), dmt: tb.S4D.DMT().Entries()}
}

// simLayers computes a traced round's per-layer metrics.
func simLayers(tt *tracedTransport, b, a simCounts, r *simRound) map[string]float64 {
	ops := float64(r.ops)
	de, ds := a.eng, b.eng
	var issue int64
	for _, d := range tt.issues {
		issue += d
	}
	moved := float64(de.BytesFlushed - ds.BytesFlushed + de.BytesFetched - ds.BytesFetched)
	wasted := float64(de.FlushRetries - ds.FlushRetries + de.FetchRetries - ds.FetchRetries + de.FetchFailures - ds.FetchFailures)
	moves := float64(de.Flushes-ds.Flushes+de.Fetches-ds.Fetches) + wasted
	admits := float64(de.Admissions - ds.Admissions)
	pfsBytes := float64(a.opfs.BytesRead - b.opfs.BytesRead + a.opfs.BytesWritten - b.opfs.BytesWritten +
		a.cpfs.BytesRead - b.cpfs.BytesRead + a.cpfs.BytesWritten - b.cpfs.BytesWritten)
	m := map[string]float64{}
	m["core.critical_share"] = r.critical
	m["core.self_us_p50"] = quantileUS(tt.issues, 0.5)
	m["core.self_us_p99"] = quantileUS(tt.issues, 0.99)
	m["core.issue_us_per_op"] = share(float64(issue)/1e3, ops)
	m["cachespace.read_hit_share"] = readHitShare(ds, de)
	m["cachespace.admit_share"] = share(admits, admits+float64(de.AdmitFailures-ds.AdmitFailures))
	m["cachespace.evictions_per_op"] = share(float64(de.CacheEvictions-ds.CacheEvictions), ops)
	m["cdt.entries"] = float64(a.cdt)
	m["dmt.entries"] = float64(a.dmt)
	m["rebuild.bytes_per_write_byte"] = share(moved, float64(r.w.bytes))
	m["rebuild.wasted_share"] = share(wasted, moves)
	// A flush or fetch reads one server set and writes the other.
	m["pfs.bg_bytes_share"] = share(2*moved, pfsBytes)
	m["pfs.opfs_calls_per_op"] = share(float64(a.opfs.Requests-b.opfs.Requests), ops)
	m["pfs.cpfs_calls_per_op"] = share(float64(a.cpfs.Requests-b.cpfs.Requests), ops)
	m["sim.events_per_op"] = share(float64(a.events-b.events), ops)
	m["sim.dispatch_us_per_op"] = share((float64(r.measured)-float64(issue))/1e3, ops)
	return m
}

// runSim runs rounds over the same seeded input until the measuring time
// is spent (at least simMinRounds), checks that every round decided the same
// virtual throughput, and folds the rounds into the run's metrics.
func runSim(p simParams, o options) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	spans := simSpans(p, o.seed)
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget /= 2
	}
	rounds := func(traced bool) ([]*simRound, error) {
		var rs []*simRound
		var spent time.Duration
		for len(rs) < simMinRounds || spent < budget {
			r, err := runSimRound(p, spans, traced)
			if err != nil {
				return nil, err
			}
			out.attempted += int64(r.ops)
			out.failed += r.w.errors + r.r.errors
			rs = append(rs, r)
			spent += r.measured
		}
		checkSim(p, rs, out)
		return rs, nil
	}
	plain, err := rounds(false)
	if err != nil {
		return nil, err
	}
	foldSim(plain, out.metrics)
	if !o.trace {
		return out, nil
	}
	setTail(out.metrics)
	traced, err := rounds(true)
	if err != nil {
		return nil, err
	}
	untraced := out.metrics["ops_per_s"]
	foldSim(traced, out.metrics)
	layers := make([]map[string]float64, len(traced))
	for i, r := range traced {
		layers[i] = r.layer
	}
	foldLayers(layers, out.metrics)
	setOverhead(untraced, out.metrics["ops_per_s"], out.metrics)
	return out, nil
}

// checkSim applies the virtual-time validity rules.
func checkSim(p simParams, rs []*simRound, out *outcome) {
	for i, r := range rs {
		if r.w.errors+r.r.errors > 0 {
			out.problem("round %d: %d requests failed", i, r.w.errors+r.r.errors)
		}
		if r.w.virtMBps != rs[0].w.virtMBps || r.r.virtMBps != rs[0].r.virtMBps {
			out.problem("round %d decided %v/%v MB/s, round 0 %v/%v: same seed, different virtual result",
				i, r.w.virtMBps, r.r.virtMBps, rs[0].w.virtMBps, rs[0].r.virtMBps)
		}
		if !p.random && r.critical > 0.01 {
			out.problem("round %d: critical share %.4f above 0.01 on large sequential requests", i, r.critical)
		}
	}
}

// roundStats computes a round's end-to-end figures; the latency samples
// are dropped after it, before the heap is weighed.
func roundStats(r *simRound) map[string]float64 {
	ops := float64(r.ops)
	return map[string]float64{
		"ops_per_s":     ops / r.measured.Seconds(),
		"read_p50_us":   quantileUS(r.r.lat, 0.50),
		"read_p99_us":   quantileUS(r.r.lat, 0.99),
		"write_p50_us":  quantileUS(r.w.lat, 0.50),
		"write_p99_us":  quantileUS(r.w.lat, 0.99),
		"read_p90_us":   quantileUS(r.r.lat, 0.90),
		"write_p90_us":  quantileUS(r.w.lat, 0.90),
		"cpu_us_per_op": share(float64(r.cpu)/1e3, ops),
	}
}

// foldSim sets the end-to-end metrics to their medians over the run's
// calm rounds (each round is one run of the whole seeded input), heap and
// set-up over all rounds; the virtual throughputs are round 0's, which
// checkSim has shown the others equal.
func foldSim(rs []*simRound, m map[string]float64) {
	steal := make([]uint64, len(rs))
	for i, r := range rs {
		steal[i] = r.steal
	}
	keep := calm(steal)
	per := map[string][]float64{}
	for i, r := range rs {
		if keep[i] {
			for k, v := range r.stats {
				per[k] = append(per[k], v)
			}
		}
		per["heap_live_mb"] = append(per["heap_live_mb"], r.heapMB)
		for _, d := range r.setups {
			per["setup_s"] = append(per["setup_s"], d.Seconds())
		}
	}
	for k, vals := range per {
		m[k] = median(vals)
	}
	m["write_mbps"] = rs[0].w.virtMBps
	m["read_mbps"] = rs[0].r.virtMBps
}
