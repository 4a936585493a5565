package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"time"

	"s4dcache/internal/core"
	"s4dcache/internal/costmodel"
	"s4dcache/internal/device"
	"s4dcache/internal/kvstore"
	"s4dcache/internal/netclient"
	"s4dcache/internal/netmodel"
	"s4dcache/internal/netserve"
	"s4dcache/internal/pfs"
	"s4dcache/internal/sim"
)

// The wall-clock deployment both network workloads share: the paper's
// §V.A shape (8 DServers, 4 CServers, 64 KiB stripes) on pfs.WallFS at a
// near-zero device cost, so the numbers price the program rather than a
// modeled device, under the concurrent engine with the Rebuilder and a
// kvstore metadata store, fronted by netserve on loopback.
const (
	dservers, cservers = 8, 4
	stripe             = 64 << 10
	devicePerOp        = time.Nanosecond
	deviceBytesPerSec  = 8 << 30
	deviceSetting      = "wall: 1ns/op + 8GiB/s per server; sim: paper HDD/SSD models"
	engineShards       = 16
	netCache           = 32 << 20
	rebuildPeriod      = 20 * time.Millisecond
	// The Rebuilder is sized to keep up with churn-net's writes (each
	// flush waits about a millisecond on WallFS timers): with the default
	// 4 workers and 64-extent batches it flushed a few thousand extents a
	// second, admissions succeeded only as fast as flushes freed clean
	// space, and the share of writes admitted (the costly path) followed
	// the host's speed, moving churn-net's ops_per_s 1.4x between runs.
	rebuildWorkers = 64
	rebuildBatch   = 1024
	snapshotPeriod = 100 * time.Millisecond
	tenant         = "bench"
	blockSize      = 16 << 10
	// conns is the client connection count; the run refuses a host with
	// fewer CPUs. depth is the in-flight requests each connection keeps,
	// below the 32-slot server window.
	conns = 2
	depth = 8
	// netRounds is how many times a run builds, loads, measures and tears
	// down the deployment; setup_s and heap_live_mb are the medians.
	netRounds = 3
)

// netParams is one network workload's traffic.
type netParams struct {
	// payload runs functional mode: data bytes cross the wire and reads
	// are verified against the benchmark's shadow of acknowledged writes.
	payload       bool
	files         int
	blocksPerFile int
	readShare     float64
	// preload is the number of distinct blocks written, in seeded shuffled
	// order, before measuring; 0 means every block.
	preload int
}

var (
	// hotNet: the working set is a quarter of the cache, preloaded whole,
	// so every read hits and the wire and the read path dominate.
	hotNet = netParams{payload: true, files: 64, blocksPerFile: 8, readShare: 0.8}
	// churnNet: the working set is four caches, so writes allocate, evict
	// or fail admission and reads miss to the DServers.
	churnNet = netParams{files: 64, blocksPerFile: 128, readShare: 0.3, preload: netCache / blockSize}
)

func (p netParams) blocks() int { return p.files * p.blocksPerFile }

// deployment is one assembled wall-clock stack.
type deployment struct {
	clock   *sim.WallClock
	store   *kvstore.Store
	eng     *core.Concurrent
	srv     *netserve.Server
	clients []*netclient.Client
}

// wallModel calibrates the cost model for the deployment's shape, as
// cluster.NewWallS4D does.
func wallModel() (costmodel.Params, error) {
	curve, err := device.ProfileSeekCurve(device.NewHDD(device.DefaultHDDParams()), device.DefaultProfileConfig())
	if err != nil {
		return costmodel.Params{}, err
	}
	m := costmodel.Calibrate(device.DefaultHDDParams(), device.DefaultSSDParams(), netmodel.Gigabit(), curve)
	m.M, m.N, m.Stripe = dservers, cservers, stripe
	return m, nil
}

// deploy builds the stack and dials the clients. A non-nil tracer wraps
// the clock, both backends, the metadata backend, the engine and both
// ends of every connection.
func deploy(p netParams, tr *tracer) (*deployment, error) {
	d := &deployment{clock: sim.NewWallClock()}
	var clock sim.Clock = d.clock
	if tr != nil {
		clock = &tracedClock{inner: d.clock, t: tr}
	}
	mkfs := func(label string, servers int) (*pfs.WallFS, error) {
		return pfs.NewWallFS(pfs.WallConfig{
			Label:       label,
			Layout:      pfs.Layout{Servers: servers, StripeSize: stripe},
			Clock:       clock,
			Functional:  p.payload,
			PerOp:       devicePerOp,
			BytesPerSec: deviceBytesPerSec,
		})
	}
	opfsFS, err := mkfs("OPFS", dservers)
	if err != nil {
		return nil, err
	}
	cpfsFS, err := mkfs("CPFS", cservers)
	if err != nil {
		return nil, err
	}
	model, err := wallModel()
	if err != nil {
		return nil, err
	}
	var kvb kvstore.Backend = kvstore.NewMemBackend()
	var opfs, cpfs core.Backend = opfsFS, cpfsFS
	if tr != nil {
		kvb = &tracedKV{inner: kvb, t: tr}
		opfs = &tracedBackend{inner: opfsFS, t: tr, opfs: true}
		cpfs = &tracedBackend{inner: cpfsFS, t: tr}
	}
	if d.store, err = kvstore.Open(kvb, "dmt", kvstore.Options{}); err != nil {
		return nil, err
	}
	d.eng, err = core.NewConcurrent(core.ConcurrentConfig{
		Clock:          clock,
		OPFS:           opfs,
		CPFS:           cpfs,
		Model:          model,
		CacheCapacity:  netCache,
		Concurrency:    engineShards,
		RebuildPeriod:  rebuildPeriod,
		RebuildWorkers: rebuildWorkers,
		RebuildBatch:   rebuildBatch,
		MetaStore:      d.store,
		SnapshotPeriod: snapshotPeriod,
	})
	if err != nil {
		return nil, err
	}
	var eng netserve.Engine = d.eng
	var wrapServer, wrapClient func(net.Conn, int) net.Conn
	if tr != nil {
		eng = &tracedEngine{inner: d.eng, t: tr}
		wrapServer = tr.wrapConn
		wrapClient = tr.wrapConn
	}
	if d.srv, err = netserve.Serve(netserve.Config{Engine: eng, Payload: p.payload, WrapConn: wrapServer}); err != nil {
		d.eng.Close()
		return nil, err
	}
	for i := 0; i < conns; i++ {
		c, err := netclient.Dial(d.srv.Addr(), netclient.Options{Tenant: tenant, WrapConn: wrapClient})
		if err != nil {
			d.stop()
			return nil, err
		}
		d.clients = append(d.clients, c)
	}
	return d, nil
}

// drain runs Rebuilder drains until no dirty data or pending fetch is
// left, waiting on each one's completion callback (see drainSim for why
// one drain may not be enough).
func (d *deployment) drain() error {
	for i := 0; d.eng.RebuildPending(); i++ {
		if i == maxDrains {
			return fmt.Errorf("Rebuilder still has work pending after %d drains", maxDrains)
		}
		ch := make(chan struct{})
		d.eng.DrainRebuild(func() { close(ch) })
		if err := waitDone("rebuild drain", ch); err != nil {
			return err
		}
	}
	return nil
}

// stop closes clients, listener and engine, and waits until the clock
// has no callback left: nothing in the deployment runs any more, but its
// state stays reachable for the heap measurement.
func (d *deployment) stop() error {
	for _, c := range d.clients {
		c.Close()
	}
	d.srv.Close()
	d.eng.Close()
	return waitUntil("wall clock idle", func() bool { return d.clock.Pending() == 0 })
}

// blockRef is one block's file name and offset.
func (p netParams) blockRef(names []string, blk int32) (string, int64) {
	return names[int(blk)/p.blocksPerFile], int64(int(blk)%p.blocksPerFile) * blockSize
}

// shadow is the benchmark's record of acknowledged writes. Each block is
// owned by one connection's generator, so only that goroutine touches its
// entries. issued counts writes sent; acked is the version of the last
// acknowledged one; a write is in flight while they differ.
type shadow struct {
	issued, acked []uint32
}

// fill writes the content of version ver of block blk into b.
func fill(b []byte, blk int32, ver uint32) {
	x := (uint64(blk)<<32 | uint64(ver)) * 0x9E3779B97F4A7C15
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], x+uint64(i))
	}
}

// slot is one in-flight request of a generator.
type slot struct {
	call    *netclient.Call
	start   time.Time
	blk     int32
	write   bool
	verify  bool
	issued  uint32
	payload []byte
}

// genStats is one generator's measurement: latencies in ns, bucketed by
// the measuring window their reply arrived in.
type genStats struct {
	start              time.Time
	win                []samples
	failed, mismatches int64
	verified           int64
	completed          int64
	spans              []clientSpan
}

// samples is one window's latencies.
type samples struct{ reads, writes []int64 }

// generator drives one connection: it keeps up to depth requests in flight
// through Client.Go and handles completions as they arrive.
type generator struct {
	p      netParams
	c      *netclient.Client
	names  []string
	owned  []int32
	rng    *rand.Rand
	sh     *shadow
	expect []byte
	slots  [depth]slot
	st     genStats
	tr     *tracer
}

func newGenerator(p netParams, c *netclient.Client, names []string, owned []int32, seed int64, sh *shadow, tr *tracer) *generator {
	g := &generator{p: p, c: c, names: names, owned: owned, rng: rand.New(rand.NewSource(seed)), sh: sh, tr: tr}
	if p.payload {
		g.expect = make([]byte, blockSize)
		for i := range g.slots {
			g.slots[i].payload = make([]byte, blockSize)
		}
	}
	return g
}

// next is an op source: it returns the next block and direction, or false
// when the phase is over.
type next func(g *generator) (blk int32, write bool, ok bool)

// preloadOps writes each of the generator's blocks once, in order.
func preloadOps(blocks []int32) next {
	i := 0
	return func(*generator) (int32, bool, bool) {
		if i == len(blocks) {
			return 0, false, false
		}
		i++
		return blocks[i-1], true, true
	}
}

// mixOps draws uniform blocks with the workload's read share until the
// deadline. A write never targets a block with a write in flight, so the
// shadow's order is the server's order.
func mixOps(deadline time.Time) next {
	return func(g *generator) (int32, bool, bool) {
		if !time.Now().Before(deadline) {
			return 0, false, false
		}
		write := g.rng.Float64() >= g.p.readShare
		for try := 0; ; try++ {
			blk := g.owned[g.rng.Intn(len(g.owned))]
			if !write || g.sh.issued[blk] == g.sh.acked[blk] {
				return blk, write, true
			}
			if try == 64 {
				return blk, false, true
			}
		}
	}
}

// drive keeps depth requests in flight until src runs dry, then waits for
// the stragglers. With record false nothing is measured (preload).
func (g *generator) drive(src next, record bool) {
	active := 0
	more := true
	for {
		for i := range g.slots {
			if !more || g.slots[i].call != nil {
				continue
			}
			blk, write, ok := src(g)
			if !ok {
				more = false
				break
			}
			g.issue(&g.slots[i], blk, write)
			active++
		}
		if active == 0 {
			return
		}
		i := g.waitAny()
		g.complete(&g.slots[i], record)
		active--
	}
}

func (g *generator) issue(s *slot, blk int32, write bool) {
	file, off := g.p.blockRef(g.names, blk)
	s.blk, s.write = blk, write
	var data, buf []byte
	if write {
		g.sh.issued[blk]++
		s.issued = g.sh.issued[blk]
		if g.p.payload {
			fill(s.payload, blk, s.issued)
			data = s.payload
		}
	} else {
		s.verify = g.p.payload && g.sh.issued[blk] == g.sh.acked[blk]
		s.issued = g.sh.issued[blk]
		buf = s.payload
	}
	op := uint8(netserve.OpRead)
	if write {
		op = netserve.OpWrite
	}
	s.start = time.Now()
	s.call = g.c.Go(op, file, off, blockSize, data, buf)
}

// waitAny returns the index of a completed slot. The select is spelled
// out per slot (depth is a constant) so one goroutine can wait on the
// first of its in-flight calls; a nil channel never fires.
func (g *generator) waitAny() int {
	ch := func(i int) chan *netclient.Call {
		if g.slots[i].call == nil {
			return nil
		}
		return g.slots[i].call.Done
	}
	select {
	case <-ch(0):
		return 0
	case <-ch(1):
		return 1
	case <-ch(2):
		return 2
	case <-ch(3):
		return 3
	case <-ch(4):
		return 4
	case <-ch(5):
		return 5
	case <-ch(6):
		return 6
	case <-ch(7):
		return 7
	}
}

func (g *generator) complete(s *slot, record bool) {
	end := time.Now()
	call := s.call
	s.call = nil
	if call.Err != nil {
		// A failed write leaves issued ahead of acked for good: its fate
		// is unknown, so the block is neither written nor verified again.
		g.st.failed++
		return
	}
	if s.write {
		g.sh.acked[s.blk] = s.issued
	} else if s.verify && g.sh.issued[s.blk] == s.issued {
		fill(g.expect, s.blk, g.sh.acked[s.blk])
		if !bytes.Equal(s.payload, g.expect) {
			g.st.mismatches++
		}
		g.st.verified++
	}
	if !record {
		return
	}
	g.st.completed++
	lat := int64(end.Sub(s.start))
	if w := int(end.Sub(g.st.start) / window); w < len(g.st.win) {
		if s.write {
			g.st.win[w].writes = append(g.st.win[w].writes, lat)
		} else {
			g.st.win[w].reads = append(g.st.win[w].reads, lat)
		}
	}
	if g.tr != nil {
		g.st.spans = append(g.st.spans, clientSpan{file: call.File, off: call.Off, write: s.write,
			send: g.tr.since(s.start), recv: g.tr.since(end)})
	}
}

// runGenerators runs one phase on every generator and waits for all.
func runGenerators(gens []*generator, src func(i int) next, record bool) {
	done := make(chan struct{}, len(gens))
	for i, g := range gens {
		go func(i int, g *generator) {
			g.drive(src(i), record)
			done <- struct{}{}
		}(i, g)
	}
	for range gens {
		<-done
	}
}

// window is the measuring granularity: a round's metrics are taken per
// window and the run reports the median window, so a burst of outside
// interference moves a few windows rather than the result.
const window = 250 * time.Millisecond

// netRound is one round's measurement.
type netRound struct {
	setup     time.Duration
	heapMB    float64
	windows   []winStat
	steal     []uint64 // per window, machine steal ticks
	attempted int64
	failed    int64
	layer     map[string]float64
}

// winStat is one measuring window's end-to-end figures.
type winStat map[string]float64

// windowStat computes a window's figures from its samples and CPU time.
func windowStat(reads, writes []int64, cpu, dur time.Duration) winStat {
	ops := float64(len(reads) + len(writes))
	return winStat{
		"ops_per_s":     ops / dur.Seconds(),
		"read_p50_us":   quantileUS(reads, 0.50),
		"read_p99_us":   quantileUS(reads, 0.99),
		"write_p50_us":  quantileUS(writes, 0.50),
		"write_p99_us":  quantileUS(writes, 0.99),
		"read_p90_us":   quantileUS(reads, 0.90),
		"write_p90_us":  quantileUS(writes, 0.90),
		"cpu_us_per_op": share(float64(cpu)/1e3, ops),
		"write_mbps":    float64(len(writes)) * blockSize / 1e6 / dur.Seconds(),
		"read_mbps":     float64(len(reads)) * blockSize / 1e6 / dur.Seconds(),
	}
}

// runNetRound builds the deployment, preloads it, measures for dur and
// tears it down, checking the workload's validity rules on the way.
func runNetRound(p netParams, seed int64, dur time.Duration, tr *tracer, out *outcome) (*netRound, error) {
	base := runtime.NumGoroutine()
	r := &netRound{}
	runtime.GC() // each round's set-up starts from a collected heap
	t0 := time.Now()
	d, err := deploy(p, tr)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop() // error path: release the deployment, best effort
		}
	}()
	names := make([]string, p.files)
	for i := range names {
		names[i] = fmt.Sprintf("f%03d", i)
	}
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(p.blocks())
	if p.preload > 0 && p.preload < len(order) {
		order = order[:p.preload]
	}
	sh := &shadow{issued: make([]uint32, p.blocks()), acked: make([]uint32, p.blocks())}
	gens := make([]*generator, conns)
	owned := make([][]int32, conns)
	for b := 0; b < p.blocks(); b++ {
		owned[b%conns] = append(owned[b%conns], int32(b))
	}
	preload := make([][]int32, conns)
	for _, b := range order {
		preload[b%conns] = append(preload[b%conns], int32(b))
	}
	for i := range gens {
		gens[i] = newGenerator(p, d.clients[i], names, owned[i], seed*131+int64(i)+1, sh, tr)
	}
	runGenerators(gens, func(i int) next { return preloadOps(preload[i]) }, false)
	if err := d.drain(); err != nil {
		return nil, err
	}
	r.setup = time.Since(t0)
	for _, g := range gens {
		if g.st.failed > 0 {
			return nil, fmt.Errorf("preload: %d writes failed", g.st.failed)
		}
	}
	if tr != nil {
		tr.reset()
	}

	before := snapshot(d)
	nwin := int(dur / window)
	if nwin < 2 {
		nwin = 2
	}
	start := time.Now()
	for _, g := range gens {
		g.st.start = start
		g.st.win = make([]samples, nwin)
	}
	deadline := start.Add(time.Duration(nwin) * window)
	finished := make(chan struct{})
	go func() {
		runGenerators(gens, func(int) next { return mixOps(deadline) }, true)
		close(finished)
	}()
	cpu := make([]time.Duration, nwin+1)
	steal := make([]uint64, nwin+1)
	cpu[0] = cpuTime()
	steal[0], _ = cpuStat()
	for w := 1; w <= nwin; w++ {
		time.Sleep(time.Until(start.Add(time.Duration(w) * window)))
		cpu[w] = cpuTime()
		steal[w], _ = cpuStat()
	}
	<-finished
	after := snapshot(d)

	var spans []clientSpan
	var completed int64
	// Window 0 is warm-up: the first replies after the preload.
	for w := 1; w < nwin; w++ {
		var reads, writes []int64
		for _, g := range gens {
			reads = append(reads, g.st.win[w].reads...)
			writes = append(writes, g.st.win[w].writes...)
		}
		r.windows = append(r.windows, windowStat(reads, writes, cpu[w+1]-cpu[w], window))
		r.steal = append(r.steal, steal[w+1]-steal[w])
	}
	for _, g := range gens {
		completed += g.st.completed
		r.failed += g.st.failed
		spans = append(spans, g.st.spans...)
		if g.st.mismatches > 0 {
			out.problem("%d of %d verified reads differ from the last acknowledged write", g.st.mismatches, g.st.verified)
		}
	}
	r.attempted = completed + r.failed
	checkNet(p, before, after, gens, out)
	if tr != nil {
		r.layer = netLayers(tr, spans, before, after, completed)
	}
	gens = nil

	// The load has stopped; stop the background work too, compact the
	// metadata log, and weigh what stays live.
	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}
	if err := goroutinesSettle(base); err != nil {
		return nil, err
	}
	d.eng.SnapshotNow()
	if tr == nil {
		r.heapMB = liveHeapMB()
	}
	runtime.KeepAlive(d)
	return r, nil
}

// counters is a snapshot of the engine and frontend counters a round
// compares before and after measuring.
type counters struct {
	eng core.Stats
	srv netserve.Stats
	kv  kvstore.StoreStats
	cdt int
	dmt int
}

func snapshot(d *deployment) counters {
	return counters{eng: d.eng.Stats(), srv: d.srv.Stats(), kv: d.store.Stats(),
		cdt: d.eng.CDT().Entries(), dmt: d.eng.DMT().Entries()}
}

// readHitShare is the share of read segments served from the cache.
func readHitShare(b, a core.Stats) float64 {
	hits := float64(a.SegReadsCache - b.SegReadsCache)
	return share(hits, hits+float64(a.SegReadsDisk-b.SegReadsDisk))
}

// checkNet applies the workload's validity rules.
func checkNet(p netParams, b, a counters, gens []*generator, out *outcome) {
	if p.payload {
		var verified int64
		for _, g := range gens {
			verified += g.st.verified
		}
		if verified == 0 {
			out.problem("no read was verified")
		}
		if h := readHitShare(b.eng, a.eng); h < 0.99 {
			out.problem("read hit share %.4f below 0.99", h)
		}
		return
	}
	if a.eng.CacheEvictions == b.eng.CacheEvictions {
		out.problem("no evictions while churning")
	}
	if cycles := a.eng.RebuildCycles - b.eng.RebuildCycles; cycles < 3 || a.eng.Flushes == b.eng.Flushes {
		out.problem("Rebuilder ran %d cycles and %d flushes, want several", cycles, a.eng.Flushes-b.eng.Flushes)
	}
}

// runNet runs the rounds of a network workload and folds them into the
// run's metrics. The traced run measures untraced rounds first, for the
// overhead baseline, then traced ones.
func runNet(p netParams, o options) (*outcome, error) {
	if n := runtime.NumCPU(); n < conns {
		return nil, fmt.Errorf("%d connections need at least %d CPUs, host has %d", conns, conns, n)
	}
	out := &outcome{metrics: map[string]float64{}}
	total := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		total /= 2
	}
	per := total / netRounds
	rounds := func(tracing bool) ([]*netRound, error) {
		var rs []*netRound
		for i := 0; i < netRounds; i++ {
			var tr *tracer
			if tracing {
				tr = newTracer()
			}
			r, err := runNetRound(p, o.seed+int64(i)*7919, per, tr, out)
			if err != nil {
				return nil, err
			}
			out.attempted += r.attempted
			out.failed += r.failed
			rs = append(rs, r)
		}
		return rs, nil
	}
	plain, err := rounds(false)
	if err != nil {
		return nil, err
	}
	foldNet(plain, out.metrics)
	if !o.trace {
		return out, nil
	}
	setTail(out.metrics)
	traced, err := rounds(true)
	if err != nil {
		return nil, err
	}
	untraced := out.metrics["ops_per_s"]
	foldNet(traced, out.metrics)
	layers := make([]map[string]float64, len(traced))
	for i, r := range traced {
		layers[i] = r.layer
	}
	foldLayers(layers, out.metrics)
	setOverhead(untraced, out.metrics["ops_per_s"], out.metrics)
	return out, nil
}

// foldNet sets the end-to-end metrics: the median of the run's calm
// windows, and set-up and heap as the medians of the rounds.
func foldNet(rs []*netRound, m map[string]float64) {
	var all []winStat
	var steal []uint64
	var setups, heaps []float64
	for _, r := range rs {
		all = append(all, r.windows...)
		steal = append(steal, r.steal...)
		setups = append(setups, r.setup.Seconds())
		heaps = append(heaps, r.heapMB)
	}
	var wins []winStat
	for i, keep := range calm(steal) {
		if keep {
			wins = append(wins, all[i])
		}
	}
	for k := range wins[0] {
		vals := make([]float64, len(wins))
		for i, w := range wins {
			vals[i] = w[k]
		}
		m[k] = median(vals)
	}
	m["heap_live_mb"] = median(heaps)
	m["setup_s"] = median(setups)
}

// foldLayers sets each per-layer metric to its median over the rounds.
func foldLayers(layers []map[string]float64, m map[string]float64) {
	for k := range layers[0] {
		vals := make([]float64, len(layers))
		for i, l := range layers {
			vals[i] = l[k]
		}
		m[k] = median(vals)
	}
}

// setTail keeps the untraced p99 latencies as the traced run's tail
// metrics, before the traced rounds overwrite the end-to-end figures.
func setTail(m map[string]float64) {
	m["tail.read_p99_us"] = m["read_p99_us"]
	m["tail.write_p99_us"] = m["write_p99_us"]
}

// setOverhead records the traced run's throughput against the untraced.
func setOverhead(untraced, traced float64, m map[string]float64) {
	m["trace.untraced_ops_per_s"] = untraced
	m["trace.traced_ops_per_s"] = traced
	m["trace.overhead_share"] = 1 - share(traced, untraced)
}
