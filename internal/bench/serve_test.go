package bench

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s4dcache/internal/cdt"
	"s4dcache/internal/cluster"
	"s4dcache/internal/core"
	"s4dcache/internal/costmodel"
	"s4dcache/internal/device"
	"s4dcache/internal/netclient"
	"s4dcache/internal/netmodel"
	"s4dcache/internal/pfs"
	"s4dcache/internal/sim"
)

// Wall-clock serve smokes: closed-loop clients against the concurrent
// engine on WallFS backends (in process, or over loopback TCP through a
// cluster.NewWallS4D deployment's netserve frontend), asserting the
// throughput shape each deployment promises. These are engine
// assertions, not measurements; the repository benchmark (s4dperf/)
// measures. The file sorts last in the package, so these run after the
// CPU-heavy experiment tests; under `go test ./...` the other packages
// have usually finished by then and the scale smoke sees an idle host.

// closedLoop runs workers goroutines, each calling the op built for it
// back to back (one request outstanding per worker), discards warmup, and
// returns the ops per second completed in the following window. Any op
// error fails the test.
func closedLoop(t *testing.T, workers int, warmup, window time.Duration, newOp func(w int) func() error) float64 {
	t.Helper()
	var (
		stop, measuring atomic.Bool
		ops             atomic.Uint64
		errOnce         sync.Once
		firstErr        error
		wg              sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		op := newOp(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if err := op(); err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				if measuring.Load() {
					ops.Add(1)
				}
			}
		}()
	}
	time.Sleep(warmup)
	start := time.Now()
	measuring.Store(true)
	time.Sleep(window)
	measuring.Store(false)
	elapsed := time.Since(start)
	stop.Store(true)
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if ops.Load() == 0 {
		t.Fatalf("no operations completed in the %v window", window)
	}
	return float64(ops.Load()) / elapsed.Seconds()
}

// engineOp returns a synchronous request issuer for one in-process
// client: the engine completes asynchronously, so each call waits on the
// client's own completion channel.
func engineOp(eng *core.Concurrent, rank int) func(write bool, file string, off, size int64) error {
	ch := make(chan error, 1)
	done := func(err error) { ch <- err }
	return func(write bool, file string, off, size int64) error {
		var err error
		if write {
			err = eng.Write(rank, file, off, size, nil, done)
		} else {
			err = eng.Read(rank, file, off, size, nil, done)
		}
		if err != nil {
			return err
		}
		return <-ch
	}
}

// TestServeBenchScales: with a 2ms modeled service time (far above
// scheduler jitter, so the model dominates, not the machine), 8 clients
// over 8 servers must clear at least 2x the single-client throughput even
// on one CPU — the scaling is latency hiding, not parallel compute. Each
// client keeps one 16KB request (2/3 writes) outstanding on its own file.
func TestServeBenchScales(t *testing.T) {
	const reqSize, fileSpan = int64(16 << 10), int64(4 << 20)
	point := func(clients int) float64 {
		tb, err := cluster.NewWallS4D(cluster.WallParams{Shards: 8, PerOpSSD: 2 * time.Millisecond, PerOpHDD: 2 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer tb.Close()
		return closedLoop(t, clients, 20*time.Millisecond, 80*time.Millisecond, func(w int) func() error {
			rng := rand.New(rand.NewSource(int64(w + 1)))
			file := fmt.Sprintf("serve%02d", w)
			do := engineOp(tb.Eng, w)
			return func() error {
				off := rng.Int63n(fileSpan - reqSize)
				return do(rng.Intn(3) > 0, file, off, reqSize)
			}
		})
	}
	one, eight := point(1), point(8)
	if eight < 2*one {
		t.Fatalf("8-client speedup %.2fx, want >= 2x (1 client %.0f ops/s, 8 clients %.0f ops/s)", eight/one, one, eight)
	}
}

// Scale-smoke working set: 16 preloaded hot files × 4MB = 64MB, well under
// the 512MB cache — no eviction, every read is a cache hit, and clients
// contend on the same shards.
const (
	scaleFiles    = 16
	scaleFileSpan = int64(4 << 20)
	scaleReqSize  = int64(16 << 10)
)

// newScaleEngine builds the contention deployment: 8+8 wall-clock servers
// with ~zero service time (1µs per op, unbounded bandwidth), so the
// engine, not the modeled device, is measured; PolicyAll absorbs the
// preload; no Rebuilder competes with the measured window.
func newScaleEngine(t *testing.T) *core.Concurrent {
	t.Helper()
	clock := sim.NewWallClock()
	mkWall := func(label string) *pfs.WallFS {
		w, err := pfs.NewWallFS(pfs.WallConfig{
			Label:       label,
			Layout:      pfs.Layout{Servers: 8, StripeSize: 16 << 10},
			Clock:       clock,
			PerOp:       time.Microsecond,
			BytesPerSec: 1 << 40,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	curve, err := device.ProfileSeekCurve(device.NewHDD(device.DefaultHDDParams()), device.DefaultProfileConfig())
	if err != nil {
		t.Fatal(err)
	}
	model := costmodel.Calibrate(device.DefaultHDDParams(), device.DefaultSSDParams(), netmodel.Gigabit(), curve)
	model.M = 8
	model.N = 8
	model.Stripe = 16 << 10
	eng, err := core.NewConcurrent(core.ConcurrentConfig{
		Clock:         clock,
		OPFS:          mkWall("OPFS"),
		CPFS:          mkWall("CPFS"),
		Model:         model,
		CacheCapacity: 512 << 20,
		Concurrency:   16,
		Policy:        core.PolicyAll,
	})
	if err != nil {
		t.Fatal(err)
	}
	preload := engineOp(eng, 0)
	for f := 0; f < scaleFiles; f++ {
		if err := preload(true, fmt.Sprintf("hot%02d", f), 0, scaleFileSpan); err != nil {
			eng.Close()
			t.Fatal(err)
		}
	}
	return eng
}

// TestServeScaleSmoke is the multicore regression gate: 8 clients running
// a read-heavy (95/5) mix over the preloaded working set must not serve
// fewer ops/s at GOMAXPROCS=4 than at GOMAXPROCS=1 — if the read path
// ever serializes across shards (one shared lock or one shared write per
// request), adding cores makes aggregate throughput collapse. Single-core hosts skip: with one CPU the
// sweep measures scheduler interleaving, not parallelism.
func TestServeScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock serve smoke")
	}
	if runtime.NumCPU() < 2 {
		t.Skipf("host has %d CPU(s); multicore scaling is unmeasurable", runtime.NumCPU())
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const clients = 8
	point := func(procs int) float64 {
		runtime.GOMAXPROCS(procs)
		eng := newScaleEngine(t)
		defer eng.Close()
		return closedLoop(t, clients, 30*time.Millisecond, 150*time.Millisecond, func(w int) func() error {
			rng := rand.New(rand.NewSource(int64(w + 1)))
			do := engineOp(eng, w)
			return func() error {
				file := fmt.Sprintf("hot%02d", rng.Intn(scaleFiles))
				off := rng.Int63n(scaleFileSpan - scaleReqSize)
				return do(rng.Intn(100) >= 95, file, off, scaleReqSize)
			}
		})
	}
	p1, p4 := point(1), point(4)
	if p4 < p1 {
		t.Fatalf("multi-core regression: %d clients at GOMAXPROCS=4 served %.0f ops/s < %.0f ops/s at GOMAXPROCS=1", clients, p4, p1)
	}
}

// TestServeScaleCDTCoverage pins what keeps the scale smoke's read hits
// off shared writes in the CDT, on the smoke's deployment and workload:
// after its clients have run a fixed number of requests the CDT holds at
// most four entries per file, and a covered read hit changes none of its
// fields — entries, byte and flagged counts, and the snapshot's changed
// marks. A fixed count, not the smoke's time window, makes the covered
// ranges, and so the entry count, the same on any host.
func TestServeScaleCDTCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock serve smoke")
	}
	const clients, opsPerClient = 8, 4000
	eng := newScaleEngine(t)
	defer eng.Close()
	errs := make(chan error, clients)
	for w := 0; w < clients; w++ {
		go func() {
			rng := rand.New(rand.NewSource(int64(w + 1)))
			do := engineOp(eng, w)
			for i := 0; i < opsPerClient; i++ {
				file := fmt.Sprintf("hot%02d", rng.Intn(scaleFiles))
				off := rng.Int63n(scaleFileSpan - scaleReqSize)
				if err := do(rng.Intn(100) >= 95, file, off, scaleReqSize); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < clients; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	c := eng.CDT()
	perFile := map[string]int{}
	for _, e := range c.Extents() {
		perFile[e.File]++
	}
	for file, n := range perFile {
		if n > 4 {
			t.Fatalf("after %d requests the CDT holds %d entries for %s, want <= 4", clients*opsPerClient, n, file)
		}
	}

	// A read of the start of hot00's first run is covered, unflagged and
	// cached.
	var run cdt.Extent
	for _, e := range c.Extents() {
		if e.File == "hot00" {
			run = e
			break
		}
	}
	if run.Len < scaleReqSize || run.CFlag {
		t.Fatalf("hot00's first CDT run %+v cannot cover a %d-byte read", run, scaleReqSize)
	}
	c.TakeChanged(false, func(string, uint64) {})
	before, bytes, pending, st := c.Extents(), c.Bytes(), c.PendingBytes(), eng.Stats()
	if err := engineOp(eng, 0)(false, run.File, run.Off, scaleReqSize); err != nil {
		t.Fatal(err)
	}
	after := eng.Stats()
	if after.Critical != st.Critical+1 || after.SegReadsCache != st.SegReadsCache+1 || after.SegReadsDisk != st.SegReadsDisk {
		t.Fatalf("the read was not a critical cache hit: critical %d→%d, cache segments %d→%d, disk segments %d→%d",
			st.Critical, after.Critical, st.SegReadsCache, after.SegReadsCache, st.SegReadsDisk, after.SegReadsDisk)
	}
	if got := c.Extents(); !reflect.DeepEqual(got, before) || c.Bytes() != bytes || c.PendingBytes() != pending {
		t.Fatalf("a covered read hit changed the CDT: %d entries, %d bytes, %d flagged; before %d, %d, %d",
			len(got), c.Bytes(), c.PendingBytes(), len(before), bytes, pending)
	}
	c.TakeChanged(false, func(file string, _ uint64) { t.Fatalf("a covered read hit marked %s changed", file) })
}

// TestServeNetSmoke is the loopback pipelining gate for the network
// frontend (internal/netserve): 8 connections each keeping 4 requests in flight (the client
// pipelines them onto one socket) must beat the same connections at depth
// 1. Every op must succeed — with credit tracking on, an uncapped server
// never answers BUSY — and the server must count no bad request or engine
// error.
func TestServeNetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock serve smoke")
	}
	const conns = 8
	const reqSize, fileSpan = int64(16 << 10), int64(4 << 20)
	point := func(depth int) float64 {
		tb, err := cluster.NewWallS4D(cluster.WallParams{Shards: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer tb.Close()
		clients := make([]*netclient.Client, conns)
		for i := range clients {
			cl, err := netclient.Dial(tb.Addr(), netclient.Options{Tenant: "bench"})
			if err != nil {
				t.Fatalf("dial conn %d: %v", i, err)
			}
			defer cl.Close()
			clients[i] = cl
		}
		rate := closedLoop(t, conns*depth, 20*time.Millisecond, 120*time.Millisecond, func(w int) func() error {
			cl, file := clients[w/depth], fmt.Sprintf("net%03d", w/depth)
			rng := rand.New(rand.NewSource(int64(w + 1)))
			return func() error {
				off := rng.Int63n(fileSpan - reqSize)
				if rng.Intn(3) > 0 {
					return cl.Write(file, off, reqSize, nil)
				}
				return cl.Read(file, off, reqSize, nil)
			}
		})
		if st := tb.Server.Stats(); st.BadRequests != 0 || st.IOErrors != 0 {
			t.Fatalf("server errors at depth %d: %+v", depth, st)
		}
		return rate
	}
	d1, d4 := point(1), point(4)
	if d4 <= d1 {
		t.Fatalf("pipeline speedup %.2fx, want > 1x (depth 1 %.0f ops/s, depth 4 %.0f ops/s)", d4/d1, d1, d4)
	}
}
