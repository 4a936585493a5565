package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"s4dcache/internal/cdt"
	"s4dcache/internal/chunkstore"
	"s4dcache/internal/costmodel"
	"s4dcache/internal/device"
	"s4dcache/internal/dmt"
	"s4dcache/internal/extent"
	"s4dcache/internal/kvstore"
	"s4dcache/internal/netmodel"
	"s4dcache/internal/pfs"
	"s4dcache/internal/sim"
)

// concTestbed is a wall-clock concurrent-engine deployment.
type concTestbed struct {
	clock *sim.WallClock
	opfs  *pfs.WallFS
	cpfs  *pfs.WallFS
	eng   *Concurrent
}

func newConcTestbed(t *testing.T, shards int, functional, faulty bool) *concTestbed {
	t.Helper()
	return newConcTestbedCfg(t, shards, functional, faulty, nil)
}

func newConcTestbedCfg(t *testing.T, shards int, functional, faulty bool, mutate func(*ConcurrentConfig)) *concTestbed {
	t.Helper()
	clock := sim.NewWallClock()
	mkWall := func(label string, servers int) *pfs.WallFS {
		w, err := pfs.NewWallFS(pfs.WallConfig{
			Label:       label,
			Layout:      pfs.Layout{Servers: servers, StripeSize: 16 << 10},
			Clock:       clock,
			Functional:  functional,
			PerOp:       2 * time.Microsecond,
			BytesPerSec: 1 << 33,
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	opfs := mkWall("OPFS", 8)
	cpfs := mkWall("CPFS", 4)
	cfg := ConcurrentConfig{
		Clock:         clock,
		OPFS:          opfs,
		CPFS:          cpfs,
		Model:         concModel(t),
		CacheCapacity: 256 << 20,
		Concurrency:   shards,
		Faulty:        faulty,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	eng, err := NewConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if faulty {
		cpfs.SetStateHook(eng.OnCServerState)
	}
	t.Cleanup(eng.Close)
	return &concTestbed{clock: clock, opfs: opfs, cpfs: cpfs, eng: eng}
}

// concModel is the concurrent testbeds' cost model: calibrated devices
// over 8 DServers and 4 CServers with 16 KiB stripes.
func concModel(t *testing.T) costmodel.Params {
	t.Helper()
	curve, err := device.ProfileSeekCurve(device.NewHDD(device.DefaultHDDParams()), device.DefaultProfileConfig())
	if err != nil {
		t.Fatal(err)
	}
	model := costmodel.Calibrate(device.DefaultHDDParams(), device.DefaultSSDParams(), netmodel.Gigabit(), curve)
	model.M = 8
	model.N = 4
	model.Stripe = 16 << 10
	return model
}

// target is the testbed as an equivalence-oracle driver.
func (tb *concTestbed) target() eqTarget {
	return eqTarget{eng: tb.eng, core: &tb.eng.engine, opfs: tb.opfs, await: await}
}

// dmtLookup looks [off, off+length) of file up in its shard's DMT.
func dmtLookup(c *Concurrent, file string, off, length int64) ([]dmt.Hit, []extent.Gap) {
	sh, _ := c.shard(file)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.dmt.Lookup(file, off, length)
}

// dmtCovers reports whether the engine maps all of [off, off+length) of
// file.
func dmtCovers(c *Concurrent, file string, off, length int64) bool {
	_, gaps := dmtLookup(c, file, off, length)
	return len(gaps) == 0
}

// await issues fn with a completion channel and blocks for the result.
func await(t *testing.T, fn func(done func(error)) error) {
	t.Helper()
	ch := make(chan error, 1)
	if err := fn(func(err error) { ch <- err }); err != nil {
		t.Fatal(err)
	}
	if err := <-ch; err != nil {
		t.Fatal(err)
	}
}

const (
	eqRanks     = 16
	eqOps       = 80
	eqWriteSpan = int64(256 << 10) // per-rank write region [0, eqWriteSpan)
	eqReadSpan  = int64(256 << 10) // per-rank read region [eqWriteSpan, ...)
)

func eqFile(rank int) string { return fmt.Sprintf("eq%02d", rank) }

// eqTarget is one driver of the shared engine under the equivalence
// oracle: its serve surface, its shared state, its DServers, and how to
// wait for a request on its clock.
type eqTarget struct {
	eng interface {
		Write(rank int, file string, off, size int64, data []byte, done func(error)) error
		Read(rank int, file string, off, size int64, buf []byte, done func(error)) error
		DrainRebuild(done func())
		RebuildPending() bool
	}
	core *engine
	opfs Backend
	// await issues fn and blocks until its completion has run.
	await func(t *testing.T, fn func(done func(error)) error)
}

// runEquivalenceRank replays rank's seeded op sequence, one op outstanding
// at a time, maintaining the expected byte image of its write region.
func runEquivalenceRank(t *testing.T, tb eqTarget, rank int, expect []byte) {
	rng := rand.New(rand.NewSource(int64(1000 + rank)))
	file := eqFile(rank)
	for i := 0; i < eqOps; i++ {
		off := rng.Int63n(eqWriteSpan - 32<<10)
		size := int64(4<<10) + rng.Int63n(28<<10)
		if rng.Intn(2) == 0 {
			data := make([]byte, size)
			rng.Read(data)
			copy(expect[off:], data)
			tb.await(t, func(done func(error)) error {
				return tb.eng.Write(rank, file, off, size, data, done)
			})
		} else {
			roff := eqWriteSpan + rng.Int63n(eqReadSpan-32<<10)
			buf := make([]byte, size)
			tb.await(t, func(done func(error)) error {
				return tb.eng.Read(rank, file, roff, size, buf, done)
			})
		}
	}
}

// eqState is the order-insensitive final-state oracle.
type eqState struct {
	dmtExtents map[string][]eqExtent
	cdtExtents []cdt.Extent
	data       map[string][]byte
}

type eqExtent struct {
	off, length int64
	dirty       bool
}

// captureEqState snapshots everything that must match between the
// sequential and concurrent runs. Cache offsets are deliberately excluded:
// allocation order (and thus placement) is schedule-dependent; the
// file-space mapping and the bytes are not.
func captureEqState(t *testing.T, tb eqTarget) eqState {
	t.Helper()
	st := eqState{dmtExtents: make(map[string][]eqExtent), data: make(map[string][]byte)}
	for _, h := range (DMTView{tb.core}).CleanExtents(0) {
		st.dmtExtents[h.File] = append(st.dmtExtents[h.File], eqExtent{h.Off, h.Len, false})
	}
	for _, h := range (DMTView{tb.core}).DirtyExtents(0) {
		st.dmtExtents[h.File] = append(st.dmtExtents[h.File], eqExtent{h.Off, h.Len, true})
	}
	for file, exts := range st.dmtExtents {
		sort.Slice(exts, func(i, j int) bool { return exts[i].off < exts[j].off })
		// Merge adjacent same-state extents: fragmentation differs with
		// allocation order, coverage must not.
		merged := exts[:0]
		for _, e := range exts {
			if n := len(merged); n > 0 && merged[n-1].off+merged[n-1].length == e.off && merged[n-1].dirty == e.dirty {
				merged[n-1].length += e.length
				continue
			}
			merged = append(merged, e)
		}
		st.dmtExtents[file] = merged
	}
	st.cdtExtents = CDTView{tb.core}.Extents()
	sort.Slice(st.cdtExtents, func(i, j int) bool {
		a, b := st.cdtExtents[i], st.cdtExtents[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Off < b.Off
	})
	for r := 0; r < eqRanks; r++ {
		file := eqFile(r)
		size := eqWriteSpan + eqReadSpan
		buf := make([]byte, size)
		tb.await(t, func(done func(error)) error {
			return tb.eng.Read(r, file, 0, size, buf, done)
		})
		st.data[file] = buf
	}
	return st
}

// runEquivalenceWorkload executes the full seeded trace on a testbed:
// sequentially (one goroutine, round-robin ranks is not needed — ranks are
// independent, so plain rank order is the canonical serial schedule) when
// parallel is false, or with one goroutine per rank when true. Returns the
// final state and the expected write-region images.
func runEquivalenceWorkload(t *testing.T, tb eqTarget, parallel bool) (eqState, map[string][]byte) {
	// Seed every rank's read region with a deterministic pattern through
	// the OPFS directly, so reads return real bytes and lazy fetches have
	// content to move.
	expect := make(map[string][]byte)
	for r := 0; r < eqRanks; r++ {
		img := make([]byte, eqWriteSpan+eqReadSpan)
		rng := rand.New(rand.NewSource(int64(7000 + r)))
		rng.Read(img[eqWriteSpan:])
		tb.await(t, func(done func(error)) error {
			return tb.opfs.Write(eqFile(r), eqWriteSpan, eqReadSpan, sim.PriorityHigh, img[eqWriteSpan:], done)
		})
		expect[eqFile(r)] = img
	}
	if parallel {
		var wg sync.WaitGroup
		for r := 0; r < eqRanks; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				runEquivalenceRank(t, tb, r, expect[eqFile(r)][:eqWriteSpan])
			}(r)
		}
		wg.Wait()
	} else {
		for r := 0; r < eqRanks; r++ {
			runEquivalenceRank(t, tb, r, expect[eqFile(r)][:eqWriteSpan])
		}
	}
	// Drain: flush all dirty data, fetch all flagged ranges.
	tb.await(t, func(done func(error)) error {
		tb.eng.DrainRebuild(func() { done(nil) })
		return nil
	})
	if tb.eng.RebuildPending() {
		t.Fatal("rebuild still pending after drain")
	}
	checkInvariants(t, tb.core)
	return captureEqState(t, tb), expect
}

// TestConcurrentEquivalence runs the same seeded multi-rank trace on a
// 1-shard engine driven by one goroutine and on 3- and 16-shard engines
// driven by 16 goroutines, and requires identical final file-space state:
// DMT coverage (offsets/lengths/dirty, cache placement excluded), CDT
// contents, and every byte of every file read back through the engine.
func TestConcurrentEquivalence(t *testing.T) {
	seqState, expect := runEquivalenceWorkload(t, newConcTestbed(t, 1, true, false).target(), false)

	for _, shards := range []int{3, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			conState, _ := runEquivalenceWorkload(t, newConcTestbed(t, shards, true, false).target(), true)
			compareEqState(t, "sequential", seqState, "concurrent", conState, expect)
		})
	}
}

// TestDriverEquivalence runs the equivalence script, one op outstanding
// at a time, through S4D on a virtual-time testbed, through a one-shard
// Concurrent on the same virtual-time testbed, and through a one-shard
// Concurrent on the wall clock. The drivers share the engine's state and
// rules but keep their own event order (joins, Rebuilder cycle, fetch
// fan-out); quiesced, they must agree on DMT coverage, CDT contents and
// every byte read back.
func TestDriverEquivalence(t *testing.T) {
	conState, expect := runEquivalenceWorkload(t, newConcTestbed(t, 1, true, false).target(), false)
	simState, _ := runEquivalenceWorkload(t, newEqSimTarget(t), false)
	simConState, _ := runEquivalenceWorkload(t, newEqSimConcTarget(t), false)
	if len(simState.dmtExtents) == 0 || len(simState.cdtExtents) == 0 {
		t.Fatal("the script left no DMT mappings or CDT extents to compare")
	}
	compareEqState(t, "Concurrent", conState, "S4D", simState, expect)
	compareEqState(t, "Concurrent on sim.Engine", simConState, "S4D", simState, expect)
}

// eqSimBed is a virtual-time testbed shaped like newConcTestbed's: 8
// DServers and 4 CServers with 16 KiB stripes and payload stores.
type eqSimBed struct {
	eng        *sim.Engine
	opfs, cpfs *pfs.FS
}

func newEqSimBed(t *testing.T) eqSimBed {
	t.Helper()
	eng := sim.NewEngine()
	mkFS := func(label string, servers int, dev func(int) device.Device) *pfs.FS {
		fs, err := pfs.New(pfs.Config{
			Label:     label,
			Layout:    pfs.Layout{Servers: servers, StripeSize: 16 << 10},
			Engine:    eng,
			NewDevice: dev,
			NewStore:  func(int) chunkstore.Store { return chunkstore.NewSparse() },
			Net:       netmodel.Gigabit(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	opfs := mkFS("OPFS", 8, func(i int) device.Device {
		p := device.DefaultHDDParams()
		p.Seed = int64(i + 1)
		return device.NewHDD(p)
	})
	cpfs := mkFS("CPFS", 4, func(int) device.Device { return device.NewSSD(device.DefaultSSDParams()) })
	return eqSimBed{eng: eng, opfs: opfs, cpfs: cpfs}
}

// await issues fn and runs the engine until it is idle.
func (b eqSimBed) await(t *testing.T, fn func(done func(error)) error) {
	t.Helper()
	var got error
	fired := false
	if err := fn(func(err error) { got, fired = err, true }); err != nil {
		t.Fatal(err)
	}
	b.eng.Run()
	if !fired {
		t.Fatal("request never completed")
	}
	if got != nil {
		t.Fatal(got)
	}
}

// concurrent builds a one-shard Concurrent on the testbed's clock and
// backends, warm-restarting from store when it is non-nil.
func (b eqSimBed) concurrent(t *testing.T, store *kvstore.Store) *Concurrent {
	t.Helper()
	c, err := NewConcurrent(ConcurrentConfig{
		Clock: b.eng, OPFS: b.opfs, CPFS: b.cpfs, Model: concModel(t),
		CacheCapacity: 256 << 20, Concurrency: 1, MetaStore: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// newEqSimTarget is S4D on an eqSimBed with newConcTestbed's cost model
// and cache capacity, lazy fetch.
func newEqSimTarget(t *testing.T) eqTarget {
	t.Helper()
	b := newEqSimBed(t)
	s, err := New(Config{
		Engine: b.eng, OPFS: b.opfs, CPFS: b.cpfs, Model: concModel(t),
		CacheCapacity: 256 << 20, LazyFetch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eqTarget{eng: s, core: &s.engine, opfs: b.opfs, await: b.await}
}

// newEqSimConcTarget is a one-shard Concurrent on an eqSimBed: the same
// deployment as newEqSimTarget's S4D, driven by sim.Engine as its Clock.
func newEqSimConcTarget(t *testing.T) eqTarget {
	t.Helper()
	b := newEqSimBed(t)
	return b.target(b.concurrent(t, nil))
}

// target is a Concurrent built on the testbed as an equivalence-oracle
// driver.
func (b eqSimBed) target(c *Concurrent) eqTarget {
	return eqTarget{eng: c, core: &c.engine, opfs: b.opfs, await: b.await}
}

// settledGoroutines returns runtime.NumGoroutine once three reads 5 ms
// apart agree (at most about a second), so goroutines an earlier test
// left finishing do not count.
func settledGoroutines() int {
	n, same := runtime.NumGoroutine(), 0
	for i := 0; i < 200 && same < 2; i++ {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// TestConcurrentStartsNoGoroutine runs Concurrent on sim.Engine through a
// cold start, the equivalence script, a warm restart whose staged recovery
// re-admits clean extents, the script again and a drain: every Rebuilder
// and recovery task is a clock event, so the goroutine count ends where it
// started.
func TestConcurrentStartsNoGoroutine(t *testing.T) {
	before := settledGoroutines()
	b := newEqSimBed(t)
	backend := kvstore.NewMemBackend()
	cold := b.concurrent(t, openMetaStore(t, backend))
	runEquivalenceWorkload(t, b.target(cold), false)
	cold.Close()

	warm := b.concurrent(t, openMetaStore(t, backend))
	if st := warm.Stats(); !st.Recovering || st.RecoveredClean != 0 {
		t.Fatalf("warm restart staged no clean extents: recovering=%v recoveredClean=%d", st.Recovering, st.RecoveredClean)
	}
	runEquivalenceWorkload(t, b.target(warm), false)
	warm.DrainRebuild(nil)
	b.eng.Run()
	if st := warm.Stats(); st.Recovering || st.RecoveredClean == 0 || st.Flushes+st.Fetches == 0 {
		t.Fatalf("warm engine did no work: recovering=%v recoveredClean=%d flushes=%d fetches=%d",
			st.Recovering, st.RecoveredClean, st.Flushes, st.Fetches)
	}
	if after := settledGoroutines(); after != before {
		t.Fatalf("goroutines: %d before construction, %d after the run", before, after)
	}
}

// TestCloseFinishesQueuedCycle closes the engine right after starting a
// cycle with flushes and fetches queued on several lanes: the queued tasks
// still run, and the cycle's callback fires.
func TestCloseFinishesQueuedCycle(t *testing.T) {
	tb := newConcTestbed(t, 4, true, false)
	const size = int64(4 << 10)
	for i := 0; i < 16; i++ {
		file := fmt.Sprintf("close%02d", i)
		data := bytes.Repeat([]byte{byte(i + 1)}, int(size))
		await(t, func(done func(error)) error { return tb.eng.Write(0, file, 1<<20, size, data, done) })
		buf := make([]byte, size)
		await(t, func(done func(error)) error { return tb.eng.Read(0, file, 4<<20, size, buf, done) })
	}
	if !tb.eng.DMT().HasDirty() || !tb.eng.CDT().HasPending() {
		t.Fatal("setup queued no flush or no fetch")
	}
	fired := make(chan struct{})
	tb.eng.RebuildNow(func() { close(fired) })
	tb.eng.Close()
	select {
	case <-fired:
	case <-time.After(10 * time.Second):
		t.Fatal("Close stranded the in-flight cycle: its callback never fired")
	}
	if st := tb.eng.Stats(); st.Flushes == 0 || st.Fetches == 0 {
		t.Fatalf("cycle finished without running its tasks: flushes=%d fetches=%d", st.Flushes, st.Fetches)
	}
}

// compareEqState requires two final states to agree with each other and
// their read-back bytes with the local replay.
func compareEqState(t *testing.T, nameA string, a eqState, nameB string, b eqState, expect map[string][]byte) {
	t.Helper()
	// DMT coverage.
	if len(a.dmtExtents) != len(b.dmtExtents) {
		t.Fatalf("DMT file count: %s %d, %s %d", nameA, len(a.dmtExtents), nameB, len(b.dmtExtents))
	}
	for file, aExts := range a.dmtExtents {
		bExts := b.dmtExtents[file]
		if len(aExts) != len(bExts) {
			t.Fatalf("%s: DMT extent count %d vs %d\n%s: %+v\n%s: %+v", file, len(aExts), len(bExts), nameA, aExts, nameB, bExts)
		}
		for i := range aExts {
			if aExts[i] != bExts[i] {
				t.Fatalf("%s: DMT extent %d: %+v vs %+v", file, i, aExts[i], bExts[i])
			}
		}
	}
	// CDT contents.
	if len(a.cdtExtents) != len(b.cdtExtents) {
		t.Fatalf("CDT extent count: %d vs %d", len(a.cdtExtents), len(b.cdtExtents))
	}
	for i := range a.cdtExtents {
		if a.cdtExtents[i] != b.cdtExtents[i] {
			t.Fatalf("CDT extent %d: %+v vs %+v", i, a.cdtExtents[i], b.cdtExtents[i])
		}
	}
	// Every byte of every file, via the engine, against the local replay.
	for file, img := range expect {
		if !bytes.Equal(a.data[file], img) {
			t.Fatalf("%s: %s read-back diverges from replay", file, nameA)
		}
		if !bytes.Equal(b.data[file], img) {
			t.Fatalf("%s: %s read-back diverges from replay", file, nameB)
		}
	}
}

// TestConcurrentCDTBound: CDTMaxBytes splits across shards rounded up, so
// the engine's CDT never tracks more than the bound plus one rounding byte
// per shard, and the bound forces evictions. Three shards: the split must
// not depend on a power-of-two count.
func TestConcurrentCDTBound(t *testing.T) {
	const shards, maxBytes = 3, 1 << 16
	eng := newConcTestbedCfg(t, shards, false, false, func(c *ConcurrentConfig) { c.CDTMaxBytes = maxBytes }).eng
	crit := shardCDT{eng.CDT()}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		crit.Add(fmt.Sprintf("/bound/f%03d", rng.Intn(64)), int64(rng.Intn(1<<14)), int64(1+rng.Intn(1<<10)))
		if b := crit.Bytes(); b > maxBytes+shards {
			t.Fatalf("tracked %d bytes, bound %d (+%d rounding slack)", b, maxBytes, shards)
		}
	}
	var evicted uint64
	for i := range eng.shards {
		evicted += eng.shards[i].cdt.Evicted()
	}
	if evicted == 0 {
		t.Fatal("bound never forced an eviction")
	}
}

// TestConcurrentTortureCrashRestart hammers a faulty wall-clock engine
// with 8 client goroutines while the fault driver crashes and restarts a
// CServer five times. Run under -race this is the concurrency oracle for
// the degraded-mode paths: no data race, no deadlock, every issued op
// completes, and the engine drains cleanly afterwards.
func TestConcurrentTortureCrashRestart(t *testing.T) {
	tb := newConcTestbed(t, 8, false, true)
	const clients = 8
	const opsPerClient = 150
	var wg sync.WaitGroup
	var completed sync.WaitGroup
	for cidx := 0; cidx < clients; cidx++ {
		wg.Add(1)
		go func(cidx int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(cidx)))
			file := fmt.Sprintf("torture%d", cidx)
			for i := 0; i < opsPerClient; i++ {
				off := rng.Int63n(1 << 20)
				size := int64(4<<10) + rng.Int63n(28<<10)
				completed.Add(1)
				done := func(error) { completed.Done() }
				var err error
				if rng.Intn(3) > 0 {
					err = tb.eng.Write(cidx, file, off, size, nil, done)
				} else {
					err = tb.eng.Read(cidx, file, off, size, nil, done)
				}
				if err != nil {
					t.Error(err)
					completed.Done()
					return
				}
				if i%8 == 0 {
					time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
				}
			}
		}(cidx)
	}
	// Fault driver: crash/restart CServer 1 five times under load, with a
	// restart guaranteed last so every deferred read is flushed.
	for i := 0; i < 5; i++ {
		time.Sleep(3 * time.Millisecond)
		tb.cpfs.SetServerDown(1, true, true)
		time.Sleep(3 * time.Millisecond)
		tb.cpfs.SetServerDown(1, false, true)
	}
	wg.Wait()
	completed.Wait()

	ch := make(chan struct{})
	tb.eng.DrainRebuild(func() { close(ch) })
	<-ch

	st := tb.eng.Stats()
	if got := st.Reads + st.Writes; got != clients*opsPerClient {
		t.Fatalf("engine served %d requests, want %d", got, clients*opsPerClient)
	}
	if tb.cpfs.AnyServerDown() {
		t.Fatal("CServer left down at exit")
	}
	checkInvariants(t, &tb.eng.engine)
}

// lateClock times the engine's periodic callbacks: each After of at
// least a millisecond (here the Rebuilder's) records how late it ran.
type lateClock struct {
	sim.Clock
	mu   sync.Mutex
	late []time.Duration
}

func (l *lateClock) After(d time.Duration, fn func()) {
	if d < time.Millisecond {
		l.Clock.After(d, fn)
		return
	}
	due := l.Now() + d
	l.Clock.After(d, func() {
		late := l.Now() - due
		l.mu.Lock()
		l.late = append(l.late, late)
		l.mu.Unlock()
		fn()
	})
}

// TestConcurrentPeriodicRebuildUnderLoad checks the timer-driven Rebuilder
// under the read/rewrite traffic of TestConcurrentReadEvictionChurn, which
// tops its flushes up with explicit cycles: on the wall backend, with four
// clients keeping the servers' queues busy, the 2 ms periodic cycle keeps
// firing near its period and flushes dirty data clean while the traffic
// runs.
func TestConcurrentPeriodicRebuildUnderLoad(t *testing.T) {
	const (
		clients  = 4
		fileSize = int64(256 << 10)
		period   = 2 * time.Millisecond
		run      = 150 * time.Millisecond
	)
	lc := &lateClock{}
	tb := newConcTestbedCfg(t, clients, false, false, func(cfg *ConcurrentConfig) {
		cfg.CacheCapacity = clients * fileSize / 2
		cfg.Policy = PolicyAll
		cfg.RebuildPeriod = period
		lc.Clock = cfg.Clock
		cfg.Clock = lc
	})
	deadline := time.Now().Add(run)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			file := eqFile(cl)
			rng := rand.New(rand.NewSource(int64(700 + cl)))
			for time.Now().Before(deadline) {
				off := rng.Int63n(fileSize - 16<<10)
				size := int64(1<<10) + rng.Int63n(15<<10)
				if rng.Intn(4) == 0 {
					await(t, func(done func(error)) error {
						return tb.eng.Write(cl, file, off, size, nil, done)
					})
					continue
				}
				await(t, func(done func(error)) error {
					return tb.eng.Read(cl, file, off, size, nil, done)
				})
			}
		}(cl)
	}
	wg.Wait()
	st := tb.eng.Stats()
	lc.mu.Lock()
	late := append([]time.Duration(nil), lc.late...)
	lc.mu.Unlock()
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	if min := int(run / period / 5); len(late) < min {
		t.Fatalf("%d periodic Rebuilder callbacks in %v, want at least %d", len(late), run, min)
	}
	if med := late[len(late)/2]; med > period {
		t.Fatalf("periodic Rebuilder callbacks ran %v late in the median, more than the %v period", med, period)
	}
	if st.Flushes == 0 {
		t.Fatalf("periodic cycles flushed nothing under traffic (%d cycles)", st.RebuildCycles)
	}
	t.Logf("%d periodic callbacks, late p50 %v max %v; %d cycles, %d flushes",
		len(late), late[len(late)/2], late[len(late)-1], st.RebuildCycles, st.Flushes)
}

// TestConcurrentReadEvictionChurn hammers the read path while the cache
// is too small for the working set, so allocations continuously evict
// mappings of files other clients are reading. Run under -race this is
// the eviction-race oracle: every read must return either bytes the owner
// wrote or zeroes (never another file's recycled bytes), with evictions
// provably occurring.
func TestConcurrentReadEvictionChurn(t *testing.T) {
	const (
		clients  = 4
		fileSize = int64(256 << 10)
		ops      = 120
	)
	tb := newConcTestbedCfg(t, clients, true, false, func(cfg *ConcurrentConfig) {
		// Capacity holds about half the combined working set, per-shard
		// regions.
		cfg.CacheCapacity = clients * fileSize / 2
		cfg.Policy = PolicyAll
		// A running Rebuilder keeps flushing dirty extents clean, so the
		// undersized cache actually evicts (dirty space is never
		// reclaimed).
		cfg.RebuildPeriod = 2 * time.Millisecond
	})
	images := make([][]byte, clients)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		img := make([]byte, fileSize)
		rand.New(rand.NewSource(int64(500 + cl))).Read(img)
		images[cl] = img
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			file := eqFile(cl)
			rng := rand.New(rand.NewSource(int64(600 + cl)))
			await(t, func(done func(error)) error {
				return tb.eng.Write(cl, file, 0, fileSize, images[cl], done)
			})
			for i := 0; i < ops; i++ {
				if i%10 == 9 {
					// Flush clean between the periodic cycles too. The
					// churn lasts about five periods, and on a loaded host
					// it can end before a periodic cycle has made anything
					// clean, so nothing evicts (about one run in 200 under
					// a second test process's load). The periodic cycles
					// are checked by TestConcurrentPeriodicRebuildUnderLoad.
					tb.eng.RebuildNow(nil)
				}
				off := rng.Int63n(fileSize - 16<<10)
				size := int64(1<<10) + rng.Int63n(15<<10)
				if rng.Intn(4) == 0 {
					// Rewrite to keep allocation (and thus eviction) pressure up.
					await(t, func(done func(error)) error {
						return tb.eng.Write(cl, file, off, size, images[cl][off:off+size], done)
					})
					continue
				}
				buf := make([]byte, size)
				await(t, func(done func(error)) error {
					return tb.eng.Read(cl, file, off, size, buf, done)
				})
				img := images[cl]
				for j := range buf {
					if buf[j] != img[off+int64(j)] && buf[j] != 0 {
						t.Errorf("client %d off %d+%d: read byte %d, want %d or 0 — foreign bytes served",
							cl, off, j, buf[j], img[off+int64(j)])
						return
					}
				}
			}
		}(cl)
	}
	wg.Wait()
	if tb.eng.Space().Stats().Evictions == 0 {
		t.Fatal("no evictions occurred; churn test exercises nothing")
	}
	checkInvariants(t, &tb.eng.engine)
}
