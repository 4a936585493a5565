package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"s4dcache/internal/cdt"
	"s4dcache/internal/costmodel"
	"s4dcache/internal/device"
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
	curve, err := device.ProfileSeekCurve(device.NewHDD(device.DefaultHDDParams()), device.DefaultProfileConfig())
	if err != nil {
		t.Fatal(err)
	}
	model := costmodel.Calibrate(device.DefaultHDDParams(), device.DefaultSSDParams(), netmodel.Gigabit(), curve)
	model.M = 8
	model.N = 4
	model.Stripe = 16 << 10
	cfg := ConcurrentConfig{
		Clock:         clock,
		OPFS:          opfs,
		CPFS:          cpfs,
		Model:         model,
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

// runEquivalenceRank replays rank's seeded op sequence, one op outstanding
// at a time, maintaining the expected byte image of its write region.
func runEquivalenceRank(t *testing.T, tb *concTestbed, rank int, expect []byte) {
	rng := rand.New(rand.NewSource(int64(1000 + rank)))
	file := eqFile(rank)
	for i := 0; i < eqOps; i++ {
		off := rng.Int63n(eqWriteSpan - 32<<10)
		size := int64(4<<10) + rng.Int63n(28<<10)
		if rng.Intn(2) == 0 {
			data := make([]byte, size)
			rng.Read(data)
			copy(expect[off:], data)
			await(t, func(done func(error)) error {
				return tb.eng.Write(rank, file, off, size, data, done)
			})
		} else {
			roff := eqWriteSpan + rng.Int63n(eqReadSpan-32<<10)
			buf := make([]byte, size)
			await(t, func(done func(error)) error {
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
func captureEqState(t *testing.T, tb *concTestbed) eqState {
	t.Helper()
	st := eqState{dmtExtents: make(map[string][]eqExtent), data: make(map[string][]byte)}
	for _, h := range tb.eng.DMT().CleanExtents(0) {
		st.dmtExtents[h.File] = append(st.dmtExtents[h.File], eqExtent{h.Off, h.Len, false})
	}
	for _, h := range tb.eng.DMT().DirtyExtents(0) {
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
	st.cdtExtents = tb.eng.CDT().Extents()
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
		await(t, func(done func(error)) error {
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
func runEquivalenceWorkload(t *testing.T, tb *concTestbed, parallel bool) (eqState, map[string][]byte) {
	// Seed every rank's read region with a deterministic pattern through
	// the OPFS directly, so reads return real bytes and lazy fetches have
	// content to move.
	expect := make(map[string][]byte)
	for r := 0; r < eqRanks; r++ {
		img := make([]byte, eqWriteSpan+eqReadSpan)
		rng := rand.New(rand.NewSource(int64(7000 + r)))
		rng.Read(img[eqWriteSpan:])
		await(t, func(done func(error)) error {
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
	ch := make(chan struct{})
	tb.eng.DrainRebuild(func() { close(ch) })
	<-ch
	if tb.eng.RebuildPending() {
		t.Fatal("rebuild still pending after drain")
	}
	return captureEqState(t, tb), expect
}

// TestConcurrentEquivalence runs the same seeded multi-rank trace on a
// 1-shard engine driven by one goroutine and a 16-shard engine driven by
// 16 goroutines, and requires identical final file-space state: DMT
// coverage (offsets/lengths/dirty, cache placement excluded), CDT
// contents, and every byte of every file read back through the engine.
func TestConcurrentEquivalence(t *testing.T) {
	seqTB := newConcTestbed(t, 1, true, false)
	seqState, expect := runEquivalenceWorkload(t, seqTB, false)

	conTB := newConcTestbed(t, 16, true, false)
	conState, _ := runEquivalenceWorkload(t, conTB, true)

	// DMT coverage.
	if len(seqState.dmtExtents) != len(conState.dmtExtents) {
		t.Fatalf("DMT file count: sequential %d, concurrent %d", len(seqState.dmtExtents), len(conState.dmtExtents))
	}
	for file, seqExts := range seqState.dmtExtents {
		conExts := conState.dmtExtents[file]
		if len(seqExts) != len(conExts) {
			t.Fatalf("%s: DMT extent count %d vs %d\nseq: %+v\ncon: %+v", file, len(seqExts), len(conExts), seqExts, conExts)
		}
		for i := range seqExts {
			if seqExts[i] != conExts[i] {
				t.Fatalf("%s: DMT extent %d: %+v vs %+v", file, i, seqExts[i], conExts[i])
			}
		}
	}
	// CDT contents.
	if len(seqState.cdtExtents) != len(conState.cdtExtents) {
		t.Fatalf("CDT extent count: %d vs %d", len(seqState.cdtExtents), len(conState.cdtExtents))
	}
	for i := range seqState.cdtExtents {
		if seqState.cdtExtents[i] != conState.cdtExtents[i] {
			t.Fatalf("CDT extent %d: %+v vs %+v", i, seqState.cdtExtents[i], conState.cdtExtents[i])
		}
	}
	// Every byte of every file, via the engine, against the local replay.
	for file, img := range expect {
		if !bytes.Equal(seqState.data[file], img) {
			t.Fatalf("%s: sequential read-back diverges from replay", file)
		}
		if !bytes.Equal(conState.data[file], img) {
			t.Fatalf("%s: concurrent read-back diverges from replay", file)
		}
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

// TestConcurrentRejectedBySequentialNew pins the Config guard: the
// deterministic constructor must refuse concurrent requests.
func TestConcurrentRejectedBySequentialNew(t *testing.T) {
	eng := sim.NewEngine()
	_, err := New(Config{Engine: eng, Concurrency: 4})
	if err == nil {
		t.Fatal("New accepted Concurrency=4")
	}
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
	if tb.eng.Space().Evictions() == 0 {
		t.Fatal("no evictions occurred; churn test exercises nothing")
	}
}
