package core

import (
	"testing"
	"time"

	"s4dcache/internal/costmodel"
	"s4dcache/internal/device"
	"s4dcache/internal/kvstore"
	"s4dcache/internal/netmodel"
	"s4dcache/internal/pfs"
	"s4dcache/internal/sim"
)

// newPerfTestbed builds a performance-mode (metadata-only stores, no DMT
// persistence) S4D deployment for allocation measurement.
func newPerfTestbed(t *testing.T) *testbed {
	t.Helper()
	return newPerfTestbedCfg(t, nil)
}

func newPerfTestbedCfg(t testing.TB, mutate func(*Config)) *testbed {
	t.Helper()
	eng := sim.NewEngine()
	mk := func(label string, servers int, dev func(i int) device.Device) *pfs.FS {
		fs, err := pfs.New(pfs.Config{
			Label:     label,
			Layout:    pfs.Layout{Servers: servers, StripeSize: 64 << 10},
			Engine:    eng,
			NewDevice: dev,
			Net:       netmodel.Gigabit(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	opfs := mk("OPFS", 8, func(i int) device.Device {
		p := device.DefaultHDDParams()
		p.Seed = int64(i + 1)
		return device.NewHDD(p)
	})
	cpfs := mk("CPFS", 4, func(i int) device.Device {
		return device.NewSSD(device.DefaultSSDParams())
	})
	curve, err := device.ProfileSeekCurve(device.NewHDD(device.DefaultHDDParams()), device.DefaultProfileConfig())
	if err != nil {
		t.Fatal(err)
	}
	model := costmodel.Calibrate(device.DefaultHDDParams(), device.DefaultSSDParams(), netmodel.Gigabit(), curve)
	model.M = 8
	model.N = 4
	model.Stripe = 64 << 10
	cfg := Config{
		Engine:        eng,
		OPFS:          opfs,
		CPFS:          cpfs,
		Model:         model,
		CacheCapacity: 64 << 20,
		LazyFetch:     true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s4d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &testbed{eng: eng, opfs: opfs, cpfs: cpfs, s4d: s4d}
}

// TestIdentifyZeroAllocs pins the Data Identifier at zero heap allocations
// per evaluated request: the struct-keyed stream tracker and the
// stack-scratch cost model must hold for both sequential (non-critical)
// and random (critical, CDT-updating) requests.
func TestIdentifyZeroAllocs(t *testing.T) {
	tb := newPerfTestbed(t)
	// Sequential large request: benefit <= 0, pure model path.
	seq := func() { tb.s4d.identify(0, "seq", 0, 4<<20, false) }
	seq()
	if got := testing.AllocsPerRun(100, seq); got != 0 {
		t.Fatalf("identify (sequential) allocates %v per op, want 0", got)
	}
	// Random small request, same range every time: critical path with a
	// steady-state CDT re-add.
	rnd := func() { tb.s4d.identify(1, "rnd", 1<<30, 16<<10, false) }
	rnd()
	if got := testing.AllocsPerRun(100, rnd); got != 0 {
		t.Fatalf("identify (critical) allocates %v per op, want 0", got)
	}
}

// TestWriteCacheHitZeroAllocs pins the steady-state performance-mode write
// path — identify, DMT lookup, cache-hit re-dirty, CPFS fan-out — at zero
// heap allocations per request.
func TestWriteCacheHitZeroAllocs(t *testing.T) {
	tb := newPerfTestbed(t)
	issue := func() {
		if err := tb.s4d.Write(0, "f", 1<<30, 16<<10, nil, nil); err != nil {
			t.Fatal(err)
		}
		tb.eng.Run()
	}
	// First call admits the segment (allocates cache space and mappings);
	// every later call is a pure DMT hit.
	issue()
	issue()
	if got := testing.AllocsPerRun(100, issue); got != 0 {
		t.Fatalf("steady-state Write allocates %v per op, want 0", got)
	}
}

// TestReadCacheHitZeroAllocs pins the steady-state performance-mode read
// path (cache hit) at zero heap allocations per request.
func TestReadCacheHitZeroAllocs(t *testing.T) {
	tb := newPerfTestbed(t)
	if err := tb.s4d.Write(0, "f", 1<<30, 16<<10, nil, nil); err != nil {
		t.Fatal(err)
	}
	tb.eng.Run()
	issue := func() {
		if err := tb.s4d.Read(0, "f", 1<<30, 16<<10, nil, nil); err != nil {
			t.Fatal(err)
		}
		tb.eng.Run()
	}
	issue()
	if got := testing.AllocsPerRun(100, issue); got != 0 {
		t.Fatalf("steady-state Read allocates %v per op, want 0", got)
	}
}

// BenchmarkWritePerf measures the performance-mode write path over a
// 4MB working set of 16KB requests from four ranks, each run to
// completion: identify, DMT lookup or admission, CPFS fan-out.
func BenchmarkWritePerf(b *testing.B) {
	tb := newPerfTestbedCfg(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%256) * (16 << 10)
		if err := tb.s4d.Write(i%4, "f", off, 16<<10, nil, nil); err != nil {
			b.Fatal(err)
		}
		tb.eng.Run()
	}
}

// TestRebuildPendingZeroAllocs pins the Rebuilder's poll predicate at zero
// heap allocations: it used to build DirtyExtents(1)/PendingFetches(1)
// slices just to check emptiness, on every periodic tick. Pinned in both
// states (pending work and drained) so neither branch regresses.
func TestRebuildPendingZeroAllocs(t *testing.T) {
	tb := newPerfTestbed(t)
	// Dirty data present: a critical random write absorbed into the cache.
	if err := tb.s4d.Write(0, "f", 1<<30, 16<<10, nil, nil); err != nil {
		t.Fatal(err)
	}
	tb.eng.Run()
	if !tb.s4d.RebuildPending() {
		t.Fatal("no pending rebuild work after a cache-absorbed write")
	}
	if got := testing.AllocsPerRun(100, func() { tb.s4d.RebuildPending() }); got != 0 {
		t.Fatalf("RebuildPending (pending) allocates %v per op, want 0", got)
	}
	tb.s4d.DrainRebuild(nil)
	tb.eng.Run()
	if tb.s4d.RebuildPending() {
		t.Fatal("rebuild work still pending after drain")
	}
	if got := testing.AllocsPerRun(100, func() { tb.s4d.RebuildPending() }); got != 0 {
		t.Fatalf("RebuildPending (drained) allocates %v per op, want 0", got)
	}
}

// TestEpochPruning verifies the fileEpoch satellite: epochs of files whose
// DMT and CDT footprints are gone are dropped at Rebuilder cycle
// boundaries, so the map no longer grows with every file ever written.
func TestEpochPruning(t *testing.T) {
	tb := newPerfTestbed(t)
	s := tb.s4d
	// A large sequential write: not critical, never cached, but it still
	// bumps the file's epoch.
	for i := 0; i < 8; i++ {
		file := "cold-" + string(rune('a'+i))
		if err := s.Write(0, file, 0, 4<<20, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	// A critical random write that stays cached.
	if err := s.Write(0, "hot", 1<<30, 16<<10, nil, nil); err != nil {
		t.Fatal(err)
	}
	tb.eng.Run()
	if got := s.TrackedEpochs(); got != 9 {
		t.Fatalf("TrackedEpochs = %d before prune, want 9", got)
	}
	done := false
	s.RebuildNow(func() { done = true })
	tb.eng.Run()
	if !done {
		t.Fatal("rebuild cycle did not complete")
	}
	// The cold files have no DMT mappings or CDT extents: pruned. The hot
	// file keeps its epoch (it is mapped, and its dirty flush retains it in
	// the CDT/DMT until written back and evicted).
	if got := s.TrackedEpochs(); got >= 9 {
		t.Fatalf("TrackedEpochs = %d after prune, want < 9", got)
	}
	if s.Stats().EpochsPruned == 0 {
		t.Fatal("EpochsPruned stat not incremented")
	}
	if !s.dmt.FileMapped("hot") {
		t.Fatal("hot file unexpectedly unmapped")
	}
	if s.TrackedEpochs() < 1 {
		t.Fatal("hot file epoch pruned while still mapped")
	}
}

// TestServeZeroAllocsWithSnapshotting pins the steady-state serve path at
// zero heap allocations with durable snapshotting configured and a
// snapshot already taken: between ticks, cache-hit reads and re-dirtying
// writes must touch neither the metadata store nor the heap. The snapshot
// ticker keeps the event queue non-empty, so the driver steps virtual time
// with RunUntil instead of Run.
func TestServeZeroAllocsWithSnapshotting(t *testing.T) {
	store, err := kvstore.Open(kvstore.NewMemBackend(), "dmt", kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb := newPerfTestbedCfg(t, func(c *Config) {
		c.MetaStore = store
		c.SnapshotPeriod = time.Hour
	})
	step := func(fn func() error) func() {
		return func() {
			if err := fn(); err != nil {
				t.Fatal(err)
			}
			tb.eng.RunUntil(tb.eng.Now() + time.Millisecond)
		}
	}
	write := step(func() error { return tb.s4d.Write(0, "f", 1<<30, 16<<10, nil, nil) })
	read := step(func() error { return tb.s4d.Read(0, "f", 1<<30, 16<<10, nil, nil) })
	write() // admits (allocates mappings, persists the insert)
	write()
	tb.s4d.snapshotTick() // a real snapshot + log compaction has run
	if tb.s4d.Stats().Snapshots != 1 {
		t.Fatal("snapshot did not run")
	}
	write()
	if got := testing.AllocsPerRun(100, write); got != 0 {
		t.Fatalf("steady-state Write with snapshotting allocates %v per op, want 0", got)
	}
	read()
	if got := testing.AllocsPerRun(100, read); got != 0 {
		t.Fatalf("steady-state Read with snapshotting allocates %v per op, want 0", got)
	}
}
