package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"s4dcache/internal/chunkstore"
	"s4dcache/internal/costmodel"
	"s4dcache/internal/device"
	"s4dcache/internal/faults"
	"s4dcache/internal/kvstore"
	"s4dcache/internal/netmodel"
	"s4dcache/internal/pfs"
	"s4dcache/internal/sim"
)

// testbed is a functional S4D deployment: 8 HDD DServers, 4 SSD CServers,
// sparse payload stores, calibrated cost model.
type testbed struct {
	eng  *sim.Engine
	opfs *pfs.FS
	cpfs *pfs.FS
	s4d  *S4D
}

func newTestbed(t *testing.T, mutate func(*Config)) *testbed {
	t.Helper()
	return newFaultyTestbed(t, "", 1, mutate)
}

// newFaultyTestbed builds the same deployment with a fault plan injected
// on the CServers (empty plan = healthy testbed).
func newFaultyTestbed(t *testing.T, plan string, seed int64, mutate func(*Config)) *testbed {
	t.Helper()
	var injector *faults.Injector
	if plan != "" {
		p, err := faults.Parse(plan)
		if err != nil {
			t.Fatal(err)
		}
		injector = faults.NewInjector(p, seed)
	}
	eng := sim.NewEngine()
	opfs, err := pfs.New(pfs.Config{
		Label:  "OPFS",
		Layout: pfs.Layout{Servers: 8, StripeSize: 64 << 10},
		Engine: eng,
		NewDevice: func(i int) device.Device {
			p := device.DefaultHDDParams()
			p.Seed = int64(i + 1)
			return device.NewHDD(p)
		},
		NewStore: func(int) chunkstore.Store { return chunkstore.NewSparse() },
		Net:      netmodel.Gigabit(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cpfs, err := pfs.New(pfs.Config{
		Label:  "CPFS",
		Layout: pfs.Layout{Servers: 4, StripeSize: 64 << 10},
		Engine: eng,
		NewDevice: func(i int) device.Device {
			return device.NewSSD(device.DefaultSSDParams())
		},
		NewStore: func(int) chunkstore.Store { return chunkstore.NewSparse() },
		Net:      netmodel.Gigabit(),
		Faults:   injector,
	})
	if err != nil {
		t.Fatal(err)
	}
	hdd := device.NewHDD(device.DefaultHDDParams())
	curve, err := device.ProfileSeekCurve(hdd, device.DefaultProfileConfig())
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
		CacheCapacity: 4 << 20,
		LazyFetch:     true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s4d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if injector != nil {
		cpfs.SetStateHook(s4d.OnCServerState)
	}
	return &testbed{eng: eng, opfs: opfs, cpfs: cpfs, s4d: s4d}
}

func (tb *testbed) write(t *testing.T, rank int, file string, off int64, data []byte) {
	t.Helper()
	if err := tb.s4d.Write(rank, file, off, int64(len(data)), data, nil); err != nil {
		t.Fatal(err)
	}
	tb.eng.Run()
}

func (tb *testbed) read(t *testing.T, rank int, file string, off, size int64) []byte {
	t.Helper()
	buf := make([]byte, size)
	if err := tb.s4d.Read(rank, file, off, size, buf, nil); err != nil {
		t.Fatal(err)
	}
	tb.eng.Run()
	return buf
}

func pattern(seed byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = seed ^ byte(i*131>>3)
	}
	return out
}

// randomish 16KB writes at far offsets are critical; sequential appends
// are not (verified by the costmodel tests). These helpers encode the
// testbed's canonical critical/non-critical requests.
const critOff = 1 << 30 // first request at 1GB → distance 1GB → critical

func TestConfigValidation(t *testing.T) {
	tb := newTestbed(t, nil)
	base := Config{Engine: tb.eng, OPFS: tb.opfs, CPFS: tb.cpfs, Model: tb.s4d.Model(), CacheCapacity: 1 << 20}
	bad := base
	bad.Engine = nil
	if _, err := New(bad); err == nil {
		t.Fatal("nil engine accepted")
	}
	bad = base
	bad.OPFS = nil
	if _, err := New(bad); err == nil {
		t.Fatal("nil OPFS accepted")
	}
	bad = base
	bad.CacheCapacity = 0
	if _, err := New(bad); err == nil {
		t.Fatal("zero capacity accepted")
	}
	bad = base
	bad.Model.M = 0
	if _, err := New(bad); err == nil {
		t.Fatal("invalid model accepted")
	}
}

func TestRequestValidation(t *testing.T) {
	tb := newTestbed(t, nil)
	if err := tb.s4d.Write(0, "f", -1, 10, nil, nil); err == nil {
		t.Fatal("negative offset accepted")
	}
	if err := tb.s4d.Read(0, "f", 0, -1, nil, nil); err == nil {
		t.Fatal("negative size accepted")
	}
	if err := tb.s4d.Write(0, "f", 0, 10, make([]byte, 3), nil); err == nil {
		t.Fatal("payload mismatch accepted")
	}
	done := false
	if err := tb.s4d.Write(0, "f", 0, 0, nil, func(error) { done = true }); err != nil {
		t.Fatal(err)
	}
	tb.eng.Run()
	if !done {
		t.Fatal("zero-size write did not complete")
	}
}

func TestCriticalWriteAbsorbedByCache(t *testing.T) {
	tb := newTestbed(t, nil)
	data := pattern(1, 16<<10)
	tb.write(t, 0, "f", critOff, data)

	st := tb.s4d.Stats()
	if st.Admissions != 1 || st.SegWritesCache != 1 || st.SegWritesDisk != 0 {
		t.Fatalf("stats = %+v, want one cache admission", st)
	}
	if !tb.s4d.DMT().Contains("f", critOff, 16<<10) {
		t.Fatal("written range not mapped in DMT")
	}
	if tb.s4d.Space().Stats().DirtyBytes != 16<<10 {
		t.Fatalf("DirtyBytes = %d, want 16KB", tb.s4d.Space().Stats().DirtyBytes)
	}
	// The data must live on the CServers, not the DServers.
	if tb.cpfs.Stats().BytesWritten != 16<<10 {
		t.Fatalf("CPFS bytes written = %d", tb.cpfs.Stats().BytesWritten)
	}
	if tb.opfs.Stats().BytesWritten != 0 {
		t.Fatalf("OPFS bytes written = %d, want 0", tb.opfs.Stats().BytesWritten)
	}
	// And read back correctly (cache hit).
	got := tb.read(t, 0, "f", critOff, 16<<10)
	if !bytes.Equal(got, data) {
		t.Fatal("cache round trip corrupted data")
	}
	if tb.s4d.Stats().SegReadsCache != 1 {
		t.Fatal("read was not served by the cache")
	}
}

func TestSequentialWriteGoesToDServers(t *testing.T) {
	tb := newTestbed(t, nil)
	// Sequential 64KB appends from offset 0: never critical.
	for i := int64(0); i < 8; i++ {
		tb.write(t, 0, "f", i*64<<10, pattern(byte(i), 64<<10))
	}
	st := tb.s4d.Stats()
	if st.SegWritesCache != 0 {
		t.Fatalf("sequential writes hit the cache: %+v", st)
	}
	if st.SegWritesDisk != 8 {
		t.Fatalf("SegWritesDisk = %d, want 8", st.SegWritesDisk)
	}
	if tb.s4d.DMT().Entries() != 0 {
		t.Fatal("sequential writes created mappings")
	}
}

func TestLargeWriteGoesToDServers(t *testing.T) {
	tb := newTestbed(t, func(c *Config) { c.CacheCapacity = 64 << 20 })
	tb.write(t, 0, "f", critOff, pattern(3, 4<<20))
	st := tb.s4d.Stats()
	if st.SegWritesCache != 0 || st.SegWritesDisk != 1 {
		t.Fatalf("4MB write routing: %+v", st)
	}
}

func TestWriteHitReDirtiesMapping(t *testing.T) {
	tb := newTestbed(t, nil)
	tb.write(t, 0, "f", critOff, pattern(1, 16<<10))
	// Flush so the mapping is clean.
	tb.s4d.RebuildNow(nil)
	tb.eng.Run()
	if tb.s4d.Space().Stats().DirtyBytes != 0 {
		t.Fatalf("flush left %d dirty bytes", tb.s4d.Space().Stats().DirtyBytes)
	}
	// Overwrite the same range: must hit the mapping and re-dirty it.
	newData := pattern(9, 16<<10)
	tb.write(t, 0, "f", critOff, newData)
	st := tb.s4d.Stats()
	if st.SegWritesCache != 2 {
		t.Fatalf("overwrite did not hit the cache: %+v", st)
	}
	if tb.s4d.Space().Stats().DirtyBytes != 16<<10 {
		t.Fatal("overwrite did not re-dirty the space")
	}
	if got := tb.read(t, 0, "f", critOff, 16<<10); !bytes.Equal(got, newData) {
		t.Fatal("overwrite data lost")
	}
}

func TestFlushWritesBackAndCleans(t *testing.T) {
	tb := newTestbed(t, nil)
	data := pattern(5, 16<<10)
	tb.write(t, 0, "f", critOff, data)
	tb.s4d.RebuildNow(nil)
	tb.eng.Run()

	st := tb.s4d.Stats()
	if st.Flushes != 1 || st.BytesFlushed != 16<<10 {
		t.Fatalf("flush stats = %+v", st)
	}
	// Data must now exist on the DServers too.
	buf := make([]byte, 16<<10)
	if err := tb.opfs.Read("f", critOff, 16<<10, sim.PriorityHigh, buf, nil); err != nil {
		t.Fatal(err)
	}
	tb.eng.Run()
	if !bytes.Equal(buf, data) {
		t.Fatal("flushed data corrupt on DServers")
	}
	// Mapping survives, now clean: reads still hit the cache.
	got := tb.read(t, 0, "f", critOff, 16<<10)
	if !bytes.Equal(got, data) || tb.s4d.Stats().SegReadsCache != 1 {
		t.Fatal("post-flush read not served by cache")
	}
}

func TestCriticalReadMissLazyFetch(t *testing.T) {
	tb := newTestbed(t, nil)
	data := pattern(7, 16<<10)
	// Seed the DServers directly (pre-existing file).
	if err := tb.opfs.Write("f", critOff, 16<<10, sim.PriorityHigh, data, nil); err != nil {
		t.Fatal(err)
	}
	tb.eng.Run()

	// First run: random read → served by DServers, marked for fetch.
	got := tb.read(t, 0, "f", critOff, 16<<10)
	if !bytes.Equal(got, data) {
		t.Fatal("read miss corrupted data")
	}
	st := tb.s4d.Stats()
	if st.SegReadsDisk != 1 || st.SegReadsCache != 0 || st.LazyMarks != 1 {
		t.Fatalf("first-run stats = %+v", st)
	}

	// Rebuilder fetches it.
	tb.s4d.DrainRebuild(nil)
	tb.eng.Run()
	if tb.s4d.Stats().Fetches != 1 {
		t.Fatalf("fetch did not run: %+v", tb.s4d.Stats())
	}
	if !tb.s4d.DMT().Contains("f", critOff, 16<<10) {
		t.Fatal("fetched range not mapped")
	}

	// Second run: served by the CServers.
	got = tb.read(t, 0, "f", critOff, 16<<10)
	if !bytes.Equal(got, data) {
		t.Fatal("second-run read corrupted data")
	}
	if tb.s4d.Stats().SegReadsCache != 1 {
		t.Fatal("second-run read not served by cache")
	}
}

func TestNoSpaceFallsBackToDServers(t *testing.T) {
	tb := newTestbed(t, func(c *Config) { c.CacheCapacity = 32 << 10 })
	// Two critical 16KB writes fill the cache with dirty data.
	tb.write(t, 0, "f", critOff, pattern(1, 16<<10))
	tb.write(t, 0, "f", critOff+(8<<20), pattern(2, 16<<10))
	// Third critical write cannot be absorbed (all dirty, no flush yet).
	tb.write(t, 0, "f", critOff+(16<<20), pattern(3, 16<<10))
	st := tb.s4d.Stats()
	if st.AdmitFailures != 1 || st.SegWritesDisk != 1 {
		t.Fatalf("stats = %+v, want one admit failure to DServers", st)
	}
	// After a flush, space is reclaimable and admission works again.
	tb.s4d.RebuildNow(nil)
	tb.eng.Run()
	tb.write(t, 0, "f", critOff+(24<<20), pattern(4, 16<<10))
	if tb.s4d.Stats().Admissions != 3 {
		t.Fatalf("post-flush admission failed: %+v", tb.s4d.Stats())
	}
}

func TestEvictionPreservesData(t *testing.T) {
	tb := newTestbed(t, func(c *Config) { c.CacheCapacity = 32 << 10 })
	a := pattern(1, 16<<10)
	b := pattern(2, 16<<10)
	c := pattern(3, 16<<10)
	offA, offB, offC := int64(critOff), int64(critOff+(8<<20)), int64(critOff+(16<<20))
	tb.write(t, 0, "f", offA, a)
	tb.write(t, 0, "f", offB, b)
	// Flush so both are clean (and safely on DServers).
	tb.s4d.RebuildNow(nil)
	tb.eng.Run()
	// Third critical write evicts the LRU clean extent (A).
	tb.write(t, 0, "f", offC, c)
	if !tb.s4d.DMT().Contains("f", offC, 16<<10) {
		t.Fatal("C not admitted after eviction")
	}
	if tb.s4d.DMT().Contains("f", offA, 16<<10) {
		t.Fatal("evicted mapping A still present")
	}
	// All three ranges still read correctly (A from DServers now).
	if got := tb.read(t, 0, "f", offA, 16<<10); !bytes.Equal(got, a) {
		t.Fatal("A corrupted after eviction")
	}
	if got := tb.read(t, 0, "f", offB, 16<<10); !bytes.Equal(got, b) {
		t.Fatal("B corrupted")
	}
	if got := tb.read(t, 0, "f", offC, 16<<10); !bytes.Equal(got, c) {
		t.Fatal("C corrupted")
	}
}

func TestPartialHitSplitsRequest(t *testing.T) {
	tb := newTestbed(t, nil)
	// Cache the middle 16KB of a 48KB region.
	mid := pattern(8, 16<<10)
	tb.write(t, 0, "f", critOff+16<<10, mid)
	if tb.s4d.Stats().Admissions != 1 {
		t.Fatal("setup: middle write not admitted")
	}
	// Seed the flanks directly on the DServers.
	flankL := pattern(4, 16<<10)
	flankR := pattern(6, 16<<10)
	if err := tb.opfs.Write("f", critOff, 16<<10, sim.PriorityHigh, flankL, nil); err != nil {
		t.Fatal(err)
	}
	if err := tb.opfs.Write("f", critOff+32<<10, 16<<10, sim.PriorityHigh, flankR, nil); err != nil {
		t.Fatal(err)
	}
	tb.eng.Run()
	// A 48KB read spans disk|cache|disk.
	got := tb.read(t, 0, "f", critOff, 48<<10)
	want := append(append(append([]byte{}, flankL...), mid...), flankR...)
	if !bytes.Equal(got, want) {
		t.Fatal("partial-hit read returned wrong bytes")
	}
	st := tb.s4d.Stats()
	if st.SegReadsCache != 1 || st.SegReadsDisk != 2 {
		t.Fatalf("segments = %+v, want 1 cache + 2 disk", st)
	}
}

func TestPolicyNoneNeverCaches(t *testing.T) {
	tb := newTestbed(t, func(c *Config) { c.Policy = PolicyNone })
	tb.write(t, 0, "f", critOff, pattern(1, 16<<10))
	st := tb.s4d.Stats()
	if st.SegWritesCache != 0 || st.Admissions != 0 {
		t.Fatalf("PolicyNone cached: %+v", st)
	}
	// The identifier still runs (overhead experiment needs this).
	if st.Identified != 1 || st.Critical != 1 {
		t.Fatalf("identifier did not run: %+v", st)
	}
	if tb.s4d.CDT().Entries() != 0 {
		t.Fatal("PolicyNone populated the CDT")
	}
}

func TestPolicyAllCachesSequential(t *testing.T) {
	tb := newTestbed(t, func(c *Config) { c.Policy = PolicyAll })
	tb.write(t, 0, "f", 0, pattern(1, 16<<10)) // sequential start: not critical
	st := tb.s4d.Stats()
	if st.Admissions != 1 || st.SegWritesCache != 1 {
		t.Fatalf("PolicyAll did not cache: %+v", st)
	}
}

func TestPolicyLocalitySecondTouchAdmission(t *testing.T) {
	tb := newTestbed(t, func(c *Config) { c.Policy = PolicyLocality })
	// First touch of a random region: no locality → DServers.
	tb.write(t, 0, "f", critOff, pattern(1, 16<<10))
	st := tb.s4d.Stats()
	if st.Admissions != 0 || st.SegWritesDisk != 1 {
		t.Fatalf("first touch admitted: %+v", st)
	}
	// Second touch of the same region: locality → cache.
	tb.write(t, 0, "f", critOff, pattern(2, 16<<10))
	st = tb.s4d.Stats()
	if st.Admissions != 1 {
		t.Fatalf("second touch not admitted: %+v", st)
	}
	// One-touch randoms elsewhere keep missing: the paper's §I point that
	// locality cannot catch the random killers.
	tb.write(t, 0, "f", critOff+(512<<20), pattern(3, 16<<10))
	if tb.s4d.Stats().Admissions != 1 {
		t.Fatal("unrelated one-touch write was admitted")
	}
}

func TestLocalityTrackerBounds(t *testing.T) {
	lt := newLocalityTracker(1<<10, 4)
	for i := int64(0); i < 10; i++ {
		lt.Touch("f", i<<20, 100)
	}
	if lt.Tracked() > 4 {
		t.Fatalf("Tracked = %d exceeds bound 4", lt.Tracked())
	}
	// The oldest regions were evicted: re-touching region 0 is a first
	// touch again.
	if lt.Touch("f", 0, 100) {
		t.Fatal("evicted region reported hot")
	}
	// Spanning multiple regions: hot only when every region is warm.
	lt2 := newLocalityTracker(100, 0)
	if lt2.Touch("g", 0, 150) {
		t.Fatal("cold span reported hot")
	}
	if !lt2.Touch("g", 0, 150) {
		t.Fatal("fully re-touched span not hot")
	}
	if lt2.Touch("g", 50, 200) {
		t.Fatal("span with one cold region reported hot")
	}
	if lt2.Touch("h", 0, 0) {
		t.Fatal("zero-size touch reported hot")
	}
}

func TestEagerFetchAblation(t *testing.T) {
	tb := newTestbed(t, func(c *Config) { c.LazyFetch = false })
	data := pattern(7, 16<<10)
	if err := tb.opfs.Write("f", critOff, 16<<10, sim.PriorityHigh, data, nil); err != nil {
		t.Fatal(err)
	}
	tb.eng.Run()
	// Critical read miss caches eagerly, without a Rebuilder cycle.
	got := tb.read(t, 0, "f", critOff, 16<<10)
	if !bytes.Equal(got, data) {
		t.Fatal("eager read corrupted data")
	}
	if tb.s4d.Stats().Fetches != 1 {
		t.Fatalf("eager fetch did not run: %+v", tb.s4d.Stats())
	}
	if !tb.s4d.DMT().Contains("f", critOff, 16<<10) {
		t.Fatal("eager fetch did not map")
	}
	got = tb.read(t, 0, "f", critOff, 16<<10)
	if !bytes.Equal(got, data) || tb.s4d.Stats().SegReadsCache != 1 {
		t.Fatal("second read not served by cache")
	}
}

func TestPeriodicRebuilderRuns(t *testing.T) {
	tb := newTestbed(t, func(c *Config) { c.RebuildPeriod = 50 * time.Millisecond })
	// Note: with a ticker armed the event queue never drains, so this test
	// must use RunUntil, never Run.
	if err := tb.s4d.Write(0, "f", critOff, 16<<10, pattern(1, 16<<10), nil); err != nil {
		t.Fatal(err)
	}
	tb.eng.RunUntil(tb.eng.Now() + 500*time.Millisecond)
	if tb.s4d.Stats().Flushes == 0 {
		t.Fatal("periodic rebuilder never flushed")
	}
	tb.s4d.Close()
	tb.eng.Run() // must terminate once the ticker is stopped
}

func TestMetaPersistenceRecovery(t *testing.T) {
	backend := kvstore.NewMemBackend()
	store, err := kvstore.Open(backend, "dmt", kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb := newTestbed(t, func(c *Config) { c.MetaStore = store })
	data := pattern(1, 16<<10)
	tb.write(t, 0, "f", critOff, data)
	if tb.s4d.DMT().Entries() != 1 {
		t.Fatal("setup: no mapping")
	}

	// "Crash": build a new S4D over the same CPFS payloads with a store
	// reopened from the same backend bytes.
	store2, err := kvstore.Open(backend, "dmt", kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{
		Engine: tb.eng, OPFS: tb.opfs, CPFS: tb.cpfs, Model: tb.s4d.Model(),
		CacheCapacity: 4 << 20, MetaStore: store2, LazyFetch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s2.DMT().Entries() != 1 {
		t.Fatalf("recovered DMT has %d entries, want 1", s2.DMT().Entries())
	}
	buf := make([]byte, 16<<10)
	if err := s2.Read(0, "f", critOff, 16<<10, buf, nil); err != nil {
		t.Fatal(err)
	}
	tb.eng.Run()
	if !bytes.Equal(buf, data) {
		t.Fatal("recovered instance returned wrong data")
	}
	if s2.Stats().SegReadsCache != 1 {
		t.Fatal("recovered instance did not use the cache")
	}
}

func TestChargeMetaIO(t *testing.T) {
	store, err := kvstore.Open(kvstore.NewMemBackend(), "dmt", kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb := newTestbed(t, func(c *Config) {
		c.MetaStore = store
		c.ChargeMetaIO = true
	})
	tb.write(t, 0, "f", critOff, pattern(1, 16<<10))
	if tb.s4d.Stats().MetaWrites == 0 {
		t.Fatal("no metadata I/O charged")
	}
	if tb.cpfs.FileSize(MetaFileName) == 0 {
		t.Fatal("metadata file not written on CPFS")
	}
}

func TestFlushEpochPreventsLostUpdate(t *testing.T) {
	tb := newTestbed(t, nil)
	tb.write(t, 0, "f", critOff, pattern(1, 16<<10))
	// Start a rebuild, and while it is in flight (virtual time), overwrite
	// the same range.
	tb.s4d.RebuildNow(nil)
	newData := pattern(9, 16<<10)
	if err := tb.s4d.Write(0, "f", critOff, 16<<10, newData, nil); err != nil {
		t.Fatal(err)
	}
	tb.eng.Run()
	// The flush must not have marked the re-written data clean.
	if tb.s4d.Space().Stats().DirtyBytes == 0 {
		t.Fatal("concurrent flush lost the overwrite's dirtiness")
	}
	if tb.s4d.Stats().FlushRetries == 0 {
		t.Fatal("epoch conflict not detected")
	}
	// Data remains correct and a later flush settles it.
	if got := tb.read(t, 0, "f", critOff, 16<<10); !bytes.Equal(got, newData) {
		t.Fatal("overwrite lost")
	}
	tb.s4d.DrainRebuild(nil)
	tb.eng.Run()
	if tb.s4d.Space().Stats().DirtyBytes != 0 {
		t.Fatal("drain left dirty data")
	}
	buf := make([]byte, 16<<10)
	if err := tb.opfs.Read("f", critOff, 16<<10, sim.PriorityHigh, buf, nil); err != nil {
		t.Fatal(err)
	}
	tb.eng.Run()
	if !bytes.Equal(buf, newData) {
		t.Fatal("DServers hold stale data after settled flush")
	}
}

func TestTableIIIDistributionShape(t *testing.T) {
	// 16KB random writes → overwhelmingly CServers; 4MB writes → 100%
	// DServers (paper Table III).
	tb := newTestbed(t, func(c *Config) { c.CacheCapacity = 512 << 20 })
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		off := rng.Int63n(1<<30) / (16 << 10) * (16 << 10)
		if err := tb.s4d.Write(0, "small", off, 16<<10, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	tb.eng.Run()
	smallShare := tb.s4d.Stats().CacheWriteShare()
	if smallShare < 0.7 {
		t.Fatalf("16KB random cache share = %.2f, want > 0.7 (Table III: 83.7%%)", smallShare)
	}

	tb2 := newTestbed(t, func(c *Config) { c.CacheCapacity = 512 << 20 })
	for i := 0; i < 20; i++ {
		off := rng.Int63n(1<<30) / (4 << 20) * (4 << 20)
		if err := tb2.s4d.Write(0, "big", off, 4<<20, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	tb2.eng.Run()
	if share := tb2.s4d.Stats().CacheWriteShare(); share != 0 {
		t.Fatalf("4MB cache share = %.2f, want 0 (Table III: 100%% DServers)", share)
	}
}

// Property: any sequence of writes and reads through S4D, interleaved with
// rebuild cycles, matches a flat reference file exactly.
func TestEndToEndConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := newTestbed(t, func(c *Config) { c.CacheCapacity = 64 << 10 })
		const space = 256 << 10
		ref := make([]byte, space)
		for i := 0; i < 25; i++ {
			switch rng.Intn(5) {
			case 0: // rebuild cycle
				tb.s4d.RebuildNow(nil)
				tb.eng.Run()
			case 1: // read & verify
				off := rng.Int63n(space - 1)
				size := rng.Int63n(minI64(32<<10, space-off)) + 1
				got := tb.read(t, rng.Intn(4), "f", off, size)
				if !bytes.Equal(got, ref[off:off+size]) {
					return false
				}
			default: // write
				off := rng.Int63n(space - 1)
				size := rng.Int63n(minI64(32<<10, space-off)) + 1
				data := make([]byte, size)
				rng.Read(data)
				tb.write(t, rng.Intn(4), "f", off, data)
				copy(ref[off:off+size], data)
			}
		}
		// Final full verification after a drain.
		tb.s4d.DrainRebuild(nil)
		tb.eng.Run()
		got := tb.read(t, 0, "f", 0, space)
		return bytes.Equal(got, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Property: at quiescence (all rebuild work drained), the cache space
// manager and the DMT agree byte for byte — every allocated cache byte is
// mapped, and every mapping is backed by allocated space.
func TestSpaceDMTAgreementProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := newTestbed(t, func(c *Config) { c.CacheCapacity = 96 << 10 })
		const space = 512 << 10
		for i := 0; i < 30; i++ {
			off := rng.Int63n(space - 1)
			size := rng.Int63n(minI64(24<<10, space-off)) + 1
			switch rng.Intn(5) {
			case 0:
				buf := make([]byte, size)
				if tb.s4d.Read(rng.Intn(4), "f", off, size, buf, nil) != nil {
					return false
				}
				tb.eng.Run()
			case 1:
				tb.s4d.RebuildNow(nil)
				tb.eng.Run()
			default:
				data := make([]byte, size)
				rng.Read(data)
				tb.write(t, rng.Intn(4), "f", off, data)
			}
		}
		tb.s4d.DrainRebuild(nil)
		tb.eng.Run()
		return tb.s4d.Space().Stats().UsedBytes == tb.s4d.DMT().Bytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
