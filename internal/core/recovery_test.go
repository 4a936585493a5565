package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"s4dcache/internal/cachespace"
	"s4dcache/internal/cdt"
	"s4dcache/internal/costmodel"
	"s4dcache/internal/device"
	"s4dcache/internal/dmt"
	"s4dcache/internal/faults"
	"s4dcache/internal/kvstore"
	"s4dcache/internal/netmodel"
)

// Warm-restart tests (DESIGN.md §14): durability, incremental recovery,
// degraded-until-warm serving, supersede, quarantine, and the crash+corrupt
// torture over the recovery path.

func openMetaStore(t *testing.T, backend kvstore.Backend) *kvstore.Store {
	t.Helper()
	store, err := kvstore.Open(backend, "dmt", kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// restartWarm "crashes" the current engine (simply abandons it) and builds
// a warm-restarting S4D over the same PFS deployments and engine, with the
// metadata store reopened from the backend bytes — exactly what a real
// restart would see.
func restartWarm(t *testing.T, tb *testbed, backend kvstore.Backend, mutate func(*Config)) *S4D {
	t.Helper()
	cfg := Config{
		Engine: tb.eng, OPFS: tb.opfs, CPFS: tb.cpfs, Model: tb.s4d.Model(),
		CacheCapacity: 4 << 20, MetaStore: openMetaStore(t, backend),
		LazyFetch: true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s2
}

func readFrom(t *testing.T, tb *testbed, s *S4D, file string, off, size int64) []byte {
	t.Helper()
	buf := make([]byte, size)
	if err := s.Read(0, file, off, size, buf, nil); err != nil {
		t.Fatal(err)
	}
	tb.eng.Run()
	return buf
}

// extentSet renders a table's full extent state as a canonical sorted
// string, the equality oracle for warm-vs-cold comparisons.
func extentSet(dirty, clean []dmt.Hit) string {
	lines := make([]string, 0, len(dirty)+len(clean))
	for _, h := range dirty {
		lines = append(lines, fmt.Sprintf("%s:%d:%d:%d:dirty", h.File, h.Off, h.Len, h.CacheOff))
	}
	for _, h := range clean {
		lines = append(lines, fmt.Sprintf("%s:%d:%d:%d:clean", h.File, h.Off, h.Len, h.CacheOff))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func TestWarmRestartConfigValidation(t *testing.T) {
	tb := newTestbed(t, nil)
	base := Config{Engine: tb.eng, OPFS: tb.opfs, CPFS: tb.cpfs, Model: tb.s4d.Model(), CacheCapacity: 1 << 20}
	bad := base
	bad.SnapshotPeriod = time.Second
	if _, err := New(bad); err == nil {
		t.Fatal("SnapshotPeriod without MetaStore accepted")
	}
}

// TestReopenedStoreOwnsItsCacheSpace builds an S4D over a store that
// already maps a file: every constructor given a MetaStore recovers it,
// so the recorded mapping owns its cache range and a new file's admission
// cannot be handed the same offsets. The mapping is dirty (adopted before
// the first request) or flushed clean (re-admitted in the background).
func TestReopenedStoreOwnsItsCacheSpace(t *testing.T) {
	for _, flushed := range []bool{false, true} {
		t.Run(map[bool]string{false: "dirty", true: "clean"}[flushed], func(t *testing.T) {
			backend := kvstore.NewMemBackend()
			tb := newTestbed(t, func(c *Config) { c.MetaStore = openMetaStore(t, backend) })
			fa, fb := pattern(1, 16<<10), pattern(2, 16<<10)
			tb.write(t, 0, "fa", critOff, fa)
			if flushed {
				tb.s4d.DrainRebuild(nil)
				tb.eng.Run()
				if st := tb.s4d.Space().Stats(); st.DirtyBytes != 0 || st.CleanBytes != 16<<10 {
					t.Fatalf("setup: dirty=%d clean=%d, want 0/16K", st.DirtyBytes, st.CleanBytes)
				}
			}
			s2, err := New(Config{
				Engine: tb.eng, OPFS: tb.opfs, CPFS: tb.cpfs, Model: tb.s4d.Model(),
				CacheCapacity: 4 << 20, MetaStore: openMetaStore(t, backend), LazyFetch: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			tb.eng.Run() // finish any background re-admission
			if err := s2.Write(0, "fb", critOff, int64(len(fb)), fb, nil); err != nil {
				t.Fatal(err)
			}
			tb.eng.Run()
			if st := s2.Stats(); st.Admissions != 1 || st.Recovering {
				t.Fatalf("fb not admitted after recovery: admissions=%d recovering=%v", st.Admissions, st.Recovering)
			}
			if got := readFrom(t, tb, s2, "fa", critOff, 16<<10); !bytes.Equal(got, fa) {
				t.Fatal("fa reads another file's bytes after the reopened engine admitted fb")
			}
			if got := readFrom(t, tb, s2, "fb", critOff, 16<<10); !bytes.Equal(got, fb) {
				t.Fatal("fb reads wrong bytes")
			}
			checkInvariants(t, &s2.engine)
		})
	}
}

// TestWarmRestartRecoversCleanAndDirty is the core warm-restart scenario:
// two flushed (clean) extents and one unflushed (dirty) extent survive a
// crash; the restarted engine re-admits all three, serves them from cache
// byte-for-byte, and its recovered table equals the cold replay oracle.
func TestWarmRestartRecoversCleanAndDirty(t *testing.T) {
	backend := kvstore.NewMemBackend()
	tb := newTestbed(t, func(c *Config) { c.MetaStore = openMetaStore(t, backend) })
	dataA := pattern(1, 16<<10)
	dataB := pattern(2, 16<<10)
	dataC := pattern(3, 16<<10)
	tb.write(t, 0, "fa", critOff, dataA)
	tb.write(t, 0, "fb", critOff, dataB)
	tb.s4d.DrainRebuild(nil)
	tb.eng.Run()                         // fa, fb flushed clean
	tb.write(t, 0, "fc", critOff, dataC) // stays dirty
	tb.s4d.snapshotTick()
	if tb.s4d.Stats().Snapshots != 1 {
		t.Fatal("snapshot did not run")
	}

	// Cold oracle: a plain replay of the same op-log.
	cold, err := dmt.Open(openMetaStore(t, backend))
	if err != nil {
		t.Fatal(err)
	}

	s2 := restartWarm(t, tb, backend, nil)
	// Dirty data installs synchronously, before the first request.
	st := s2.Stats()
	if st.RecoveredDirty != 1 {
		t.Fatalf("RecoveredDirty = %d before warm-up, want 1", st.RecoveredDirty)
	}
	if !st.Recovering {
		t.Fatal("engine not in recovering state with clean extents pending")
	}
	tb.eng.Run() // drain the incremental re-admission steps

	st = s2.Stats()
	if st.Recovering {
		t.Fatal("still recovering after drain")
	}
	if st.RecoveredClean != 2 {
		t.Fatalf("RecoveredClean = %d, want 2", st.RecoveredClean)
	}
	if st.RecoveredBytes != 3*16<<10 {
		t.Fatalf("RecoveredBytes = %d, want %d", st.RecoveredBytes, 3*16<<10)
	}
	if st.QuarantinedRecords != 0 || st.QuarantinedBytes != 0 {
		t.Fatalf("clean restart quarantined %d records / %d bytes", st.QuarantinedRecords, st.QuarantinedBytes)
	}
	if st.ResidencyDrift != 0 {
		t.Fatalf("ResidencyDrift = %d on an idle crash, want 0", st.ResidencyDrift)
	}
	if st.TimeToWarm <= 0 {
		t.Fatalf("TimeToWarm = %v, want > 0", st.TimeToWarm)
	}
	if st.CDTRestored == 0 {
		t.Fatal("no CDT records restored")
	}

	// Warm-vs-cold equivalence: the recovered table must equal the oracle.
	warm := extentSet(s2.DMT().DirtyExtents(0), s2.DMT().CleanExtents(0))
	want := extentSet(cold.DirtyExtents(0), cold.CleanExtents(0))
	if warm != want {
		t.Fatalf("warm table diverges from cold replay oracle:\nwarm:\n%s\ncold:\n%s", warm, want)
	}

	// Every extent serves from cache with the pre-crash bytes.
	for _, c := range []struct {
		file string
		want []byte
	}{{"fa", dataA}, {"fb", dataB}, {"fc", dataC}} {
		if got := readFrom(t, tb, s2, c.file, critOff, 16<<10); !bytes.Equal(got, c.want) {
			t.Fatalf("%s: wrong bytes after warm restart", c.file)
		}
	}
	if got := s2.Stats().SegReadsCache; got != 3 {
		t.Fatalf("SegReadsCache = %d after warm reads, want 3", got)
	}
}

// TestWarmRestartServesDegraded verifies the degraded-until-warm contract:
// while clean extents are still pending, reads go around them to the
// DServers (correctly) and writes are not admitted; once warm, both resume.
func TestWarmRestartServesDegraded(t *testing.T) {
	backend := kvstore.NewMemBackend()
	tb := newTestbed(t, func(c *Config) { c.MetaStore = openMetaStore(t, backend) })
	dataA := pattern(1, 16<<10)
	tb.write(t, 0, "fa", critOff, dataA)
	tb.s4d.DrainRebuild(nil)
	tb.eng.Run()

	s2 := restartWarm(t, tb, backend, nil)
	if !s2.Stats().Recovering {
		t.Fatal("not recovering")
	}
	// Issue a read of the pending range and a critical write before the
	// first recovery step fires: both must route to the DServers.
	buf := make([]byte, 16<<10)
	if err := s2.Read(0, "fa", critOff, 16<<10, buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := s2.Write(0, "fw", critOff, 16<<10, pattern(7, 16<<10), nil); err != nil {
		t.Fatal(err)
	}
	tb.eng.Run()
	st := s2.Stats()
	if !bytes.Equal(buf, dataA) {
		t.Fatal("degraded read returned wrong bytes")
	}
	if st.SegReadsDisk != 1 || st.SegReadsCache != 0 {
		t.Fatalf("degraded read routing: disk=%d cache=%d, want 1/0", st.SegReadsDisk, st.SegReadsCache)
	}
	if st.Admissions != 0 || st.SegWritesDisk != 1 {
		t.Fatalf("degraded write routing: admissions=%d disk=%d, want 0/1", st.Admissions, st.SegWritesDisk)
	}
	if st.Recovering {
		t.Fatal("still recovering after drain")
	}

	// Warm now: the recovered extent serves from cache, admissions resume.
	if got := readFrom(t, tb, s2, "fa", critOff, 16<<10); !bytes.Equal(got, dataA) {
		t.Fatal("warm read returned wrong bytes")
	}
	if s2.Stats().SegReadsCache != 1 {
		t.Fatal("warm read did not hit the cache")
	}
	tb2 := &testbed{eng: tb.eng, opfs: tb.opfs, cpfs: tb.cpfs, s4d: s2}
	tb2.write(t, 0, "fx", critOff, pattern(8, 16<<10))
	if s2.Stats().Admissions != 1 {
		t.Fatal("admissions did not resume after warm-up")
	}
}

// TestWarmRestartSupersede: a write overlapping a still-pending clean
// extent drops the whole extent — durably, so a third restart cannot
// resurrect the stale mapping over the newer DServer bytes.
func TestWarmRestartSupersede(t *testing.T) {
	backend := kvstore.NewMemBackend()
	tb := newTestbed(t, func(c *Config) { c.MetaStore = openMetaStore(t, backend) })
	dataA := pattern(1, 16<<10)
	tb.write(t, 0, "fa", critOff, dataA)
	tb.s4d.DrainRebuild(nil)
	tb.eng.Run()

	s2 := restartWarm(t, tb, backend, nil)
	newMid := pattern(9, 8<<10)
	if err := s2.Write(0, "fa", critOff+4096, 8<<10, newMid, nil); err != nil {
		t.Fatal(err)
	}
	tb.eng.Run()
	st := s2.Stats()
	if st.RecoverySuperseded != 1 {
		t.Fatalf("RecoverySuperseded = %d, want 1", st.RecoverySuperseded)
	}
	if st.RecoveredClean != 0 {
		t.Fatalf("superseded extent was still re-admitted (RecoveredClean = %d)", st.RecoveredClean)
	}

	expect := append([]byte(nil), dataA...)
	copy(expect[4096:], newMid)
	if got := readFrom(t, tb, s2, "fa", critOff, 16<<10); !bytes.Equal(got, expect) {
		t.Fatal("merged image wrong after supersede")
	}

	// Third restart: the supersede's delete must have been durable.
	s3 := restartWarm(t, tb, backend, nil)
	tb.eng.Run()
	if n := s3.DMT().Entries(); n != 0 {
		t.Fatalf("superseded extent resurrected on the next restart (%d entries)", n)
	}
	if got := readFrom(t, tb, s3, "fa", critOff, 16<<10); !bytes.Equal(got, expect) {
		t.Fatal("merged image wrong after second restart")
	}
}

// TestWarmRestartQuarantinesCorruptRecords damages individual snapshot
// records at the value level (seal intact at the store layer, payload CRC
// broken). The engine must start, count the damage, keep serving correct
// bytes — and because the op-log is the mapping authority, still recover
// every extent.
func TestWarmRestartQuarantinesCorruptRecords(t *testing.T) {
	backend := kvstore.NewMemBackend()
	tb := newTestbed(t, func(c *Config) { c.MetaStore = openMetaStore(t, backend) })
	dataA := pattern(1, 16<<10)
	dataB := pattern(2, 16<<10)
	tb.write(t, 0, "fa", critOff, dataA)
	tb.write(t, 0, "fb", critOff, dataB)
	tb.s4d.DrainRebuild(nil)
	tb.eng.Run()
	tb.s4d.snapshotTick()

	// Flip the trailing CRC byte of one residency record and one CDT
	// record, through the store so the damage is durable.
	vandal := openMetaStore(t, backend)
	flip := func(prefix string) int {
		keys := vandal.Keys(prefix)
		if len(keys) == 0 {
			t.Fatalf("no %q records in snapshot", prefix)
		}
		val, ok := vandal.Get(keys[0])
		if !ok {
			t.Fatal("record vanished")
		}
		bad := append([]byte(nil), val...)
		bad[len(bad)-1] ^= 0xFF
		if err := vandal.Put(keys[0], bad); err != nil {
			t.Fatal(err)
		}
		return len(keys)
	}
	nRes := flip(resPrefix)
	nCdt := flip(cdtPrefix)
	if nRes != 2 || nCdt < 2 {
		t.Fatalf("snapshot shape: %d residency / %d cdt records, want 2 / >=2", nRes, nCdt)
	}

	s2 := restartWarm(t, tb, backend, nil)
	tb.eng.Run()
	st := s2.Stats()
	if st.QuarantinedRecords != 2 {
		t.Fatalf("QuarantinedRecords = %d, want 2 (one residency + one cdt)", st.QuarantinedRecords)
	}
	// The damaged residency record leaves its replayed extent unverified:
	// drift, not loss.
	if st.ResidencyDrift != 1 {
		t.Fatalf("ResidencyDrift = %d, want 1", st.ResidencyDrift)
	}
	// Op-log authority: both extents recover regardless.
	if st.RecoveredClean != 2 {
		t.Fatalf("RecoveredClean = %d, want 2", st.RecoveredClean)
	}
	if st.CDTRestored != uint64(nCdt-1) {
		t.Fatalf("CDTRestored = %d, want %d", st.CDTRestored, nCdt-1)
	}
	for _, c := range []struct {
		file string
		want []byte
	}{{"fa", dataA}, {"fb", dataB}} {
		if got := readFrom(t, tb, s2, c.file, critOff, 16<<10); !bytes.Equal(got, c.want) {
			t.Fatalf("%s: wrong bytes after quarantined restart", c.file)
		}
	}
	if s2.Stats().SegReadsDisk != 0 {
		t.Fatal("recovered extents did not serve from cache")
	}
}

// TestWarmRestartCorruptStoreSnapshot destroys the metadata store's own
// snapshot file wholesale (seeded bitflips through the faults DSL). The
// store must quarantine the snapshot, the engine must still construct, and
// every read must fall back to the DServers with correct bytes — a cold
// cache, never a wrong answer.
func TestWarmRestartCorruptStoreSnapshot(t *testing.T) {
	backend := kvstore.NewMemBackend()
	tb := newTestbed(t, func(c *Config) { c.MetaStore = openMetaStore(t, backend) })
	dataA := pattern(1, 16<<10)
	tb.write(t, 0, "fa", critOff, dataA)
	tb.s4d.DrainRebuild(nil)
	tb.eng.Run()
	tb.s4d.snapshotTick() // compacts: the whole image lands in dmt.snap

	plan, err := faults.Parse("corrupt:dmt.snap:bitflip:8")
	if err != nil {
		t.Fatal(err)
	}
	wrapped := faults.NewInjector(plan, 42).WrapBackend(backend, "dmt")
	store2, err := kvstore.Open(wrapped, "dmt", kvstore.Options{})
	if err != nil {
		t.Fatalf("store open must tolerate a corrupt snapshot, got %v", err)
	}
	s2, err := New(Config{
		Engine: tb.eng, OPFS: tb.opfs, CPFS: tb.cpfs, Model: tb.s4d.Model(),
		CacheCapacity: 4 << 20, MetaStore: store2, LazyFetch: true,
	})
	if err != nil {
		t.Fatalf("engine must start over a quarantined store, got %v", err)
	}
	tb.eng.Run()
	st := s2.Stats()
	if !st.MetaSnapQuarantined {
		t.Fatal("store did not quarantine the corrupted snapshot")
	}
	if st.RecoveredClean != 0 || st.RecoveredDirty != 0 {
		t.Fatalf("recovered %d clean / %d dirty extents from a destroyed image", st.RecoveredClean, st.RecoveredDirty)
	}
	if st.Recovering {
		t.Fatal("recovering with nothing to recover")
	}
	if got := readFrom(t, tb, s2, "fa", critOff, 16<<10); !bytes.Equal(got, dataA) {
		t.Fatal("cold fallback returned wrong bytes")
	}
	if s2.Stats().SegReadsDisk != 1 {
		t.Fatal("cold fallback did not read the DServers")
	}
}

// TestRecoveryTortureCutsAndBitflips is the 1000-cut crash+corrupt torture
// over the metadata recovery path: a real op history plus a residency
// snapshot, then ~500 WAL truncation points and ~500 seeded bitflips. For
// every damaged image, opening must succeed, replay must not error, the
// snapshot reader must cope, and the recovered table must equal the state
// after some prefix of the original op sequence — never an invented state.
func TestRecoveryTortureCutsAndBitflips(t *testing.T) {
	type op struct {
		ins          bool
		file         string
		off, l, cOff int64
		dirty        bool
	}
	backend := kvstore.NewMemBackend()
	store := openMetaStore(t, backend)
	table, err := dmt.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var ops []op
	var nextCacheOff int64
	for i := 0; i < 120; i++ {
		o := op{
			file: fmt.Sprintf("f%d", rng.Intn(6)),
			off:  int64(rng.Intn(64)) * 4096,
			l:    int64(rng.Intn(4)+1) * 4096,
		}
		if rng.Intn(4) == 0 {
			if err := table.Delete(o.file, o.off, o.l); err != nil {
				t.Fatal(err)
			}
		} else {
			o.ins = true
			o.cOff = nextCacheOff
			o.dirty = rng.Intn(2) == 0
			nextCacheOff += o.l
			if err := table.Insert(o.file, o.off, o.l, o.cOff, o.dirty); err != nil {
				t.Fatal(err)
			}
		}
		ops = append(ops, o)
	}
	var snap snapWriter
	if _, err := snap.write(store, table, cdt.New(0), 1, 1<<30); err != nil {
		t.Fatal(err)
	}

	// Oracle: the canonical state after every prefix of the op sequence.
	prefixStates := make(map[string]bool, len(ops)+1)
	mem := dmt.New()
	prefixStates[extentSet(nil, nil)] = true
	for _, o := range ops {
		if o.ins {
			_ = mem.Insert(o.file, o.off, o.l, o.cOff, o.dirty)
		} else {
			_ = mem.Delete(o.file, o.off, o.l)
		}
		prefixStates[extentSet(mem.DirtyExtents(0), mem.CleanExtents(0))] = true
	}

	walRaw, err := backend.ReadAll("dmt.wal")
	if err != nil || len(walRaw) == 0 {
		t.Fatalf("no WAL to torture (err=%v)", err)
	}
	tb := newTestbed(t, nil)
	check := func(tag string, wal []byte) {
		t.Helper()
		// Whatever survives, a warm restart over it must come up with
		// consistent tables and cache space.
		checkRecoveredInvariants(t, tb, openDamaged(t, wal, nil), 0)
		nb := kvstore.NewMemBackend()
		if len(wal) > 0 {
			if err := nb.Replace("dmt.wal", wal); err != nil {
				t.Fatal(err)
			}
		}
		st, err := kvstore.Open(nb, "dmt", kvstore.Options{})
		if err != nil {
			t.Fatalf("%s: store open failed: %v", tag, err)
		}
		staging := dmt.New()
		if _, _, err := dmt.ReplayState(st, func(file string, off, length, cacheOff int64, dirty, insert bool) {
			if insert {
				_ = staging.Insert(file, off, length, cacheOff, dirty)
			} else {
				_ = staging.Delete(file, off, length)
			}
		}); err != nil {
			t.Fatalf("%s: replay failed: %v", tag, err)
		}
		got := extentSet(staging.DirtyExtents(0), staging.CleanExtents(0))
		if !prefixStates[got] {
			t.Fatalf("%s: recovered state is not any prefix state:\n%s", tag, got)
		}
		img := readSnapshot(st) // must cope with arbitrary damage
		for k := range img.residency {
			if k == "" {
				t.Fatalf("%s: empty residency key surfaced as valid", tag)
			}
		}
	}

	// 501 evenly spaced cuts from empty to whole, however long the WAL.
	const cuts = 500 + 1
	for i := 0; i < cuts; i++ {
		cut := i * len(walRaw) / (cuts - 1)
		check(fmt.Sprintf("cut@%d", cut), walRaw[:cut])
	}
	frng := rand.New(rand.NewSource(99))
	flips := 500
	for i := 0; i < flips; i++ {
		mut := append([]byte(nil), walRaw...)
		mut[frng.Intn(len(mut))] ^= 1 << frng.Intn(8)
		check(fmt.Sprintf("flip#%d", i), mut)
	}
	if cuts+flips < 1000 {
		t.Fatalf("torture only ran %d damage cases, want >= 1000", cuts+flips)
	}
}

func wrFile(r int) string { return fmt.Sprintf("wr%02d", r) }

// TestConcurrentWarmRestartUnderTraffic restarts the concurrent engine warm
// while real client goroutines race the recovery tasks: readers of
// recovered ranges, writers to fresh files, and one writer superseding a
// still-pending extent. Every read must be correct at every moment; run
// under -race this doubles as the recovery path's race check.
//
// The reshard case restarts the 4-shard store into a 3-shard engine over a
// 768 KiB cache: four 192 KiB regions become three of 256 KiB, so most
// recovered extents sit outside their file's new region. Clean ones are
// quarantined, dirty ones adopted and unmapped once flushed. Concurrent
// clients then overflow every region, so allocations evict while other
// shards serve: no byte may be wrong or lost, and afterwards every clean
// unit in region r must belong to a file of shard r.
func TestConcurrentWarmRestartUnderTraffic(t *testing.T) {
	for _, tc := range []struct {
		name     string
		shards   int // after the restart; the store is written by 4
		capacity int64
	}{
		{"same-shards", 4, 256 << 20},
		{"reshard-4-to-3", 3, 768 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) { warmRestartUnderTraffic(t, tc.shards, tc.capacity) })
	}
}

func warmRestartUnderTraffic(t *testing.T, shards int, capacity int64) {
	backend := kvstore.NewMemBackend()
	tb := newConcTestbedCfg(t, 4, true, false, func(c *ConcurrentConfig) {
		c.MetaStore = openMetaStore(t, backend)
		c.CacheCapacity = capacity
	})
	reshard := shards != 4
	const nf = 8
	const extLen = int64(32 << 10)
	images := make([][]byte, nf)
	for r := 0; r < nf; r++ {
		images[r] = pattern(byte(r+1), int(extLen))
		r := r
		await(t, func(done func(error)) error {
			return tb.eng.Write(r, wrFile(r), critOff, extLen, images[r], done)
		})
	}
	supExpect := pattern(0x20, int(extLen))
	await(t, func(done func(error)) error {
		return tb.eng.Write(0, "sup", critOff, extLen, supExpect, done)
	})
	ch := make(chan struct{})
	tb.eng.DrainRebuild(func() { close(ch) })
	<-ch // everything flushed clean
	// Re-dirty the odd ranks so the restart sees both kinds. On the
	// reshard, wr04 and wr06 come back clean outside their new region.
	for r := 1; r < nf; r += 2 {
		images[r] = pattern(byte(r+0x41), int(extLen))
		r := r
		await(t, func(done func(error)) error {
			return tb.eng.Write(r, wrFile(r), critOff, extLen, images[r], done)
		})
	}
	tb.eng.snapshotTick()
	if tb.eng.Stats().Snapshots != 1 {
		t.Fatal("snapshot did not run")
	}
	tb.eng.Close() // crash

	curve, err := device.ProfileSeekCurve(device.NewHDD(device.DefaultHDDParams()), device.DefaultProfileConfig())
	if err != nil {
		t.Fatal(err)
	}
	model := costmodel.Calibrate(device.DefaultHDDParams(), device.DefaultSSDParams(), netmodel.Gigabit(), curve)
	model.M = 8
	model.N = 4
	model.Stripe = 16 << 10
	eng2, err := NewConcurrent(ConcurrentConfig{
		Clock: tb.clock, OPFS: tb.opfs, CPFS: tb.cpfs, Model: model,
		CacheCapacity: capacity, Concurrency: shards,
		MetaStore:    openMetaStore(t, backend),
		RecoverBatch: 1, // tiny batches widen the recovery window the traffic races
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng2.Close)

	call := func(fn func(done func(error)) error) error {
		done := make(chan error, 1)
		if err := fn(func(e error) { done <- e }); err != nil {
			return err
		}
		return <-done
	}
	var wg sync.WaitGroup
	for r := 0; r < nf; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, extLen)
			for i := 0; i < 20; i++ {
				if err := call(func(done func(error)) error {
					return eng2.Read(r, wrFile(r), critOff, extLen, buf, done)
				}); err != nil {
					t.Errorf("rank %d read: %v", r, err)
					return
				}
				if !bytes.Equal(buf, images[r]) {
					t.Errorf("rank %d: wrong bytes during recovery", r)
					return
				}
			}
			fresh := pattern(byte(r+0x81), int(extLen))
			file := fmt.Sprintf("new%02d", r)
			if err := call(func(done func(error)) error {
				return eng2.Write(r, file, critOff, extLen, fresh, done)
			}); err != nil {
				t.Errorf("rank %d write: %v", r, err)
				return
			}
			if err := call(func(done func(error)) error {
				return eng2.Read(r, file, critOff, extLen, buf, done)
			}); err != nil {
				t.Errorf("rank %d readback: %v", r, err)
				return
			}
			if !bytes.Equal(buf, fresh) {
				t.Errorf("rank %d: write during recovery lost", r)
			}
		}()
	}
	// One writer overwrites part of the pending "sup" extent: whichever
	// side of the adopt it lands on, the merged image must be exact.
	wg.Add(1)
	go func() {
		defer wg.Done()
		mid := pattern(0x33, 8<<10)
		if err := call(func(done func(error)) error {
			return eng2.Write(0, "sup", critOff+4096, 8<<10, mid, done)
		}); err != nil {
			t.Errorf("sup write: %v", err)
			return
		}
		copy(supExpect[4096:], mid)
		buf := make([]byte, extLen)
		if err := call(func(done func(error)) error {
			return eng2.Read(0, "sup", critOff, extLen, buf, done)
		}); err != nil {
			t.Errorf("sup read: %v", err)
			return
		}
		if !bytes.Equal(buf, supExpect) {
			t.Error("sup: merged image wrong during recovery")
		}
	}()
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for eng2.Stats().Recovering {
		if time.Now().After(deadline) {
			t.Fatal("recovery did not finish")
		}
		time.Sleep(time.Millisecond)
	}
	st := eng2.Stats()
	if st.RecoveredDirty == 0 {
		t.Fatal("no dirty extents recovered")
	}
	if st.RecoveredClean == 0 {
		t.Fatal("no clean extents recovered")
	}
	if st.DirtyLost != 0 {
		t.Fatalf("DirtyLost = %d bytes", st.DirtyLost)
	}
	if reshard {
		// Clean extents outside their new region are dropped, never
		// adopted: wr04, wr06 and sup, unless the racing write superseded
		// sup first.
		if got := st.QuarantinedRecords + st.RecoverySuperseded; got != 3 {
			t.Fatalf("QuarantinedRecords+RecoverySuperseded = %d, want 3", got)
		}
	} else {
		if st.QuarantinedRecords != 0 {
			t.Fatalf("QuarantinedRecords = %d on an undamaged restart", st.QuarantinedRecords)
		}
		// All pre-crash resident bytes must be back, minus at most the one
		// extent the racing writer may have legitimately superseded.
		floor := int64(nf+1) * extLen
		if st.RecoverySuperseded > 0 {
			floor -= extLen
		}
		if st.RecoveredBytes < floor {
			t.Fatalf("RecoveredBytes = %d, want >= %d (superseded=%d)", st.RecoveredBytes, floor, st.RecoverySuperseded)
		}
	}
	buf := make([]byte, extLen)
	for r := 0; r < nf; r++ {
		r := r
		await(t, func(done func(error)) error {
			return eng2.Read(r, wrFile(r), critOff, extLen, buf, done)
		})
		if !bytes.Equal(buf, images[r]) {
			t.Fatalf("rank %d: wrong bytes after warm-up", r)
		}
	}
	before := st.Admissions
	await(t, func(done func(error)) error {
		return eng2.Write(0, "post", critOff, extLen, pattern(0x99, int(extLen)), done)
	})
	if eng2.Stats().Admissions <= before {
		t.Fatal("admissions did not resume after warm-up")
	}
	checkInvariants(t, &eng2.engine)
	if !reshard {
		return
	}

	// Two rounds of fresh files from concurrent clients, each round
	// drained clean: the regions overflow, and allocations evict while
	// the other clients read and write.
	drain := func() {
		ch := make(chan struct{})
		eng2.DrainRebuild(func() { close(ch) })
		<-ch
	}
	fresh := func(round, r, k int) (string, []byte) {
		return fmt.Sprintf("ev%d-%d-%d", round, r, k), pattern(byte(round*64+r*8+k), int(extLen))
	}
	for round := 0; round < 2; round++ {
		for r := 0; r < nf; r++ {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, extLen)
				for k := 0; k < 4; k++ {
					file, img := fresh(round, r, k)
					if err := call(func(done func(error)) error {
						return eng2.Write(r, file, critOff, extLen, img, done)
					}); err != nil {
						t.Errorf("rank %d write: %v", r, err)
						return
					}
					if err := call(func(done func(error)) error {
						return eng2.Read(r, wrFile(r), critOff, extLen, buf, done)
					}); err != nil || !bytes.Equal(buf, images[r]) {
						t.Errorf("rank %d: wrong bytes under eviction (err %v)", r, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		drain()
	}
	if t.Failed() {
		return
	}
	st = eng2.Stats()
	if st.CacheEvictions == 0 {
		t.Fatal("no allocation evicted after the restart")
	}
	if st.DirtyLost != 0 || eng2.RebuildPending() {
		t.Fatalf("DirtyLost = %d, rebuild pending %v", st.DirtyLost, eng2.RebuildPending())
	}
	for r := 0; r < nf; r++ {
		r := r
		await(t, func(done func(error)) error {
			return eng2.Read(r, wrFile(r), critOff, extLen, buf, done)
		})
		if !bytes.Equal(buf, images[r]) {
			t.Fatalf("rank %d: wrong bytes after eviction", r)
		}
		for round := 0; round < 2; round++ {
			for k := 0; k < 4; k++ {
				file, img := fresh(round, r, k)
				await(t, func(done func(error)) error {
					return eng2.Read(r, file, critOff, extLen, buf, done)
				})
				if !bytes.Equal(buf, img) {
					t.Fatalf("%s: wrong bytes after eviction", file)
				}
			}
		}
	}
	regionSize := eng2.Space().RegionCapacity()
	eng2.Space().Walk(func(cacheOff, length int64, owner cachespace.Owner, dirty bool) bool {
		if r, _ := eng2.shard(owner.File); !dirty && r != &eng2.shards[cacheOff/regionSize] {
			t.Errorf("clean unit [%d,+%d) in region %d belongs to %s of another shard", cacheOff, length, cacheOff/regionSize, owner.File)
		}
		return true
	})
	checkInvariants(t, &eng2.engine)
}
