package core

import (
	"fmt"
	"reflect"
	"testing"

	"s4dcache/internal/cdt"
	"s4dcache/internal/dmt"
	"s4dcache/internal/kvstore"
	"s4dcache/internal/staterec"
)

// Snapshot-stream tests (DESIGN.md §14.2): ticks rewrite only changed
// files, bundles quarantine per record, and a damaged bundle is counted.

// storeMutations is the put+delete count a store has committed.
func storeMutations(st *kvstore.Store) uint64 {
	s := st.Stats()
	return s.Puts + s.Deletes
}

// TestSnapshotIdleTickWritesOnlyMeta: a second snapshot with no I/O in
// between rewrites no residency or CDT bundle — the only store mutation
// is the wrmeta header — on both engines.
func TestSnapshotIdleTickWritesOnlyMeta(t *testing.T) {
	t.Run("sequential", func(t *testing.T) {
		store := openMetaStore(t, kvstore.NewMemBackend())
		tb := newTestbed(t, func(c *Config) { c.MetaStore = store })
		for i, f := range []string{"fa", "fb", "fc"} {
			tb.write(t, 0, f, critOff, pattern(byte(i+1), 16<<10))
		}
		tb.s4d.DrainRebuild(nil)
		tb.eng.Run()
		tb.s4d.SnapshotNow()
		before, meta := storeMutations(store), mustGet(t, store, metaKey)
		tb.s4d.SnapshotNow()
		if d := storeMutations(store) - before; d != 1 {
			t.Fatalf("idle snapshot committed %d store mutations, want 1 (wrmeta)", d)
		}
		if st := tb.s4d.Stats(); st.Snapshots != 2 || st.SnapshotRecords == 0 {
			t.Fatalf("snapshot stats %d/%d", st.Snapshots, st.SnapshotRecords)
		}
		if reflect.DeepEqual(meta, mustGet(t, store, metaKey)) {
			t.Fatal("wrmeta not rewritten with the new epoch")
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		store := openMetaStore(t, kvstore.NewMemBackend())
		tb := newConcTestbedCfg(t, 4, true, false, func(c *ConcurrentConfig) { c.MetaStore = store })
		for r := 0; r < 8; r++ {
			data := pattern(byte(r+1), 16<<10)
			await(t, func(done func(error)) error {
				return tb.eng.Write(r, wrFile(r), critOff, int64(len(data)), data, done)
			})
		}
		ch := make(chan struct{})
		tb.eng.DrainRebuild(func() { close(ch) })
		<-ch
		tb.eng.SnapshotNow()
		before := storeMutations(store)
		tb.eng.SnapshotNow()
		if d := storeMutations(store) - before; d != 1 {
			t.Fatalf("idle snapshot committed %d store mutations, want 1 (wrmeta)", d)
		}
	})
}

func mustGet(t *testing.T, st *kvstore.Store, key string) []byte {
	t.Helper()
	v, ok := st.Get(key)
	if !ok {
		t.Fatalf("%s missing", key)
	}
	return v
}

// snapFixture is a persisted DMT and CDT with a snapshot writer over one
// store.
type snapFixture struct {
	store *kvstore.Store
	dmt   *dmt.Table
	cdt   *cdt.Table
	w     snapWriter
	epoch uint64
}

func newSnapFixture(t *testing.T) *snapFixture {
	t.Helper()
	store := openMetaStore(t, kvstore.NewMemBackend())
	table, err := dmt.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	return &snapFixture{store: store, dmt: table, cdt: cdt.New(0)}
}

func (f *snapFixture) tick(t *testing.T) int {
	t.Helper()
	f.epoch++
	n, err := f.w.write(f.store, f.dmt, f.cdt, f.epoch, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// fill maps and marks critical three extents in each of files.
func (f *snapFixture) fill(t *testing.T, files ...string) {
	t.Helper()
	for i, file := range files {
		for k := int64(0); k < 3; k++ {
			off := k * 8192
			if err := f.dmt.Insert(file, off, 4096, int64(i)<<20+off, k == 1); err != nil {
				t.Fatal(err)
			}
			f.cdt.Add(file, off, 4096)
		}
	}
}

// TestSnapshotRewritesOnlyChangedFiles: after a full first tick, a tick
// rewrites exactly the bundles of the files that changed and deletes the
// bundles of files that emptied, while wrmeta keeps whole-image counts.
func TestSnapshotRewritesOnlyChangedFiles(t *testing.T) {
	f := newSnapFixture(t)
	f.fill(t, "a", "b", "c")
	if n := f.tick(t); n != 18 {
		t.Fatalf("first tick rewrote %d records, want the whole image (18)", n)
	}
	untouched := mustGet(t, f.store, resPrefix+"b")

	if err := f.dmt.SetClean("a", 8192, 4096); err != nil { // residency only
		t.Fatal(err)
	}
	f.cdt.SetCFlag("c", 0, 4096) // CDT only
	f.cdt.Add("b", 0, 4096)
	before := storeMutations(f.store)
	if n := f.tick(t); n != 6 {
		t.Fatalf("tick rewrote %d records, want 6 (a's residency, c's CDT)", n)
	}
	if d := storeMutations(f.store) - before; d != 3 {
		t.Fatalf("tick committed %d mutations, want 3 (two bundles + wrmeta)", d)
	}
	if !reflect.DeepEqual(untouched, mustGet(t, f.store, resPrefix+"b")) {
		t.Fatal("unchanged file's bundle rewritten")
	}

	if err := f.dmt.Delete("b", 0, 1<<30); err != nil {
		t.Fatal(err)
	}
	f.cdt.Remove("b", 0, 1<<30)
	before = storeMutations(f.store)
	if n := f.tick(t); n != 0 {
		t.Fatalf("emptying tick rewrote %d records, want 0", n)
	}
	if d := storeMutations(f.store) - before; d != 3 {
		t.Fatalf("emptying tick committed %d mutations, want 3 (two deletes + wrmeta)", d)
	}
	for _, k := range []string{resPrefix + "b", cdtPrefix + "b"} {
		if _, ok := f.store.Get(k); ok {
			t.Fatalf("%s survived its file emptying", k)
		}
	}
	img := readSnapshot(f.store)
	if img.meta.Extents != 6 || img.meta.Criticals != 6 || img.quarRecords != 0 || len(img.residency) != 6 || len(img.crits) != 6 {
		t.Fatalf("image after emptying: meta %+v, %d residency, %d crits, %d quarantined",
			img.meta, len(img.residency), len(img.crits), img.quarRecords)
	}
}

// TestSnapshotCritOrderMatchesExtents: the recovered CDT records come
// back in Extents order — the order a restore re-adds them in — although
// bundles are keyed and scanned by file name, for a plain table and for
// the concurrent engine's per-shard tables.
func TestSnapshotCritOrderMatchesExtents(t *testing.T) {
	files := []string{"zeta", "alpha", "mid", "beta", "omega", "gamma"}
	for _, tc := range []struct {
		name string
		crit interface {
			snapSource[cdt.Extent]
			Add(file string, off, length int64)
			Extents() []cdt.Extent
		}
	}{{"table", cdt.New(0)}, {"engine", shardCDT{newConcTestbed(t, 3, false, false).eng.CDT()}}} {
		t.Run(tc.name, func(t *testing.T) {
			store := openMetaStore(t, kvstore.NewMemBackend())
			for _, file := range files {
				for k := int64(0); k < 2; k++ {
					tc.crit.Add(file, k*8192, 4096)
				}
			}
			var w snapWriter
			if _, err := w.write(store, dmt.New(), tc.crit, 1, 1<<30); err != nil {
				t.Fatal(err)
			}
			var want []staterec.Critical
			for _, c := range tc.crit.Extents() {
				want = append(want, staterec.Critical{File: c.File, Off: c.Off, Len: c.Len, CFlag: c.CFlag})
			}
			if got := readSnapshot(store).crits; !reflect.DeepEqual(got, want) {
				t.Fatalf("crits order:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// shardCDT adds to the concurrent engine's CDT directly, into the file's
// shard table.
type shardCDT struct{ CDTView }

func (s shardCDT) Add(file string, off, length int64) {
	sh, _ := s.e.shard(file)
	sh.cdt.Add(file, off, length)
}

// damage rewrites key's value through fn, durably.
func damage(t *testing.T, st *kvstore.Store, key string, fn func([]byte) []byte) {
	t.Helper()
	if err := st.Put(key, fn(mustGet(t, st, key))); err != nil {
		t.Fatal(err)
	}
}

// frameAt returns the byte range of frame i (0 = header) in bundle.
func frameAt(t *testing.T, bundle []byte, i int) (lo, hi int) {
	t.Helper()
	at := 0
	for k := 0; ; k++ {
		if at+4 > len(bundle) {
			t.Fatalf("bundle has no frame %d", i)
		}
		n := int(bundle[at]) | int(bundle[at+1])<<8 | int(bundle[at+2])<<16 | int(bundle[at+3])<<24
		if k == i {
			return at + 4, at + 4 + n
		}
		at += 4 + n
	}
}

// TestSnapshotBundleBitflipQuarantinesOneRecord: a flipped bit inside one
// record of a bundle quarantines exactly that record; its neighbours in
// the same bundle still verify.
func TestSnapshotBundleBitflipQuarantinesOneRecord(t *testing.T) {
	for _, prefix := range []string{resPrefix, cdtPrefix} {
		t.Run(prefix, func(t *testing.T) {
			f := newSnapFixture(t)
			f.fill(t, "a", "b")
			f.tick(t)
			damage(t, f.store, prefix+"a", func(v []byte) []byte {
				lo, hi := frameAt(t, v, 2) // the middle record of three
				v[(lo+hi)/2] ^= 0x10
				return v
			})
			img := readSnapshot(f.store)
			if img.quarRecords != 1 {
				t.Fatalf("quarantined %d records, want exactly 1", img.quarRecords)
			}
			if got := len(img.residency) + len(img.crits); got != 11 {
				t.Fatalf("%d records verified, want 11 of 12", got)
			}
		})
	}
}

// TestSnapshotTruncatedBundleCounted: a bundle cut short inside a record
// surfaces the records it lost in the quarantine count — once, not again
// through the meta-count delta — and never hands out the partial record.
func TestSnapshotTruncatedBundleCounted(t *testing.T) {
	for _, cut := range []struct {
		name  string
		frame int // cut inside this frame
		lost  uint64
		kept  int
	}{
		{"inside-last-record", 3, 1, 2},
		{"inside-first-record", 1, 3, 0},
		// Damaged header and torn tail count 2; wrmeta's count charges the
		// two further records the header can no longer vouch for.
		{"inside-header", 0, 4, 0},
	} {
		t.Run(cut.name, func(t *testing.T) {
			f := newSnapFixture(t)
			f.fill(t, "a", "b")
			f.tick(t)
			damage(t, f.store, resPrefix+"a", func(v []byte) []byte {
				lo, hi := frameAt(t, v, cut.frame)
				return append([]byte(nil), v[:(lo+hi)/2]...)
			})
			img := readSnapshot(f.store)
			if img.quarRecords != cut.lost {
				t.Fatalf("quarantined %d, want %d", img.quarRecords, cut.lost)
			}
			kept := 0
			for k := range img.residency {
				if k[:2] == "a|" {
					kept++
				}
			}
			if kept != cut.kept || len(img.residency) != 3+cut.kept {
				t.Fatalf("kept %d of a's records (%d total), want %d", kept, len(img.residency), cut.kept)
			}
		})
	}
}

// TestSnapshotFailedTickResyncs: a tick that fails part-way loses the
// change marks it took, so the next tick clears the image and rewrites
// every file — the recovered image matches the tables again.
func TestSnapshotFailedTickResyncs(t *testing.T) {
	backend := &failingBackend{Backend: kvstore.NewMemBackend()}
	store := openMetaStore(t, backend)
	table, err := dmt.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	crit := cdt.New(0)
	var w snapWriter
	for i := 0; i < 4; i++ {
		if err := table.Insert(fmt.Sprintf("f%d", i), 0, 4096, int64(i)<<20, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.write(store, table, crit, 1, 1<<30); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := table.Insert(fmt.Sprintf("f%d", i), 8192, 4096, int64(i)<<20+8192, true); err != nil {
			t.Fatal(err)
		}
	}
	backend.fail = true
	if _, err := w.write(store, table, crit, 2, 1<<30); err == nil {
		t.Fatal("tick over a failing store reported success")
	}
	backend.fail = false
	if n, err := w.write(store, table, crit, 3, 1<<30); err != nil || n != 8 {
		t.Fatalf("resync tick: %d records, %v; want all 8", n, err)
	}
	img := readSnapshot(store)
	if img.quarRecords != 0 || len(img.residency) != 8 || img.meta.Extents != 8 {
		t.Fatalf("resynced image: %d residency, meta %+v, %d quarantined", len(img.residency), img.meta, img.quarRecords)
	}
}

// failingBackend fails every WAL append while fail is set.
type failingBackend struct {
	kvstore.Backend
	fail bool
}

func (b *failingBackend) Append(name string, data []byte) error {
	if b.fail {
		return fmt.Errorf("injected append failure")
	}
	return b.Backend.Append(name, data)
}
