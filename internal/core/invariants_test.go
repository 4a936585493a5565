package core

import (
	"sort"
	"testing"

	"s4dcache/internal/cachespace"
	"s4dcache/internal/dmt"
	"s4dcache/internal/kvstore"
)

// checkInvariants verifies the cross-table invariants of an engine's
// shared state at quiescence:
//   - every DMT mapping lies in allocated cache space, owned by the same
//     file range and carrying the same dirty bit;
//   - no two mappings overlap in cache;
//   - each table's HasDirty/HasPending agrees with a recount.
//
// It holds every shard mutex, in index order as the snapshot compaction
// does, so a Rebuilder cycle still running cannot move a mapping and its
// space apart mid-check.
func checkInvariants(t *testing.T, e *engine) {
	t.Helper()
	for i := range e.shards {
		e.shards[i].mu.Lock()
	}
	defer func() {
		for i := range e.shards {
			e.shards[i].mu.Unlock()
		}
	}()
	type frag struct {
		off, length int64
		owner       cachespace.Owner
		dirty       bool
	}
	var frags []frag // in cache-offset order
	e.space.Walk(func(off, length int64, owner cachespace.Owner, dirty bool) bool {
		frags = append(frags, frag{off, length, owner, dirty})
		return true
	})
	var maps []dmt.Hit
	for i := range e.shards {
		sh := &e.shards[i]
		maps = append(maps, sh.dmt.DirtyExtents(0)...)
		maps = append(maps, sh.dmt.CleanExtents(0)...)
		if got, want := sh.dmt.HasDirty(), len(sh.dmt.DirtyExtents(1)) > 0; got != want {
			t.Errorf("shard %d: DMT HasDirty = %v, recount says %v", i, got, want)
		}
		if got, want := sh.cdt.HasPending(), len(sh.cdt.PendingFetches(1)) > 0; got != want {
			t.Errorf("shard %d: CDT HasPending = %v, recount says %v", i, got, want)
		}
	}
	sort.Slice(maps, func(i, j int) bool { return maps[i].CacheOff < maps[j].CacheOff })
	for i, h := range maps {
		if i > 0 {
			if p := maps[i-1]; p.CacheOff+p.Len > h.CacheOff {
				t.Errorf("mappings overlap in cache: %s[%d,+%d)@%d and %s[%d,+%d)@%d",
					p.File, p.Off, p.Len, p.CacheOff, h.File, h.Off, h.Len, h.CacheOff)
			}
		}
		end := h.CacheOff + h.Len
		pos := h.CacheOff
		j := sort.Search(len(frags), func(k int) bool { return frags[k].off+frags[k].length > pos })
		for pos < end {
			if j == len(frags) || frags[j].off > pos {
				t.Errorf("%s[%d,+%d) maps unallocated cache bytes at %d", h.File, h.Off, h.Len, pos)
				break
			}
			f := frags[j]
			if f.owner.File != h.File || f.owner.FileOff+(pos-f.off) != h.Off+(pos-h.CacheOff) || f.dirty != h.Dirty {
				t.Errorf("%s[%d,+%d)@%d dirty=%v: cache bytes at %d belong to %s@%d dirty=%v",
					h.File, h.Off, h.Len, h.CacheOff, h.Dirty, pos, f.owner.File, f.owner.FileOff+(pos-f.off), f.dirty)
				break
			}
			pos = min(end, f.off+f.length)
			j++
		}
	}
}

// checkRecoveredInvariants warm-restarts an S4D over store on tb's
// virtual-time testbed, with a cache large enough to adopt every
// recorded offset and the given resident metadata budget, runs the
// recovery to completion and checks the recovered engine's cross-table
// invariants.
func checkRecoveredInvariants(t *testing.T, tb *testbed, store *kvstore.Store, budget int64) {
	t.Helper()
	s, err := New(Config{
		Engine: tb.eng, OPFS: tb.opfs, CPFS: tb.cpfs, Model: tb.s4d.Model(),
		CacheCapacity: 1 << 30, MetaStore: store, MetaBudget: budget,
		LazyFetch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.eng.Run()
	if s.Stats().Recovering {
		t.Fatal("warm restart never finished recovering")
	}
	checkInvariants(t, &s.engine)
}

// openDamaged opens a metadata store over copies of the given WAL and
// (optional) store snapshot images.
func openDamaged(t *testing.T, wal, snap []byte) *kvstore.Store {
	t.Helper()
	nb := kvstore.NewMemBackend()
	for name, img := range map[string][]byte{"dmt.wal": wal, "dmt.snap": snap} {
		if len(img) == 0 {
			continue
		}
		if err := nb.Replace(name, append([]byte(nil), img...)); err != nil {
			t.Fatal(err)
		}
	}
	return openMetaStore(t, nb)
}
