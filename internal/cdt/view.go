package cdt

import (
	"sync/atomic"

	"s4dcache/internal/extent"
)

// Epoch views, mirroring internal/dmt/view.go for the Critical Data
// Table. The published snapshot is coverage-only: merged runs of critical
// bytes per file, no payloads. The serve path's lock-free consumers
// (Contains-style criticality checks) only need coverage, and dropping
// the payloads makes the common-by-far mutation — a benefit-refreshing
// re-Add of an already-covered range — a publication no-op: Striped.Add
// detects that coverage cannot have changed and skips the republish
// entirely, so the read-heavy critical workload (every request Adds)
// builds no snapshots at all in steady state.
//
// Writers serialize per stripe and republish before releasing the stripe
// mutex; readers load one pointer pair. Same memory-ordering contract as
// the DMT views (DESIGN.md §12).

// Run is one merged run of critical coverage, as published in the views.
type Run struct {
	Off, Len int64
}

// cstripeView is one stripe's published file set (immutable map, per-file
// atomic run slots).
type cstripeView struct {
	files map[string]*runSlot
}

type runSlot struct {
	runs atomic.Pointer[fileRuns]
}

// fileRuns is an immutable sorted slice of merged coverage runs.
type fileRuns struct {
	runs []Run
}

var emptyFileRuns = &fileRuns{}

// appendMergedRuns flattens a file's extent map into merged coverage runs
// (adjacent extents coalesce — criticality payloads don't matter here).
func appendMergedRuns(dst []Run, m *extent.Map[Info]) []Run {
	m.Walk(func(e extent.Entry[Info]) bool {
		if n := len(dst); n > 0 && dst[n-1].Off+dst[n-1].Len == e.Off {
			dst[n-1].Len += e.Len
		} else {
			dst = append(dst, Run{Off: e.Off, Len: e.Len})
		}
		return true
	})
	return dst
}

// republish rebuilds file's published coverage from the live table. Must
// run with the stripe mutex held.
func (sh *cstripe) republish(file string) {
	fr := emptyFileRuns
	if m := sh.t.lookupMap(file); m != nil && m.Len() > 0 {
		fr = &fileRuns{runs: appendMergedRuns(make([]Run, 0, m.Len()), m)}
	}
	v := sh.view.Load()
	if v != nil {
		if slot := v.files[file]; slot != nil {
			slot.runs.Store(fr)
			sh.version.Add(1)
			return
		}
	}
	n := 1
	if v != nil {
		n += len(v.files)
	}
	files := make(map[string]*runSlot, n)
	if v != nil {
		for k, s := range v.files {
			files[k] = s
		}
	}
	slot := &runSlot{}
	slot.runs.Store(fr)
	// The map key aliases the arena's canonical bytes, not a fresh copy.
	files[sh.t.arena.Canonical(file)] = slot
	sh.view.Store(&cstripeView{files: files})
	sh.version.Add(1)
}

// republishAll rebuilds the stripe's whole view — needed after a bounded
// table's FIFO eviction, which may delete coverage across several files
// of the stripe in one Add.
func (sh *cstripe) republishAll() {
	t := sh.t
	files := make(map[string]*runSlot, len(t.ids))
	for si, id := range t.ids {
		m := t.maps[si]
		fr := emptyFileRuns
		if m.Len() > 0 {
			fr = &fileRuns{runs: appendMergedRuns(make([]Run, 0, m.Len()), m)}
		}
		slot := &runSlot{}
		slot.runs.Store(fr)
		files[t.arena.Name(id)] = slot
	}
	sh.view.Store(&cstripeView{files: files})
	sh.version.Add(1)
}

// viewRuns loads file's current published coverage runs. Lock-free.
func (s *Striped) viewRuns(file string) []Run {
	v := s.stripes[stripeIndex(file)].view.Load()
	if v == nil {
		return nil
	}
	slot := v.files[file]
	if slot == nil {
		return nil
	}
	return slot.runs.Load().runs
}

// ViewContains reports whether the published coverage fully contains
// [off, off+length) — the lock-free form of Contains. Runs are merged, so
// full containment means containment in a single run; a manual binary
// search keeps the path allocation-free.
func (s *Striped) ViewContains(file string, off, length int64) bool {
	if length <= 0 {
		return true
	}
	runs := s.viewRuns(file)
	lo, hi := 0, len(runs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if runs[mid].Off+runs[mid].Len > off {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(runs) {
		return false
	}
	r := runs[lo]
	return r.Off <= off && off+length <= r.Off+r.Len
}

// AppendViewRuns appends file's published coverage runs to dst — the
// snapshot oracle of the epoch-read property tests.
func (s *Striped) AppendViewRuns(dst []Run, file string) []Run {
	return append(dst, s.viewRuns(file)...)
}

// StripeVersion returns the publication counter of file's stripe.
func (s *Striped) StripeVersion(file string) uint64 {
	return s.stripes[stripeIndex(file)].version.Load()
}
