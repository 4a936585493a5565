package cdt

import (
	"sync"

	"s4dcache/internal/names"
)

// numStripes is the lock-stripe count of the concurrent table — a power
// of two so routing is a mask, matching the DMT and kvstore stripe
// counts.
const numStripes = 16

// stripeIndex routes a file name to its stripe (FNV-1a, masked).
func stripeIndex(file string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(file); i++ {
		h ^= uint32(file[i])
		h *= 16777619
	}
	return h & (numStripes - 1)
}

// Striped is a lock-striped concurrent Critical Data Table: numStripes
// independent sub-tables, each guarding the files that hash to it. The
// byte bound is divided evenly across stripes, so each stripe runs FIFO
// eviction locally and the aggregate stays within maxBytes without any
// cross-stripe coordination on the hot path. The simulator core keeps the
// plain Table (its scan order drives the deterministic fetch schedule);
// Striped is the concurrent server-side API.
type Striped struct {
	stripes [numStripes]cstripe
}

// cstripe is one lock stripe: a sub-table behind its mutex. Padded so
// neighbouring stripes don't false-share a cache line.
type cstripe struct {
	mu sync.Mutex
	t  *Table
	_  [64]byte
}

// NewStriped returns an empty concurrent table bounded to maxBytes of
// tracked data across all stripes; maxBytes <= 0 means unbounded. The
// stripes share one name arena (the caller's via WithArena, or a private
// one).
func NewStriped(maxBytes int64, opts ...Option) *Striped {
	s := &Striped{}
	per := maxBytes
	if maxBytes > 0 {
		// Ceiling split keeps the aggregate bound >= maxBytes while never
		// letting a single stripe exceed its even share by more than the
		// rounding byte.
		per = (maxBytes + numStripes - 1) / numStripes
	}
	var shared *names.Arena
	for i := range s.stripes {
		t := New(per, opts...)
		if shared == nil {
			shared = t.Arena()
		} else {
			// No WithArena given: the first stripe's private arena becomes
			// the table-wide one.
			t.arena = shared
		}
		s.stripes[i].t = t
	}
	return s
}

// Arena returns the shared name-interning arena.
func (s *Striped) Arena() *names.Arena { return s.stripes[0].t.arena }

// SetMaxBytes adjusts the aggregate table bound live; maxBytes <= 0
// means unbounded. The bound is ceiling-split across stripes as in
// NewStriped.
func (s *Striped) SetMaxBytes(maxBytes int64) {
	per := maxBytes
	if maxBytes > 0 {
		per = (maxBytes + numStripes - 1) / numStripes
	}
	for i := range s.stripes {
		sh := &s.stripes[i]
		sh.mu.Lock()
		sh.t.SetMaxBytes(per)
		sh.mu.Unlock()
	}
}

// MaxBytes returns the aggregate table bound (<= 0 means unbounded).
func (s *Striped) MaxBytes() int64 {
	sh := &s.stripes[0]
	sh.mu.Lock()
	per := sh.t.MaxBytes()
	sh.mu.Unlock()
	if per <= 0 {
		return per
	}
	return per * numStripes
}

// stripe locks and returns the sub-table owning file. The caller must
// unlock the returned mutex.
func (s *Striped) stripe(file string) (*Table, *sync.Mutex) {
	sh := &s.stripes[stripeIndex(file)]
	sh.mu.Lock()
	return sh.t, &sh.mu
}

// Add records [off, off+length) of file as critical, as Table.Add.
func (s *Striped) Add(file string, off, length int64) {
	t, mu := s.stripe(file)
	defer mu.Unlock()
	t.Add(file, off, length)
}

// Contains reports whether [off, off+length) is fully covered.
func (s *Striped) Contains(file string, off, length int64) bool {
	t, mu := s.stripe(file)
	defer mu.Unlock()
	return t.Contains(file, off, length)
}

// SetCFlag marks the overlapped critical parts of the range for lazy
// fetching.
func (s *Striped) SetCFlag(file string, off, length int64) {
	t, mu := s.stripe(file)
	defer mu.Unlock()
	t.SetCFlag(file, off, length)
}

// ClearCFlag unmarks the overlapped parts of the range.
func (s *Striped) ClearCFlag(file string, off, length int64) {
	t, mu := s.stripe(file)
	defer mu.Unlock()
	t.ClearCFlag(file, off, length)
}

// PendingFetches returns up to max C_flag-marked ranges (all if max <= 0),
// in stripe order then each stripe's first-added order.
func (s *Striped) PendingFetches(max int) []Fetch {
	var out []Fetch
	for i := range s.stripes {
		sh := &s.stripes[i]
		sh.mu.Lock()
		rem := 0
		if max > 0 {
			rem = max - len(out)
		}
		out = append(out, sh.t.PendingFetches(rem)...)
		sh.mu.Unlock()
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

// Remove drops coverage of [off, off+length).
func (s *Striped) Remove(file string, off, length int64) {
	t, mu := s.stripe(file)
	defer mu.Unlock()
	t.Remove(file, off, length)
}

// FileTracked reports whether any critical extent of file remains.
func (s *Striped) FileTracked(file string) bool {
	t, mu := s.stripe(file)
	defer mu.Unlock()
	return t.FileTracked(file)
}

// Bytes returns the total tracked critical bytes across stripes.
func (s *Striped) Bytes() int64 {
	var n int64
	for i := range s.stripes {
		sh := &s.stripes[i]
		sh.mu.Lock()
		n += sh.t.Bytes()
		sh.mu.Unlock()
	}
	return n
}

// Entries returns the total extent count across stripes.
func (s *Striped) Entries() int {
	n := 0
	for i := range s.stripes {
		sh := &s.stripes[i]
		sh.mu.Lock()
		n += sh.t.Entries()
		sh.mu.Unlock()
	}
	return n
}

// PendingBytes returns the C_flag-marked bytes across stripes.
func (s *Striped) PendingBytes() int64 {
	var n int64
	for i := range s.stripes {
		sh := &s.stripes[i]
		sh.mu.Lock()
		n += sh.t.PendingBytes()
		sh.mu.Unlock()
	}
	return n
}

// HasPending reports whether any stripe has a lazy fetch pending. Each
// stripe answers in O(1) from its incremental counter, and the scan stops
// at the first pending stripe — the concurrent Rebuilder's poll predicate.
func (s *Striped) HasPending() bool {
	for i := range s.stripes {
		sh := &s.stripes[i]
		sh.mu.Lock()
		pending := sh.t.HasPending()
		sh.mu.Unlock()
		if pending {
			return true
		}
	}
	return false
}

// Extents dumps every tracked range across stripes (stripe order, then
// each stripe's deterministic order) — the concurrency-equivalence oracle.
func (s *Striped) Extents() []Extent {
	var out []Extent
	for i := range s.stripes {
		sh := &s.stripes[i]
		sh.mu.Lock()
		out = append(out, sh.t.Extents()...)
		sh.mu.Unlock()
	}
	return out
}

// Evicted returns how many FIFO evictions the byte bound has forced
// across stripes.
func (s *Striped) Evicted() uint64 {
	var n uint64
	for i := range s.stripes {
		sh := &s.stripes[i]
		sh.mu.Lock()
		n += sh.t.Evicted()
		sh.mu.Unlock()
	}
	return n
}
