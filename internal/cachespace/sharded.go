package cachespace

import (
	"fmt"

	"s4dcache/internal/extent"
)

// Sharded divides one cache file's byte space into per-shard regions, one
// per core engine shard, each guarded by its own mutex. The concurrent
// core routes every allocation for a file to the region of the file's
// shard, so all space operations on one file touch exactly one region
// lock and eviction victims are always files of the same shard — which
// the caller already serializes.
//
// Offsets in and out of Sharded are cache-file-global: region i covers
// [i*regionSize, (i+1)*regionSize) and fragment offsets are translated at
// this layer, so DMT mappings, PFS cache-file I/O and stripe/crash math
// all keep working on one flat offset space.
//
// Each region also carries a pin table: in-flight cache reads pin their
// ranges, and reclaim skips pinned candidates, so an eviction can never
// hand out space whose previous bytes are still being read. Lock order: a
// region mutex is acquired below the core shard mutex and above nothing —
// no Sharded operation ever holds two region locks.
type Sharded struct {
	regions    []region
	regionSize int64
}

// NewSharded returns a sharded space of the given total capacity split
// evenly across shards regions (any remainder bytes beyond the even split
// are unused), each running its own instance of the named policy
// (PolicyNames; empty means clean-first LRU).
func NewSharded(capacity int64, shards int, policy string) (*Sharded, error) {
	if shards < 1 {
		shards = 1
	}
	if capacity < int64(shards) {
		return nil, fmt.Errorf("cachespace: capacity %d below one byte per shard (%d shards)", capacity, shards)
	}
	s := &Sharded{
		regions:    make([]region, shards),
		regionSize: capacity / int64(shards),
	}
	for i := range s.regions {
		s.regions[i].init(int64(i)*s.regionSize, s.regionSize)
	}
	if err := s.SetPolicy(policy); err != nil {
		return nil, err
	}
	return s, nil
}

// SetEvictHook installs fn as every region's pre-free eviction callback
// (see region.evict), called with cache-file-global offsets. The hook runs
// inside Allocate with the region's mutex held, below the mutex the caller
// of Allocate holds (the core shard mutex of DESIGN.md §12). Install
// before serving traffic; passing nil removes the hook.
func (s *Sharded) SetEvictHook(fn func(owner Owner, cacheOff, length int64) bool) {
	for i := range s.regions {
		r := &s.regions[i]
		r.mu.Lock()
		r.evict = fn
		r.mu.Unlock()
	}
}

// SetPolicy swaps every region's eviction/admission policy to a fresh
// instance of the named policy (PolicyNames; empty means clean-first LRU),
// live, one region lock at a time. In-flight operations in other regions
// proceed against whichever policy their region holds — the cache contents
// and accounting are untouched either way. An unknown name changes
// nothing.
func (s *Sharded) SetPolicy(name string) error {
	for i := range s.regions {
		p, err := newPolicy(name, s.regionSize)
		if err != nil {
			return err
		}
		r := &s.regions[i]
		r.mu.Lock()
		r.setPolicy(p)
		r.mu.Unlock()
	}
	return nil
}

// RegionCapacity returns each region's capacity in bytes.
func (s *Sharded) RegionCapacity() int64 { return s.regionSize }

// Capacity returns the total allocatable space across regions.
func (s *Sharded) Capacity() int64 { return s.regionSize * int64(len(s.regions)) }

// Allocate reserves size bytes in shard's region for owner and appends
// the fragments, with cache-file-global offsets, to dst (pass a buffer
// re-sliced to length zero to allocate nothing). The first fragment caches
// owner.FileOff, the second owner.FileOff + len(first), and so on. When
// free space is short, clean fragments are reclaimed in the policy's
// victim order, each reported through the eviction hook before its bytes
// are reused. Returns ErrNoSpace (dst unextended) if free plus clean space
// cannot satisfy the request; evictions performed before reclaim stalled
// on pinned space or an admission rejection still happened.
func (s *Sharded) Allocate(dst []Fragment, shard int, size int64, owner Owner, dirty bool) ([]Fragment, error) {
	r := &s.regions[shard]
	r.mu.Lock()
	start := len(dst)
	dst, err := r.allocate(dst, size, owner, dirty)
	r.mu.Unlock()
	for i := start; i < len(dst); i++ {
		dst[i].CacheOff += r.base
	}
	return dst, err
}

// InRegion reports whether a global range lies wholly inside shard's
// region.
func (s *Sharded) InRegion(shard int, cacheOff, length int64) bool {
	base := int64(shard) * s.regionSize
	return cacheOff >= base && cacheOff+length <= base+s.regionSize
}

// Pinned reports whether an in-flight read pins any byte of a global
// range.
func (s *Sharded) Pinned(cacheOff, length int64) bool {
	pinned := false
	s.each(cacheOff, length, func(r *region, off, n int64) {
		r.pinOv = r.pins.AppendOverlaps(r.pinOv[:0], off, n)
		pinned = pinned || len(r.pinOv) > 0
	})
	return pinned
}

// each applies fn to the region-local pieces of a global range, clipped
// to the allocatable space, locking one region at a time (never two).
func (s *Sharded) each(cacheOff, length int64, fn func(r *region, off, length int64)) {
	end := min(cacheOff+length, s.Capacity())
	for cacheOff = max(cacheOff, 0); cacheOff < end; {
		r := &s.regions[cacheOff/s.regionSize]
		n := min(end, r.base+s.regionSize) - cacheOff
		r.mu.Lock()
		fn(r, cacheOff-r.base, n)
		r.mu.Unlock()
		cacheOff += n
	}
}

// FreeRange releases a global range back to its region's free pool,
// regardless of state. Callers use it when a DMT mapping is dropped or
// overwritten.
func (s *Sharded) FreeRange(cacheOff, length int64) { s.each(cacheOff, length, (*region).freeRange) }

// MarkClean clears the dirty state across a global range, making it
// reclaimable (flush completed).
func (s *Sharded) MarkClean(cacheOff, length int64) { s.each(cacheOff, length, (*region).markClean) }

// MarkDirty sets the dirty state across a global range (a cached range
// was re-written).
func (s *Sharded) MarkDirty(cacheOff, length int64) { s.each(cacheOff, length, (*region).markDirty) }

// Touch records a cache hit across a global range (a recency refresh
// under clean-first LRU).
func (s *Sharded) Touch(cacheOff, length int64) { s.each(cacheOff, length, (*region).touch) }

// TouchPin is Touch then Pin under one region lock: a read hit's
// recency refresh and in-flight hold.
func (s *Sharded) TouchPin(cacheOff, length int64) {
	s.each(cacheOff, length, func(r *region, off, n int64) {
		r.touch(off, n)
		r.pin(off, n)
	})
}

// Pin marks a global range as held by an in-flight cache read: reclaim
// will not evict any part of it until the matching Unpin. Pins nest
// (reference counted per byte range).
func (s *Sharded) Pin(cacheOff, length int64) { s.each(cacheOff, length, (*region).pin) }

// Unpin releases a pinned range. Every Pin must be matched by exactly one
// Unpin over the same range.
func (s *Sharded) Unpin(cacheOff, length int64) { s.each(cacheOff, length, (*region).unpin) }

// Stats is a snapshot of the space's accounting and counters, summed over
// regions.
type Stats struct {
	// Policy is the active policy's registered name (every region runs
	// the same policy; region 0's is reported).
	Policy string
	// FreeBytes is unallocated space; UsedBytes allocated space, clean
	// plus dirty; DirtyBytes allocated space awaiting flush; CleanBytes
	// allocated reclaimable space; PinnedBytes space held by in-flight
	// reads.
	FreeBytes, UsedBytes, DirtyBytes, CleanBytes, PinnedBytes int64
	// Evictions counts reclaimed clean fragments (a vetoed eviction is
	// not one); Failures allocations that returned ErrNoSpace; Touches
	// fragment-level cache-hit touches; AdmitRejected admission-gate
	// denials, which unlike PolicyCounters survive policy swaps.
	Evictions, Failures, Touches, AdmitRejected uint64
	// PolicyQueueLen is the candidate queue length (live + stale); a
	// fragmentation/leak diagnostic.
	PolicyQueueLen int
	// PolicyCounters are the per-policy decision counters; they reset
	// when the policy is swapped.
	PolicyCounters PolicyCounters
}

// Stats snapshots the space in one pass, locking one region at a time:
// each region's figures are consistent, the sum is not a single instant.
func (s *Sharded) Stats() Stats {
	var st Stats
	for i := range s.regions {
		r := &s.regions[i]
		r.mu.Lock()
		if i == 0 {
			st.Policy = r.policy.Name()
		}
		st.FreeBytes += r.size - r.usedB
		st.UsedBytes += r.usedB
		st.DirtyBytes += r.dirtyB
		st.PinnedBytes += r.pins.Bytes()
		st.Evictions += r.evictions
		st.Failures += r.failures
		st.Touches += r.touches
		st.AdmitRejected += r.admitRejected
		st.PolicyQueueLen += r.policy.QueueLen()
		st.PolicyCounters = st.PolicyCounters.Add(r.policy.Counters())
		r.mu.Unlock()
	}
	st.CleanBytes = st.UsedBytes - st.DirtyBytes
	return st
}

// Walk visits every allocated fragment across regions in global
// cache-offset order.
func (s *Sharded) Walk(fn func(cacheOff, length int64, owner Owner, dirty bool) bool) {
	for i := range s.regions {
		r := &s.regions[i]
		r.mu.Lock()
		stop := false
		r.used.Walk(func(e extent.Entry[unit]) bool {
			stop = !fn(e.Off+r.base, e.Len, e.Val.owner, e.Val.dirty)
			return !stop
		})
		r.mu.Unlock()
		if stop {
			return
		}
	}
}
