package cachespace

import (
	"fmt"
	"sync"

	"s4dcache/internal/extent"
)

// Sharded divides one cache file's byte space into per-shard regions, one
// per core engine shard, each guarded by its own mutex around a plain
// Manager. The concurrent core routes every allocation for a file to the
// region of the file's shard, so all space operations on one file touch
// exactly one region lock and eviction victims are always files of the
// same shard — which the caller already serializes.
//
// Offsets in and out of Sharded are cache-file-global: region i covers
// [i*regionSize, (i+1)*regionSize) and fragment offsets are translated at
// this layer, so DMT mappings, PFS cache-file I/O and stripe/crash math
// all keep working on one flat offset space.
//
// Each region also carries a pin table: in-flight cache reads pin their
// ranges, and the region Manager's reclaim skips pinned candidates, so an
// eviction can never hand out space whose previous bytes are still being
// read. Lock order: a region mutex is acquired below the core shard mutex
// and above nothing — no Sharded operation ever holds two region locks.
type Sharded struct {
	regions    []shardRegion
	regionSize int64
}

type shardRegion struct {
	mu   sync.Mutex
	m    *Manager
	base int64
	// pins maps region-local ranges to in-flight-read reference counts.
	pins *extent.Map[int64]
	// ov/gaps are pin-path scratch; hookOv is the reclaim predicate's own
	// scratch (live while ov may be in use by a pin call further up the
	// same stack is impossible — Allocate and Pin are distinct critical
	// sections — but reclaim runs inside Allocate while the pin scratch is
	// idle; separate buffers keep the aliasing obviously safe).
	ov     []extent.Entry[int64]
	gaps   []extent.Gap
	hookOv []extent.Entry[int64]
	// Padding: regions sit in one slice and their mutexes are the hottest
	// words on the serve path; keep neighbours off each other's cache
	// line.
	_ [64]byte
}

// NewSharded returns a sharded space of the given total capacity split
// evenly across shards regions (any remainder bytes beyond the even split
// are unused), using the default clean-first LRU policy.
func NewSharded(capacity int64, shards int) (*Sharded, error) {
	return NewShardedPolicy(capacity, shards, nil)
}

// NewShardedPolicy is NewSharded with an eviction/admission policy
// factory: newPolicy is called once per region with the region's
// capacity (each region owns an independent policy instance, so policy
// state never crosses a region lock). Nil means clean-first LRU.
func NewShardedPolicy(capacity int64, shards int, newPolicy func(regionCapacity int64) Policy) (*Sharded, error) {
	if shards < 1 {
		shards = 1
	}
	if capacity < int64(shards) {
		return nil, fmt.Errorf("cachespace: capacity %d below one byte per shard (%d shards)", capacity, shards)
	}
	s := &Sharded{
		regions:    make([]shardRegion, shards),
		regionSize: capacity / int64(shards),
	}
	for i := range s.regions {
		r := &s.regions[i]
		var p Policy
		if newPolicy != nil {
			p = newPolicy(s.regionSize)
		}
		m, err := NewWithPolicy(s.regionSize, p)
		if err != nil {
			return nil, err
		}
		r.m = m
		r.base = int64(i) * s.regionSize
		r.pins = extent.New[int64](nil)
		m.SetPinned(func(off, length int64) bool {
			r.hookOv = r.pins.AppendOverlaps(r.hookOv[:0], off, length)
			return len(r.hookOv) > 0
		})
	}
	return s, nil
}

// SetEvictHook installs fn as every region's pre-free eviction callback
// (Manager.SetEvictHook), with cache offsets translated to the global
// space. The hook runs inside Allocate with the region's mutex held, below
// the mutex the caller of Allocate holds (the core shard mutex of
// DESIGN.md §12). Install before serving traffic; passing nil removes the
// hook.
func (s *Sharded) SetEvictHook(fn func(owner Owner, cacheOff, length int64) bool) {
	for i := range s.regions {
		r := &s.regions[i]
		r.mu.Lock()
		if fn == nil {
			r.m.SetEvictHook(nil)
		} else {
			base := r.base
			r.m.SetEvictHook(func(owner Owner, off, length int64) bool {
				return fn(owner, off+base, length)
			})
		}
		r.mu.Unlock()
	}
}

// SetPolicy swaps every region's eviction/admission policy live, one
// region lock at a time: newPolicy is called once per region with the
// region's capacity; nil restores clean-first LRU. In-flight operations
// in other regions proceed against whichever policy their region holds —
// the cache contents and accounting are untouched either way.
func (s *Sharded) SetPolicy(newPolicy func(regionCapacity int64) Policy) {
	for i := range s.regions {
		r := &s.regions[i]
		var p Policy
		if newPolicy != nil {
			p = newPolicy(s.regionSize)
		}
		r.mu.Lock()
		r.m.SetPolicy(p)
		r.mu.Unlock()
	}
}

// PolicyName returns the active policy's registered name (all regions
// run the same policy; region 0 is consulted).
func (s *Sharded) PolicyName() string {
	r := &s.regions[0]
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m.PolicyName()
}

// PolicyCounters returns the per-policy decision counters summed across
// regions. They reset when the policy is swapped.
func (s *Sharded) PolicyCounters() PolicyCounters {
	var out PolicyCounters
	for i := range s.regions {
		r := &s.regions[i]
		r.mu.Lock()
		out = out.Add(r.m.PolicyCounters())
		r.mu.Unlock()
	}
	return out
}

// Touches returns fragment-level cache-hit touches across regions.
func (s *Sharded) Touches() uint64 {
	var n uint64
	for i := range s.regions {
		r := &s.regions[i]
		r.mu.Lock()
		n += r.m.Touches()
		r.mu.Unlock()
	}
	return n
}

// AdmitRejected returns admission-gate denials across regions; unlike
// PolicyCounters it survives policy swaps.
func (s *Sharded) AdmitRejected() uint64 {
	var n uint64
	for i := range s.regions {
		r := &s.regions[i]
		r.mu.Lock()
		n += r.m.AdmitRejected()
		r.mu.Unlock()
	}
	return n
}

// PolicyQueueLen returns the candidate queue length (live + stale)
// summed across regions; a fragmentation/leak diagnostic.
func (s *Sharded) PolicyQueueLen() int {
	var n int
	for i := range s.regions {
		r := &s.regions[i]
		r.mu.Lock()
		n += r.m.PolicyQueueLen()
		r.mu.Unlock()
	}
	return n
}

// Shards returns the region count.
func (s *Sharded) Shards() int { return len(s.regions) }

// RegionCapacity returns each region's capacity in bytes.
func (s *Sharded) RegionCapacity() int64 { return s.regionSize }

// Capacity returns the total allocatable space across regions.
func (s *Sharded) Capacity() int64 { return s.regionSize * int64(len(s.regions)) }

// Allocate reserves size bytes in shard's region for owner, as
// Manager.Allocate. Returned fragment and eviction offsets are
// cache-file-global. On ErrNoSpace the returned evictions (performed
// before reclaim stalled on pinned space) must still have their DMT
// mappings dropped by the caller.
func (s *Sharded) Allocate(shard int, size int64, owner Owner, dirty bool) ([]Fragment, []Evicted, error) {
	r := &s.regions[shard]
	r.mu.Lock()
	defer r.mu.Unlock()
	frags, evicted, err := r.m.Allocate(size, owner, dirty)
	for i := range frags {
		frags[i].CacheOff += r.base
	}
	for i := range evicted {
		evicted[i].CacheOff += r.base
	}
	return frags, evicted, err
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
	s.each(cacheOff, length, func(r *shardRegion, off, n int64) {
		r.ov = r.pins.AppendOverlaps(r.ov[:0], off, n)
		pinned = pinned || len(r.ov) > 0
	})
	return pinned
}

// each applies fn to the region-local pieces of a global range, locking
// one region at a time (never two).
func (s *Sharded) each(cacheOff, length int64, fn func(r *shardRegion, off, length int64)) {
	for length > 0 {
		idx := cacheOff / s.regionSize
		if idx < 0 {
			idx = 0
		}
		if idx >= int64(len(s.regions)) {
			idx = int64(len(s.regions)) - 1
		}
		r := &s.regions[idx]
		n := length
		if end := r.base + s.regionSize; cacheOff+n > end {
			n = end - cacheOff
		}
		r.mu.Lock()
		fn(r, cacheOff-r.base, n)
		r.mu.Unlock()
		cacheOff += n
		length -= n
	}
}

// FreeRange releases a global range back to its region's free pool.
func (s *Sharded) FreeRange(cacheOff, length int64) {
	s.each(cacheOff, length, func(r *shardRegion, off, n int64) { r.m.FreeRange(off, n) })
}

// MarkClean clears the dirty state across a global range.
func (s *Sharded) MarkClean(cacheOff, length int64) {
	s.each(cacheOff, length, func(r *shardRegion, off, n int64) { r.m.MarkClean(off, n) })
}

// MarkDirty sets the dirty state across a global range.
func (s *Sharded) MarkDirty(cacheOff, length int64) {
	s.each(cacheOff, length, func(r *shardRegion, off, n int64) { r.m.MarkDirty(off, n) })
}

// Touch refreshes LRU recency across a global range.
func (s *Sharded) Touch(cacheOff, length int64) {
	s.each(cacheOff, length, func(r *shardRegion, off, n int64) { r.m.Touch(off, n) })
}

// TouchPin is Touch then Pin under one region lock: a read hit's
// recency refresh and in-flight hold.
func (s *Sharded) TouchPin(cacheOff, length int64) {
	s.each(cacheOff, length, func(r *shardRegion, off, n int64) {
		r.m.Touch(off, n)
		r.pinLocked(off, n)
	})
}

// Pin marks a global range as held by an in-flight cache read: reclaim
// will not evict any part of it until the matching Unpin. Pins nest
// (reference counted per byte range).
func (s *Sharded) Pin(cacheOff, length int64) {
	s.each(cacheOff, length, func(r *shardRegion, off, n int64) { r.pinLocked(off, n) })
}

// Unpin releases a pinned range. Every Pin must be matched by exactly one
// Unpin over the same range.
func (s *Sharded) Unpin(cacheOff, length int64) {
	s.each(cacheOff, length, func(r *shardRegion, off, n int64) { r.unpinLocked(off, n) })
}

func (r *shardRegion) pinLocked(off, length int64) {
	end := off + length
	// Gaps first (coverage changes below), then bump existing counts.
	r.gaps = r.pins.AppendGaps(r.gaps[:0], off, length)
	r.ov = r.pins.AppendOverlaps(r.ov[:0], off, length)
	for _, e := range r.ov {
		lo, hi := clip(e.Off, e.End(), off, end)
		r.pins.Insert(lo, hi-lo, e.Val+1)
	}
	for _, g := range r.gaps {
		r.pins.Insert(g.Off, g.Len, 1)
	}
}

func (r *shardRegion) unpinLocked(off, length int64) {
	end := off + length
	r.ov = r.pins.AppendOverlaps(r.ov[:0], off, length)
	for _, e := range r.ov {
		lo, hi := clip(e.Off, e.End(), off, end)
		if e.Val <= 1 {
			r.pins.Delete(lo, hi-lo)
		} else {
			r.pins.Insert(lo, hi-lo, e.Val-1)
		}
	}
}

// PinnedBytes returns the total bytes currently pinned, for tests.
func (s *Sharded) PinnedBytes() int64 {
	var n int64
	for i := range s.regions {
		r := &s.regions[i]
		r.mu.Lock()
		n += r.pins.Bytes()
		r.mu.Unlock()
	}
	return n
}

// FreeBytes returns unallocated space across regions.
func (s *Sharded) FreeBytes() int64 { return s.sum(func(m *Manager) int64 { return m.FreeBytes() }) }

// UsedBytes returns allocated space across regions.
func (s *Sharded) UsedBytes() int64 { return s.sum(func(m *Manager) int64 { return m.UsedBytes() }) }

// DirtyBytes returns allocated dirty space across regions.
func (s *Sharded) DirtyBytes() int64 { return s.sum(func(m *Manager) int64 { return m.DirtyBytes() }) }

// CleanBytes returns allocated reclaimable space across regions.
func (s *Sharded) CleanBytes() int64 { return s.sum(func(m *Manager) int64 { return m.CleanBytes() }) }

func (s *Sharded) sum(fn func(*Manager) int64) int64 {
	var n int64
	for i := range s.regions {
		r := &s.regions[i]
		r.mu.Lock()
		n += fn(r.m)
		r.mu.Unlock()
	}
	return n
}

// Evictions returns reclaimed fragment counts across regions.
func (s *Sharded) Evictions() uint64 {
	var n uint64
	for i := range s.regions {
		r := &s.regions[i]
		r.mu.Lock()
		n += r.m.Evictions()
		r.mu.Unlock()
	}
	return n
}

// Failures returns ErrNoSpace counts across regions.
func (s *Sharded) Failures() uint64 {
	var n uint64
	for i := range s.regions {
		r := &s.regions[i]
		r.mu.Lock()
		n += r.m.Failures()
		r.mu.Unlock()
	}
	return n
}

// Walk visits every allocated fragment across regions in global
// cache-offset order.
func (s *Sharded) Walk(fn func(cacheOff, length int64, owner Owner, dirty bool) bool) {
	for i := range s.regions {
		r := &s.regions[i]
		r.mu.Lock()
		stop := false
		r.m.Walk(func(off, length int64, owner Owner, dirty bool) bool {
			if !fn(off+r.base, length, owner, dirty) {
				stop = true
				return false
			}
			return true
		})
		r.mu.Unlock()
		if stop {
			return
		}
	}
}
