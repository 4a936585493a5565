// Package cachespace manages the byte space of the cache files on the
// CServers. It implements the allocation policy of Algorithm 1: a write
// admission first takes free space; when none is left it reclaims clean
// (flushed) space; dirty space is never reclaimed — if free plus clean
// space cannot satisfy a request, admission fails and the request goes
// to the DServers.
//
// Victim selection and admission gating sit behind the Policy interface:
// the default is the paper's clean-first LRU, with S3-FIFO and TinyLFU
// as drop-in alternatives (see policy.go). Policies can be swapped live
// via SetPolicy without touching the cache contents.
//
// Allocations may be scattered (a request can receive several fragments),
// matching an extent-based cache file; every fragment carries the identity
// of the original-file range it caches, and the eviction hook
// (Sharded.SetEvictHook) reports each reclaimed fragment under that
// identity, so the caller can drop its DMT mapping before the bytes are
// reused.
package cachespace

import (
	"errors"
	"fmt"
	"sync"

	"s4dcache/internal/extent"
)

// ErrNoSpace is returned when free plus reclaimable clean space cannot
// satisfy an allocation.
var ErrNoSpace = errors.New("cachespace: insufficient free and clean space")

// ErrAdmissionRejected is returned (wrapping ErrNoSpace, so existing
// errors.Is checks keep working) when the policy's admission gate denies
// an allocation that would have to evict better-valued space. It is a
// fixed value so the rejection path stays allocation-free.
var ErrAdmissionRejected = fmt.Errorf("%w: admission rejected by policy gate", ErrNoSpace)

// Owner identifies the original-file range a cache fragment holds.
type Owner struct {
	// File is the original file name (D_file).
	File string
	// FileOff is the range start in the original file (D_offset).
	FileOff int64
}

// Fragment is one allocated piece of cache-file space.
type Fragment struct {
	// CacheOff is the fragment's offset in the cache file.
	CacheOff int64
	// Len is the fragment length.
	Len int64
}

type unit struct {
	owner Owner
	dirty bool
	seq   uint64 // LRU timestamp: larger = more recently used
}

// region is one shard's slice of the cache file: its allocation map,
// policy, pin table and counters, all guarded by mu. Offsets inside a
// region's methods are region-local; Sharded translates at its boundary.
type region struct {
	mu   sync.Mutex
	base int64 // global offset of the region's first byte
	size int64

	used   *extent.Map[unit]
	usedB  int64
	dirtyB int64
	seq    uint64

	// lowWater is a first-fit hint: every byte below it is allocated, so
	// no free gap starts before it. freeRange lowers it; takeFree raises
	// it to the end of the last fragment it takes and starts its gap walk
	// there, instead of rescanning the used map from offset 0.
	lowWater int64

	// policy owns the queue of reclaim candidates and the admission
	// gate. Candidates are lazily invalidated: every transition that
	// creates or refreshes clean space (allocate-clean, markClean, touch
	// under a restamping policy) registers one carrying the unit's
	// then-current seq; reclaim pops candidates and validates them
	// against the live map (same seq, still clean), silently dropping
	// entries made stale by re-dirtying, touching, freeing or
	// overwriting. Evictions therefore cost O(log n) amortized instead
	// of re-walking and re-sorting every clean extent per reclaimed
	// fragment, and the policy never has to delete entries.
	policy Policy

	// pins maps ranges held by in-flight cache reads to reference counts;
	// reclaim skips any candidate a pin overlaps, so an eviction can never
	// reuse space whose old bytes are still being read. With no pins held
	// it never skips.
	pins *extent.Map[int64]

	// evict, when set, runs for every fragment reclaim is about to evict,
	// in victim order, with the fragment's global cache offset, before its
	// bytes rejoin the free pool. The core engine installs a hook that
	// unmaps the fragment's DMT range (and, in virtual time, charges the
	// commit), making unmap-before-free a space invariant: the unmap lands
	// (under this region's lock) before the space is reusable, so no DMT
	// lookup can return a mapping to bytes recycled to a new owner.
	// Returning false vetoes the eviction (the mapping could not be
	// dropped); the fragment is set aside like pinned space.
	evict func(owner Owner, cacheOff, length int64) bool

	ov      []extent.Entry[unit]  // scratch for overlap scans
	gaps    []extent.Gap          // scratch for free-gap scans
	skipped []Cand                // scratch for reclaim's set-aside candidates
	pinOv   []extent.Entry[int64] // scratch for pin scans
	pinGaps []extent.Gap          // scratch for pin gaps

	evictions     uint64
	failures      uint64
	touches       uint64
	admitRejected uint64

	// Padding: regions sit in one slice and their mutexes are the hottest
	// words on the serve path; keep neighbours off each other's cache
	// line.
	_ [64]byte
}

func (r *region) init(base, size int64) {
	r.base, r.size = base, size
	r.used = extent.New[unit](func(u unit, delta int64) unit {
		return unit{owner: Owner{File: u.owner.File, FileOff: u.owner.FileOff + delta}, dirty: u.dirty, seq: u.seq}
	})
	r.pins = extent.New[int64](nil)
}

// setPolicy installs p and re-registers every live clean fragment with it
// in cache-offset order, so the every-clean-byte-has-a-candidate
// invariant survives the swap. The cache contents are untouched.
func (r *region) setPolicy(p Policy) {
	r.policy = p
	r.used.Walk(func(e extent.Entry[unit]) bool {
		if !e.Val.dirty {
			p.NoteClean(Cand{Seq: e.Val.seq, Off: e.Off, Len: e.Len}, e.Val.owner)
		}
		return true
	})
}

// allocate reserves size bytes for owner, appending region-local fragments
// to frags. The first fragment caches owner.FileOff, the second
// owner.FileOff + len(first), and so on. If the free space is
// insufficient, clean fragments are reclaimed in the policy's victim order
// (each reported through the eviction hook). Returns ErrNoSpace if free +
// clean space is insufficient.
func (r *region) allocate(frags []Fragment, size int64, owner Owner, dirty bool) ([]Fragment, error) {
	if size <= 0 {
		return frags, fmt.Errorf("cachespace: allocation size must be positive, got %d", size)
	}
	r.policy.NoteAccess(owner, size)
	free := r.size - r.usedB
	if clean := r.usedB - r.dirtyB; size > free+clean {
		r.failures++
		return frags, fmt.Errorf("%w: need %d, free %d, clean %d", ErrNoSpace, size, free, clean)
	}
	if size > free && r.reclaim(size-free, owner) {
		// The policy refused to evict for this allocation. Evictions
		// already performed have been reported through the hook.
		r.failures++
		r.admitRejected++
		return frags, ErrAdmissionRejected
	}
	if free = r.size - r.usedB; size > free {
		// Reclaim came up short: some clean space is pinned by in-flight
		// reads or vetoed by the hook. With no pins held and no vetoes
		// reclaim always satisfies a feasible request.
		r.failures++
		return frags, fmt.Errorf("%w: need %d, free %d after reclaim (pinned space held)", ErrNoSpace, size, free)
	}
	return r.takeFree(frags, size, owner, dirty), nil
}

// freeRange releases [cacheOff, cacheOff+length) back to the free pool,
// regardless of state.
func (r *region) freeRange(cacheOff, length int64) {
	if length <= 0 {
		return
	}
	r.ov = r.used.AppendOverlaps(r.ov[:0], cacheOff, length)
	for _, e := range r.ov {
		lo, hi := clip(e.Off, e.End(), cacheOff, cacheOff+length)
		r.usedB -= hi - lo
		if e.Val.dirty {
			r.dirtyB -= hi - lo
		}
	}
	r.used.Delete(cacheOff, length)
	r.lowWater = min(r.lowWater, cacheOff)
}

// markClean clears the dirty state of allocated fragments overlapping
// [cacheOff, cacheOff+length), making them reclaimable (flush completed).
func (r *region) markClean(cacheOff, length int64) {
	r.ov = r.used.AppendOverlaps(r.ov[:0], cacheOff, length)
	for _, e := range r.ov {
		if !e.Val.dirty {
			continue
		}
		lo, hi := clip(e.Off, e.End(), cacheOff, cacheOff+length)
		owner := e.Val.owner
		owner.FileOff += lo - e.Off
		seq := r.nextSeq()
		r.dirtyB -= hi - lo
		r.used.Insert(lo, hi-lo, unit{owner: owner, dirty: false, seq: seq})
		r.policy.NoteClean(Cand{Seq: seq, Off: lo, Len: hi - lo}, owner)
	}
}

// markDirty sets the dirty state of allocated fragments overlapping
// [cacheOff, cacheOff+length) (a cached range was re-written).
func (r *region) markDirty(cacheOff, length int64) {
	r.ov = r.used.AppendOverlaps(r.ov[:0], cacheOff, length)
	for _, e := range r.ov {
		if e.Val.dirty {
			continue
		}
		lo, hi := clip(e.Off, e.End(), cacheOff, cacheOff+length)
		owner := e.Val.owner
		owner.FileOff += lo - e.Off
		r.dirtyB += hi - lo
		r.used.Insert(lo, hi-lo, unit{owner: owner, dirty: true, seq: r.nextSeq()})
	}
}

// touch records a cache hit on fragments overlapping the range. Under a
// recency policy (Restamp) the fragments' seqs are refreshed and their
// clean ranges re-registered; under a FIFO-family policy the hit is pure
// counter accounting.
func (r *region) touch(cacheOff, length int64) {
	r.ov = r.used.AppendOverlaps(r.ov[:0], cacheOff, length)
	restamp := r.policy.Restamp()
	for _, e := range r.ov {
		r.touches++
		r.policy.NoteTouch(e.Val.owner, e.Off, e.Len, e.Val.dirty)
		if !restamp {
			continue
		}
		u := e.Val
		u.seq = r.nextSeq()
		r.used.Insert(e.Off, e.Len, u)
		if !u.dirty {
			r.policy.NoteClean(Cand{Seq: u.seq, Off: e.Off, Len: e.Len}, u.owner)
		}
	}
}

func (r *region) nextSeq() uint64 {
	r.seq++
	return r.seq
}

// reclaimKeepBudget caps VictimKeep second chances per reclaim pass.
// When every resident byte is hot (a thrashing re-reference stream), a
// second-chance policy otherwise loops the whole candidate queue
// decrementing counters for every allocation — CLOCK's pathological
// full-lap scan — and the keep-driven re-pushes fragment and inflate
// the queue without bound. Past the budget the pass stops consulting
// the policy and evicts strictly oldest-first. Policies that never
// return VictimKeep (clean-LRU, TinyLFU) never hit the budget, so the
// admission gate (VictimReject) is never bypassed in practice.
const reclaimKeepBudget = 32

// reclaim frees at least need bytes of clean space in the policy's
// victim order, reporting each victim through the eviction hook before
// freeing it. Callers have already verified feasibility. It reports
// whether the policy's admission gate rejected the incoming allocation
// (reclaim stopped early; state is consistent, the unprocessed tail was
// requeued).
func (r *region) reclaim(need int64, incoming Owner) (rejected bool) {
	var reclaimed int64
	skipped := r.skipped[:0]
	keeps := 0
	restamp := r.policy.Restamp()
	for reclaimed < need && !rejected {
		c, ok := r.policy.PopVictim()
		if !ok {
			break
		}
		if r.pinOv = r.pins.AppendOverlaps(r.pinOv[:0], c.Off, c.Len); len(r.pinOv) > 0 {
			// An in-flight read holds (part of) this range. Set it aside —
			// requeued after the loop so one reclaim pass cannot spin on
			// it — and try the next-oldest candidate.
			skipped = append(skipped, c)
			continue
		}
		cEnd := c.Off + c.Len
		// Validate against the live map: only subranges that are still
		// clean and still carry the candidate's seq belong to this queue
		// entry; everything else was refreshed or overwritten since. The
		// scan works on a copy of the overlaps, and each victim frees only
		// its own range, so freeing inside the loop leaves the rest valid.
		r.ov = r.used.AppendOverlaps(r.ov[:0], c.Off, c.Len)
		for _, e := range r.ov {
			if e.Val.dirty || e.Val.seq != c.Seq {
				continue
			}
			lo, hi := clip(e.Off, e.End(), c.Off, cEnd)
			if lo >= hi {
				continue
			}
			take := hi - lo
			cut := int64(-1)
			if rem := need - reclaimed; take > rem && restamp {
				// Partial eviction of the victim fragment: take the head.
				// Only under a restamping (recency) policy: the cut
				// remainder's refreshed LRU position is what protects it.
				// FIFO-family policies evict whole victim fragments —
				// cutting mid-fragment splits extents, and the scattered
				// victim order then shatters the free list into a
				// fragmentation spiral (allocations taking dozens of tiny
				// gaps, each a future candidate). The overshoot is at most
				// one fragment of extra free space.
				take = rem
				cut = lo + take
			}
			owner := e.Val.owner
			owner.FileOff += lo - e.Off
			action := VictimEvict
			if keeps < reclaimKeepBudget {
				action = r.policy.Victim(incoming, owner, c, lo, hi-lo)
			}
			if action == VictimKeep {
				// The policy re-registered this fragment's coverage
				// itself (e.g. an S3-FIFO promotion); not a victim.
				keeps++
				continue
			}
			if action == VictimReject {
				// Admission denied. Requeue the candidate's unprocessed
				// tail (lazy validation tolerates the stale head) and
				// stop reclaiming.
				skipped = append(skipped, Cand{Seq: c.Seq, Off: lo, Len: cEnd - lo, Queue: c.Queue})
				rejected = true
				break
			}
			if r.evict != nil && !r.evict(owner, r.base+lo, take) {
				// The hook could not unmap this fragment; it must not be
				// freed. Requeue it like pinned space and move on.
				skipped = append(skipped, Cand{Seq: c.Seq, Off: lo, Len: hi - lo, Queue: c.Queue})
				continue
			}
			r.policy.NoteEvicted(owner, take)
			r.usedB -= take
			r.used.Delete(lo, take)
			r.lowWater = min(r.lowWater, lo)
			r.evictions++
			reclaimed += take
			if reclaimed >= need {
				// Requeue the candidate's unreclaimed remainder so the
				// every-clean-byte-has-a-candidate invariant holds.
				if cut < 0 {
					cut = hi
				}
				if cut < cEnd {
					r.policy.Requeue(Cand{Seq: c.Seq, Off: cut, Len: cEnd - cut, Queue: c.Queue})
				}
				break
			}
		}
	}
	for _, c := range skipped {
		r.policy.Requeue(c)
	}
	r.skipped = skipped[:0]
	return rejected
}

// takeFree allocates size bytes from the free gaps (first fit, scattered),
// appending to frags. The gap walk starts at the low-water offset and
// stops at the gap that completes the request, so it returns exactly the
// gaps a scan from offset 0 would use.
func (r *region) takeFree(frags []Fragment, size int64, owner Owner, dirty bool) []Fragment {
	var taken int64
	r.gaps = r.used.AppendGapsUpTo(r.gaps[:0], r.lowWater, r.size-r.lowWater, size)
	for _, g := range r.gaps {
		n := min(g.Len, size-taken)
		fragOwner := Owner{File: owner.File, FileOff: owner.FileOff + taken}
		seq := r.nextSeq()
		r.used.Insert(g.Off, n, unit{owner: fragOwner, dirty: dirty, seq: seq})
		if !dirty {
			r.policy.NoteClean(Cand{Seq: seq, Off: g.Off, Len: n}, fragOwner)
		}
		r.usedB += n
		if dirty {
			r.dirtyB += n
		}
		frags = append(frags, Fragment{CacheOff: g.Off, Len: n})
		taken += n
		r.lowWater = g.Off + n
	}
	return frags
}

func (r *region) pin(off, length int64) {
	end := off + length
	// Gaps first (coverage changes below), then bump existing counts.
	r.pinGaps = r.pins.AppendGaps(r.pinGaps[:0], off, length)
	r.pinOv = r.pins.AppendOverlaps(r.pinOv[:0], off, length)
	for _, e := range r.pinOv {
		lo, hi := clip(e.Off, e.End(), off, end)
		r.pins.Insert(lo, hi-lo, e.Val+1)
	}
	for _, g := range r.pinGaps {
		r.pins.Insert(g.Off, g.Len, 1)
	}
}

func (r *region) unpin(off, length int64) {
	end := off + length
	r.pinOv = r.pins.AppendOverlaps(r.pinOv[:0], off, length)
	for _, e := range r.pinOv {
		lo, hi := clip(e.Off, e.End(), off, end)
		if e.Val <= 1 {
			r.pins.Delete(lo, hi-lo)
		} else {
			r.pins.Insert(lo, hi-lo, e.Val-1)
		}
	}
}

func clip(lo, hi, qlo, qhi int64) (int64, int64) {
	if lo < qlo {
		lo = qlo
	}
	if hi > qhi {
		hi = qhi
	}
	return lo, hi
}
