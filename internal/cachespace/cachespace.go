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
// of the original-file range it caches, so evictions can be translated
// back into DMT deletions by the caller.
package cachespace

import (
	"errors"
	"fmt"

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

// Evicted reports a clean fragment reclaimed by an allocation.
type Evicted struct {
	Owner    Owner
	CacheOff int64
	Len      int64
}

type unit struct {
	owner Owner
	dirty bool
	seq   uint64 // LRU timestamp: larger = more recently used
}

// Manager tracks one cache file's space. Use New.
type Manager struct {
	capacity int64
	used     *extent.Map[unit]
	usedB    int64
	dirtyB   int64
	seq      uint64

	// lowWater is a first-fit hint: every byte below it is allocated, so
	// no free gap starts before it. FreeRange lowers it; takeFree raises
	// it to the end of the last fragment it takes and starts its gap walk
	// there, instead of rescanning the used map from offset 0.
	lowWater int64

	// policy owns the queue of reclaim candidates and the admission
	// gate. Candidates are lazily invalidated: every transition that
	// creates or refreshes clean space (allocate-clean, MarkClean, Touch
	// under a restamping policy) registers one carrying the unit's
	// then-current seq; reclaim pops candidates and validates them
	// against the live map (same seq, still clean), silently dropping
	// entries made stale by re-dirtying, touching, freeing or
	// overwriting. Evictions therefore cost O(log n) amortized instead
	// of re-walking and re-sorting every clean extent per reclaimed
	// fragment, and the policy never has to delete entries.
	policy Policy

	ov      []extent.Entry[unit] // scratch for overlap scans
	gaps    []extent.Gap         // scratch for free-gap scans
	skipped []Cand               // scratch for reclaim's set-aside candidates

	// pinned, when set, reports whether any byte of [off, off+length) is
	// held by an in-flight cache read; reclaim skips such candidates so an
	// eviction can never reuse space whose old bytes are still being read.
	// Sharded installs it on every region; with no pins held it never
	// skips, and reclaim's victim order is that of a bare manager.
	pinned func(off, length int64) bool

	// evict, when set, runs for every fragment reclaim is about to evict,
	// in victim order, before the fragment's bytes rejoin the free pool.
	// The core engine installs a hook that unmaps the fragment's DMT range
	// (and, in virtual time, charges the commit), making unmap-before-free
	// a manager invariant: the unmap lands (under this manager's lock)
	// before the space is reusable, so no DMT lookup can return a mapping
	// to bytes recycled to a new owner. Returning false vetoes the
	// eviction (the mapping could not be dropped); the fragment is set
	// aside like pinned space.
	evict func(owner Owner, cacheOff, length int64) bool

	evictions     uint64
	failures      uint64
	touches       uint64
	admitRejected uint64
}

// New returns a manager for a cache file of the given capacity in bytes,
// using the default clean-first LRU policy.
func New(capacity int64) (*Manager, error) {
	return NewWithPolicy(capacity, nil)
}

// NewWithPolicy returns a manager using the given eviction/admission
// policy. A nil policy means clean-first LRU.
func NewWithPolicy(capacity int64, p Policy) (*Manager, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cachespace: capacity must be positive, got %d", capacity)
	}
	if p == nil {
		p = NewCleanLRU()
	}
	return &Manager{
		capacity: capacity,
		policy:   p,
		used: extent.New[unit](func(u unit, delta int64) unit {
			return unit{owner: Owner{File: u.owner.File, FileOff: u.owner.FileOff + delta}, dirty: u.dirty, seq: u.seq}
		}),
	}, nil
}

// SetPolicy installs p as the eviction/admission policy (nil restores
// clean-first LRU) and re-registers every live clean fragment with it in
// cache-offset order, so the every-clean-byte-has-a-candidate invariant
// survives the swap. The cache contents are untouched; the swap is safe
// between any two operations.
func (m *Manager) SetPolicy(p Policy) {
	if p == nil {
		p = NewCleanLRU()
	}
	m.policy = p
	m.used.Walk(func(e extent.Entry[unit]) bool {
		if !e.Val.dirty {
			p.NoteClean(Cand{Seq: e.Val.seq, Off: e.Off, Len: e.Len}, e.Val.owner)
		}
		return true
	})
}

// PolicyName returns the active policy's registered name.
func (m *Manager) PolicyName() string { return m.policy.Name() }

// PolicyCounters returns the active policy's cumulative decision
// counters. They reset when the policy is swapped.
func (m *Manager) PolicyCounters() PolicyCounters { return m.policy.Counters() }

// Touches returns how many fragment-level cache-hit touches the manager
// has recorded.
func (m *Manager) Touches() uint64 { return m.touches }

// PolicyQueueLen returns the active policy's candidate queue length
// (live + stale entries); a diagnostic for queue-growth pathologies.
func (m *Manager) PolicyQueueLen() int { return m.policy.QueueLen() }

// AdmitRejected returns how many allocations the policy's admission gate
// has denied. Unlike PolicyCounters it survives policy swaps.
func (m *Manager) AdmitRejected() uint64 { return m.admitRejected }

// Capacity returns the total space.
func (m *Manager) Capacity() int64 { return m.capacity }

// FreeBytes returns unallocated space.
func (m *Manager) FreeBytes() int64 { return m.capacity - m.usedB }

// UsedBytes returns allocated space (clean + dirty).
func (m *Manager) UsedBytes() int64 { return m.usedB }

// DirtyBytes returns allocated space awaiting flush.
func (m *Manager) DirtyBytes() int64 { return m.dirtyB }

// CleanBytes returns allocated reclaimable space.
func (m *Manager) CleanBytes() int64 { return m.usedB - m.dirtyB }

// Evictions returns how many clean fragments have been reclaimed.
func (m *Manager) Evictions() uint64 { return m.evictions }

// Failures returns how many allocations returned ErrNoSpace.
func (m *Manager) Failures() uint64 { return m.failures }

// Allocate reserves size bytes for owner. The first fragment caches
// owner.FileOff, the second owner.FileOff + len(first), and so on. If the
// free space is insufficient, clean fragments are reclaimed in LRU order;
// the reclaimed ranges are returned so the caller can drop their DMT
// mappings. Returns ErrNoSpace if free + clean space is insufficient.
func (m *Manager) Allocate(size int64, owner Owner, dirty bool) ([]Fragment, []Evicted, error) {
	return m.AllocateInto(nil, nil, size, owner, dirty)
}

// AllocateInto is Allocate with caller-owned result buffers: fragments
// and evictions are appended to frags and evicted (pass them re-sliced to
// length zero to reuse their backing arrays), allowing steady-state
// allocation at 0 allocs/op. The returned slices alias the arguments.
func (m *Manager) AllocateInto(frags []Fragment, evicted []Evicted, size int64, owner Owner, dirty bool) ([]Fragment, []Evicted, error) {
	if size <= 0 {
		return frags, evicted, fmt.Errorf("cachespace: allocation size must be positive, got %d", size)
	}
	m.policy.NoteAccess(owner, size)
	if size > m.FreeBytes()+m.CleanBytes() {
		m.failures++
		return frags, evicted, fmt.Errorf("%w: need %d, free %d, clean %d", ErrNoSpace, size, m.FreeBytes(), m.CleanBytes())
	}
	var rejected bool
	if size > m.FreeBytes() {
		evicted, rejected = m.reclaim(evicted, size-m.FreeBytes(), owner)
	}
	if rejected {
		// The policy refused to evict for this allocation. Any evictions
		// already performed are returned — the caller must still drop
		// their DMT mappings.
		m.failures++
		m.admitRejected++
		return frags, evicted, ErrAdmissionRejected
	}
	if size > m.FreeBytes() {
		// Reclaim came up short: some clean space is pinned by in-flight
		// reads. The evictions already performed are returned with the
		// error — the caller must still drop their DMT mappings. With no
		// pins held reclaim always satisfies a feasible request, so this
		// branch is unreachable for a caller that never pins.
		m.failures++
		return frags, evicted, fmt.Errorf("%w: need %d, free %d after reclaim (pinned space held)", ErrNoSpace, size, m.FreeBytes())
	}
	frags = m.takeFree(frags, size, owner, dirty)
	return frags, evicted, nil
}

// SetPinned installs the in-flight-read pin predicate consulted by
// reclaim. Passing nil removes it.
func (m *Manager) SetPinned(fn func(off, length int64) bool) { m.pinned = fn }

// SetEvictHook installs the pre-free eviction callback (see the evict
// field). Passing nil removes it.
func (m *Manager) SetEvictHook(fn func(owner Owner, cacheOff, length int64) bool) { m.evict = fn }

// FreeRange releases [cacheOff, cacheOff+length) back to the free pool,
// regardless of state. Callers use it when a DMT mapping is dropped or
// overwritten.
func (m *Manager) FreeRange(cacheOff, length int64) {
	if length <= 0 {
		return
	}
	m.accountRemoval(cacheOff, length)
	m.used.Delete(cacheOff, length)
	m.lowWater = min(m.lowWater, cacheOff)
}

// MarkClean clears the dirty state of allocated fragments overlapping
// [cacheOff, cacheOff+length), making them reclaimable (flush completed).
func (m *Manager) MarkClean(cacheOff, length int64) {
	m.ov = m.used.AppendOverlaps(m.ov[:0], cacheOff, length)
	for _, e := range m.ov {
		if !e.Val.dirty {
			continue
		}
		lo, hi := clip(e.Off, e.End(), cacheOff, cacheOff+length)
		u := e.Val
		u.dirty = false
		u.seq = m.nextSeq()
		delta := lo - e.Off
		u.owner.FileOff += delta
		m.dirtyB -= hi - lo
		m.used.Insert(lo, hi-lo, unit{owner: u.owner, dirty: false, seq: u.seq})
		m.policy.NoteClean(Cand{Seq: u.seq, Off: lo, Len: hi - lo}, u.owner)
	}
}

// MarkDirty sets the dirty state of allocated fragments overlapping
// [cacheOff, cacheOff+length) (a cached range was re-written).
func (m *Manager) MarkDirty(cacheOff, length int64) {
	m.ov = m.used.AppendOverlaps(m.ov[:0], cacheOff, length)
	for _, e := range m.ov {
		if e.Val.dirty {
			continue
		}
		lo, hi := clip(e.Off, e.End(), cacheOff, cacheOff+length)
		u := e.Val
		delta := lo - e.Off
		u.owner.FileOff += delta
		m.dirtyB += hi - lo
		m.used.Insert(lo, hi-lo, unit{owner: u.owner, dirty: true, seq: m.nextSeq()})
	}
}

// Touch records a cache hit on fragments overlapping the range. Under a
// recency policy (Restamp) the fragments' seqs are refreshed and their
// clean ranges re-registered; under a FIFO-family policy the hit is pure
// counter accounting.
func (m *Manager) Touch(cacheOff, length int64) {
	m.ov = m.used.AppendOverlaps(m.ov[:0], cacheOff, length)
	restamp := m.policy.Restamp()
	for _, e := range m.ov {
		m.touches++
		m.policy.NoteTouch(e.Val.owner, e.Off, e.Len, e.Val.dirty)
		if !restamp {
			continue
		}
		u := e.Val
		u.seq = m.nextSeq()
		m.used.Insert(e.Off, e.Len, u)
		if !u.dirty {
			m.policy.NoteClean(Cand{Seq: u.seq, Off: e.Off, Len: e.Len}, u.owner)
		}
	}
}

// Walk visits every allocated fragment in cache-offset order.
func (m *Manager) Walk(fn func(cacheOff, length int64, owner Owner, dirty bool) bool) {
	m.used.Walk(func(e extent.Entry[unit]) bool {
		return fn(e.Off, e.Len, e.Val.owner, e.Val.dirty)
	})
}

func (m *Manager) nextSeq() uint64 {
	m.seq++
	return m.seq
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
// victim order, appending evictions to out. Callers have already
// verified feasibility. The second result reports that the policy's
// admission gate rejected the incoming allocation (reclaim stopped
// early; state is consistent, the unprocessed tail was requeued).
func (m *Manager) reclaim(out []Evicted, need int64, incoming Owner) ([]Evicted, bool) {
	var reclaimed int64
	skipped := m.skipped[:0]
	rejected := false
	keeps := 0
	restamp := m.policy.Restamp()
	for reclaimed < need {
		c, ok := m.policy.PopVictim()
		if !ok {
			break
		}
		if m.pinned != nil && m.pinned(c.Off, c.Len) {
			// An in-flight read holds (part of) this range. Set it aside —
			// requeued after the loop so one reclaim pass cannot spin on
			// it — and try the next-oldest candidate.
			skipped = append(skipped, c)
			continue
		}
		cEnd := c.Off + c.Len
		// Validate against the live map: only subranges that are still
		// clean and still carry the candidate's seq belong to this queue
		// entry; everything else was refreshed or overwritten since.
		m.ov = m.used.AppendOverlaps(m.ov[:0], c.Off, c.Len)
		start := len(out)
		for _, e := range m.ov {
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
				action = m.policy.Victim(incoming, owner, c, lo, hi-lo)
			}
			switch action {
			case VictimKeep:
				// The policy re-registered this fragment's coverage
				// itself (e.g. an S3-FIFO promotion); not a victim.
				keeps++
				continue
			case VictimReject:
				// Admission denied. Requeue the candidate's unprocessed
				// tail (lazy validation tolerates the stale head) and
				// stop reclaiming.
				skipped = append(skipped, Cand{Seq: c.Seq, Off: lo, Len: cEnd - lo, Queue: c.Queue})
				rejected = true
			}
			if rejected {
				break
			}
			if m.evict != nil && !m.evict(owner, lo, take) {
				// The hook could not unmap this fragment; it must not be
				// freed. Requeue it like pinned space and move on.
				skipped = append(skipped, Cand{Seq: c.Seq, Off: lo, Len: hi - lo, Queue: c.Queue})
				continue
			}
			out = append(out, Evicted{Owner: owner, CacheOff: lo, Len: take})
			m.policy.NoteEvicted(owner, take)
			reclaimed += take
			if reclaimed >= need {
				// Requeue the candidate's unreclaimed remainder so the
				// every-clean-byte-has-a-candidate invariant holds.
				if cut < 0 {
					cut = hi
				}
				if cut < cEnd {
					m.policy.Requeue(Cand{Seq: c.Seq, Off: cut, Len: cEnd - cut, Queue: c.Queue})
				}
				break
			}
		}
		// Free after the scan: FreeRange reuses the m.ov scratch.
		for _, ev := range out[start:] {
			m.FreeRange(ev.CacheOff, ev.Len)
			m.evictions++
		}
		if rejected {
			break
		}
	}
	for _, c := range skipped {
		m.policy.Requeue(c)
	}
	m.skipped = skipped[:0]
	return out, rejected
}

// takeFree allocates size bytes from the free gaps (first fit, scattered),
// appending to frags. The gap walk starts at the low-water offset and
// stops at the gap that completes the request, so it returns exactly the
// gaps a scan from offset 0 would use.
func (m *Manager) takeFree(frags []Fragment, size int64, owner Owner, dirty bool) []Fragment {
	var taken int64
	m.gaps = m.used.AppendGapsUpTo(m.gaps[:0], m.lowWater, m.capacity-m.lowWater, size)
	for _, g := range m.gaps {
		n := min(g.Len, size-taken)
		fragOwner := Owner{File: owner.File, FileOff: owner.FileOff + taken}
		seq := m.nextSeq()
		m.used.Insert(g.Off, n, unit{owner: fragOwner, dirty: dirty, seq: seq})
		if !dirty {
			m.policy.NoteClean(Cand{Seq: seq, Off: g.Off, Len: n}, fragOwner)
		}
		m.usedB += n
		if dirty {
			m.dirtyB += n
		}
		frags = append(frags, Fragment{CacheOff: g.Off, Len: n})
		taken += n
		m.lowWater = g.Off + n
	}
	return frags
}

func (m *Manager) accountRemoval(cacheOff, length int64) {
	m.ov = m.used.AppendOverlaps(m.ov[:0], cacheOff, length)
	for _, e := range m.ov {
		lo, hi := clip(e.Off, e.End(), cacheOff, cacheOff+length)
		m.usedB -= hi - lo
		if e.Val.dirty {
			m.dirtyB -= hi - lo
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
