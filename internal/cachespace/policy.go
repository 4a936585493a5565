package cachespace

import "fmt"

// Registered policy names, accepted by NewSharded, Sharded.SetPolicy and
// the CachePolicy configuration knobs up the stack.
const (
	// PolicyCleanLRU is the paper's policy: reclaim clean space in LRU
	// order, admit everything the cost model marked critical.
	PolicyCleanLRU = "clean-lru"
	// PolicyS3FIFO reclaims via small/main FIFO queues with a ghost table
	// of recent evictions: one-hit wonders drain out of the small queue
	// quickly, re-referenced ranges are promoted to the main queue, and
	// quick re-admissions after eviction go straight to main.
	PolicyS3FIFO = "s3fifo"
	// PolicyTinyLFU keeps the clean-LRU victim order but gates admission
	// with a 4-bit count-min frequency sketch: an allocation that would
	// evict a more frequently used victim is rejected.
	PolicyTinyLFU = "tinylfu"
)

// PolicyNames lists the registered policy names in canonical order.
func PolicyNames() []string { return []string{PolicyCleanLRU, PolicyS3FIFO, PolicyTinyLFU} }

// newPolicy returns a fresh policy instance by name, sized for a cache of
// the given capacity in bytes. The empty name means PolicyCleanLRU.
func newPolicy(name string, capacity int64) (Policy, error) {
	switch name {
	case "", PolicyCleanLRU:
		return newCleanLRU(), nil
	case PolicyS3FIFO:
		return newS3FIFO(capacity), nil
	case PolicyTinyLFU:
		return newTinyLFU(capacity), nil
	}
	return nil, fmt.Errorf("cachespace: unknown policy %q (have %v)", name, PolicyNames())
}

// Cand is one reclaim candidate: at registration time, [Off, Off+Len) was
// clean space whose fragments carried Seq. Candidates are lazily
// invalidated — the region revalidates them against the live extent map
// at eviction time, so a policy never needs to delete stale entries.
type Cand struct {
	Seq      uint64
	Off, Len int64
	// Queue is policy-private placement state (S3-FIFO's small vs main);
	// the region preserves it across Requeue.
	Queue uint8
}

// VictimAction is a policy's verdict on one validated eviction victim.
type VictimAction uint8

const (
	// VictimEvict approves reclaiming the fragment.
	VictimEvict VictimAction = iota
	// VictimKeep retains the fragment; the policy has re-registered its
	// coverage internally (e.g. an S3-FIFO small→main promotion) and the
	// region moves on to the next victim.
	VictimKeep
	// VictimReject denies the incoming allocation itself: reclaim stops
	// and the allocation fails with ErrAdmissionRejected. TinyLFU returns
	// it when the victim is more frequently used than the newcomer.
	VictimReject
)

// PolicyCounters are cumulative per-policy decision counters, exposed so
// policy comparisons don't require a profiler.
type PolicyCounters struct {
	// AdmitRejected counts allocations denied by the admission gate.
	AdmitRejected uint64
	// GhostHits counts S3-FIFO re-admissions of recently evicted ranges
	// (they enter the main queue directly).
	GhostHits uint64
	// Promotions counts S3-FIFO small→main moves of re-referenced space.
	Promotions uint64
	// Reinserts counts S3-FIFO main-queue second chances.
	Reinserts uint64
	// SketchHalvings counts TinyLFU aging events.
	SketchHalvings uint64
}

// Add returns the element-wise sum of two counter sets.
func (a PolicyCounters) Add(b PolicyCounters) PolicyCounters {
	a.AdmitRejected += b.AdmitRejected
	a.GhostHits += b.GhostHits
	a.Promotions += b.Promotions
	a.Reinserts += b.Reinserts
	a.SketchHalvings += b.SketchHalvings
	return a
}

// Policy decides which clean space a Sharded region reclaims and whether
// an allocation that needs eviction is admitted at all. Implementations
// are single-threaded: each region owns one instance and calls it under
// the region's lock. All methods must be allocation-free in steady state —
// they sit on the serve path.
//
// The region keeps the bookkeeping contract of the original clean queue:
// every transition that creates or refreshes clean space reports it via
// NoteClean, so "every clean byte has a live candidate" remains an
// invariant for any policy, and reclaim feasibility (free+clean ≥ size)
// stays decidable upfront.
type Policy interface {
	// Name returns the registered policy name.
	Name() string
	// Restamp reports whether Touch should refresh fragment seqs (and
	// re-register the refreshed clean ranges via NoteClean). Recency
	// policies return true; FIFO-family policies return false, leaving
	// queued candidates valid and making a hot-range touch pure counter
	// work.
	Restamp() bool
	// NoteAccess records an admission attempt for the incoming range
	// (called once per Allocate, before any reclaim).
	NoteAccess(owner Owner, length int64)
	// NoteTouch records a cache hit on a live fragment.
	NoteTouch(owner Owner, off, length int64, dirty bool)
	// NoteClean registers fresh clean coverage: the entire [c.Off,
	// c.Off+c.Len) was just (re)stamped with c.Seq, so any queued
	// candidate with the exact same range is fully superseded.
	NoteClean(c Cand, owner Owner)
	// Requeue puts back a candidate the region could not consume
	// (pinned, vetoed, or a partially reclaimed remainder). Unlike
	// NoteClean the range may only partially carry c.Seq, so it must not
	// displace other queued candidates.
	Requeue(c Cand)
	// PopVictim removes and returns the next eviction candidate.
	PopVictim() (Cand, bool)
	// Victim judges one validated victim fragment [off, off+length) of
	// candidate c, owned by victim, about to be reclaimed for incoming.
	Victim(incoming, victim Owner, c Cand, off, length int64) VictimAction
	// NoteEvicted records that a fragment of victim was reclaimed.
	NoteEvicted(victim Owner, length int64)
	// QueueLen returns the number of queued candidates (live + stale),
	// exposed for tests.
	QueueLen() int
	// Counters returns the cumulative decision counters.
	Counters() PolicyCounters
}

// candKey identifies a fresh candidate by its exact range.
type candKey struct{ off, len int64 }

// heapCand is a queued candidate; indexed entries are tracked in the
// exact-range index and updated in place by fresh pushes.
type heapCand struct {
	Cand
	indexed bool
}

// lruHeap is a binary min-heap of candidates ordered by (Seq, Off) — LRU
// first, ties (fragments split from one unit) in offset order — with an
// exact-range index so a fresh push of an already-queued range updates
// the entry in place instead of duplicating it. That keeps hot-range
// touches from growing the heap: one entry per live range, O(log n) per
// touch, instead of one stale duplicate per hit.
type lruHeap struct {
	cs  []heapCand
	idx map[candKey]int32
}

func (h *lruHeap) less(a, b *heapCand) bool {
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	return a.Off < b.Off
}

func (h *lruHeap) setpos(i int) {
	if h.cs[i].indexed {
		h.idx[candKey{h.cs[i].Off, h.cs[i].Len}] = int32(i)
	}
}

func (h *lruHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(&h.cs[i], &h.cs[p]) {
			break
		}
		h.cs[i], h.cs[p] = h.cs[p], h.cs[i]
		h.setpos(i)
		i = p
	}
	h.setpos(i)
}

func (h *lruHeap) down(i int) {
	n := len(h.cs)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.less(&h.cs[c+1], &h.cs[c]) {
			c++
		}
		if !h.less(&h.cs[c], &h.cs[i]) {
			break
		}
		h.cs[i], h.cs[c] = h.cs[c], h.cs[i]
		h.setpos(i)
		i = c
	}
	h.setpos(i)
}

// pushFresh registers a candidate whose entire range was just restamped
// to c.Seq. Any queued candidate with the exact same range is fully
// superseded and updated in place; since seqs only grow, the entry can
// only lose priority, so a single sift-down restores heap order.
func (h *lruHeap) pushFresh(c Cand) {
	if h.idx == nil {
		h.idx = make(map[candKey]int32)
	}
	key := candKey{c.Off, c.Len}
	if i, ok := h.idx[key]; ok {
		h.cs[i].Cand = c
		h.down(int(i))
		return
	}
	h.cs = append(h.cs, heapCand{Cand: c, indexed: true})
	h.idx[key] = int32(len(h.cs) - 1)
	h.up(len(h.cs) - 1)
}

// push appends a requeued candidate. Its range may only partially carry
// c.Seq, so it enters unindexed: deduplicating it against a live
// different-seq candidate could drop coverage.
func (h *lruHeap) push(c Cand) {
	h.cs = append(h.cs, heapCand{Cand: c})
	h.up(len(h.cs) - 1)
}

func (h *lruHeap) pop() (Cand, bool) {
	if len(h.cs) == 0 {
		return Cand{}, false
	}
	top := h.cs[0]
	if top.indexed {
		delete(h.idx, candKey{top.Off, top.Len})
	}
	n := len(h.cs) - 1
	h.cs[0] = h.cs[n]
	h.cs = h.cs[:n]
	if n > 0 {
		h.down(0)
	}
	return top.Cand, true
}

// heapPolicy is the paper's clean-first LRU, extracted from the space's
// original clean queue. It evicts unconditionally in (seq, off) order and
// admits everything.
type heapPolicy struct {
	h lruHeap
}

// newCleanLRU returns the default clean-first LRU policy.
func newCleanLRU() Policy { return &heapPolicy{} }

func (p *heapPolicy) Name() string                        { return PolicyCleanLRU }
func (p *heapPolicy) Restamp() bool                       { return true }
func (p *heapPolicy) NoteAccess(Owner, int64)             {}
func (p *heapPolicy) NoteTouch(Owner, int64, int64, bool) {}
func (p *heapPolicy) NoteClean(c Cand, _ Owner)           { p.h.pushFresh(c) }
func (p *heapPolicy) Requeue(c Cand)                      { p.h.push(c) }
func (p *heapPolicy) PopVictim() (Cand, bool)             { return p.h.pop() }
func (p *heapPolicy) NoteEvicted(Owner, int64)            {}
func (p *heapPolicy) QueueLen() int                       { return len(p.h.cs) }
func (p *heapPolicy) Counters() PolicyCounters            { return PolicyCounters{} }
func (p *heapPolicy) Victim(_, _ Owner, _ Cand, _, _ int64) VictimAction {
	return VictimEvict
}

// ownerHash is the policy-table key of a cached range: FNV-1a over the
// original file name mixed with the exact file offset. Fragments split
// from one allocation hash separately (they have distinct FileOffs),
// which is what extent-level frequency tracking wants.
func ownerHash(o Owner) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(o.File); i++ {
		h ^= uint64(o.File[i])
		h *= 1099511628211
	}
	h ^= uint64(o.FileOff)
	h *= 1099511628211
	// Avalanche finalizer (splitmix64-style). FNV's multiply only
	// propagates entropy upward, so after folding in a block-aligned
	// FileOff the low bits of h are nearly constant — and every
	// direct-mapped table index (h & mask) would collapse onto a
	// handful of slots. The xor-shift rounds fold the high bits back
	// down so the masked index is uniform.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// nextPow2 rounds v up to a power of two, clamped to [lo, hi] (both
// powers of two).
func nextPow2(v, lo, hi int64) int64 {
	n := lo
	for n < v && n < hi {
		n <<= 1
	}
	return n
}
