package core

import (
	"math"
	"sync/atomic"
	"time"

	"s4dcache/internal/cachespace"
)

// This file implements the online workload characterizer behind the
// adaptive cache-policy engine (DESIGN.md §13.4). Every identify feeds
// one windowed profile — read/write mix, random-vs-sequential ratio,
// benefit mass and a linear-counting working-set estimate — and every
// AdaptivePeriod the engine snapshots the window, picks the cache
// policy best matched to it, and retunes the criticality threshold and
// CDT bound. All Note state is atomic so the concurrent engine's shards
// can feed it without a shared mutex, and Note performs no heap
// allocation (pinned by the core alloc-check tests).

const (
	// chzWords sizes the working-set bitmap: 512 words = 32 Ki bits.
	// Linear counting stays within a few percent up to ~32 Ki distinct
	// blocks — 2 GiB of working set at the 64 KiB block granularity,
	// far beyond any cache the benches drive.
	chzWords = 512
	chzBits  = chzWords * 64
	// chzBlockShift is the working-set granularity: one bit per 64 KiB
	// block touched.
	chzBlockShift = 16
	// chzMaxBlocks caps the per-request bitmap walk so a pathological
	// huge request cannot turn Note into a long loop; requests beyond
	// the cap are sampled at a coarser stride.
	chzMaxBlocks = 64
	// chzClearFrac sets the working-set horizon: each SnapshotReset
	// clears 1/chzClearFrac of the bitmap words (rotating), so a bit
	// survives ~chzClearFrac windows. One adaptation window sees only a
	// few dozen requests — far too few to reveal whether the working
	// set overflows the cache — while the flow stats (read/write mix,
	// randomness) genuinely are per-window signals. The split horizon
	// keeps both honest: sharp flow features, sliding working set.
	chzClearFrac = 8
)

// Characterizer accumulates one adaptation window of workload features.
// All methods are safe for concurrent use.
type Characterizer struct {
	reads, writes     atomic.Uint64
	seqReqs, randReqs atomic.Uint64
	bytes             atomic.Int64
	// benefitNanos sums the positive modeled benefits of the window;
	// critical counts them. Their ratio is the window's mean critical
	// benefit — the self-tuning unit of the threshold adaptation.
	benefitNanos atomic.Int64
	critical     atomic.Uint64
	// touches counts block touches; repeats counts those that found
	// the block's bit already set. Their ratio separates re-reference
	// streams (hot sets, high) from one-touch scans (near zero) — a
	// signal the working-set size alone cannot give when the request
	// rate is low.
	touches, repeats atomic.Uint64
	// bits is the linear-counting working-set bitmap: one bit per
	// (file, 64 KiB block) pair, hashed. Cleared 1/chzClearFrac per
	// snapshot (rotating), not wholesale — see chzClearFrac.
	bits [chzWords]atomic.Uint64
	// clearCursor is the next bitmap segment the rotating clear will
	// zero. Only touched from SnapshotReset, which the engines call
	// from the serialized adaptation tick.
	clearCursor int
}

// NewCharacterizer returns an empty characterizer.
func NewCharacterizer() *Characterizer { return &Characterizer{} }

// Note records one identified request. dist is the stream distance as
// returned by costmodel.Tracker.Observe (0 = sequential); benefit is
// the modeled redirection benefit (only positive values accumulate).
// Allocation-free and lock-free.
func (c *Characterizer) Note(write bool, dist int64, file string, off, size int64, benefit time.Duration) {
	if write {
		c.writes.Add(1)
	} else {
		c.reads.Add(1)
	}
	if dist == 0 {
		c.seqReqs.Add(1)
	} else {
		c.randReqs.Add(1)
	}
	c.bytes.Add(size)
	if benefit > 0 {
		c.benefitNanos.Add(int64(benefit))
		c.critical.Add(1)
	}
	if size <= 0 {
		return
	}
	// Hash the file once (FNV-1a), then mix each touched block in.
	h := uint64(14695981039346656037)
	for i := 0; i < len(file); i++ {
		h ^= uint64(file[i])
		h *= 1099511628211
	}
	first := off >> chzBlockShift
	last := (off + size - 1) >> chzBlockShift
	stride := int64(1)
	if n := last - first + 1; n > chzMaxBlocks {
		stride = (n + chzMaxBlocks - 1) / chzMaxBlocks
	}
	for b := first; b <= last; b += stride {
		c.touches.Add(1)
		if c.setBit(mix64(h ^ uint64(b)*0x9e3779b97f4a7c15)) {
			c.repeats.Add(1)
		}
	}
}

// setBit sets one bitmap bit via CAS (the module targets Go 1.22, which
// has no atomic Or) and reports whether it was already set.
func (c *Characterizer) setBit(hb uint64) bool {
	idx := hb & (chzBits - 1)
	word := &c.bits[idx>>6]
	bit := uint64(1) << (idx & 63)
	for {
		old := word.Load()
		if old&bit != 0 {
			return true
		}
		if word.CompareAndSwap(old, old|bit) {
			return false
		}
	}
}

// mix64 is a splitmix64-style finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Profile is one adaptation window's workload summary.
type Profile struct {
	Reads, Writes     uint64
	SeqReqs, RandReqs uint64
	Bytes             int64
	// WorkingSetBytes is the linear-counting estimate of the distinct
	// bytes touched over the sliding working-set horizon (block
	// granularity, ~chzClearFrac windows).
	WorkingSetBytes int64
	// Touches counts block touches this window; Repeats counts those
	// that hit a block already seen within the horizon.
	Touches, Repeats uint64
	// MeanBenefit is the average positive modeled benefit of the
	// window's critical requests (0 if none).
	MeanBenefit time.Duration
}

// Total returns the window's request count.
func (p Profile) Total() uint64 { return p.Reads + p.Writes }

// WriteFrac returns the write fraction of the window (0 when empty).
func (p Profile) WriteFrac() float64 {
	if t := p.Total(); t > 0 {
		return float64(p.Writes) / float64(t)
	}
	return 0
}

// RandFrac returns the non-sequential fraction of the window.
func (p Profile) RandFrac() float64 {
	if t := p.SeqReqs + p.RandReqs; t > 0 {
		return float64(p.RandReqs) / float64(t)
	}
	return 0
}

// RepeatFrac returns the fraction of block touches that re-touched a
// block already seen within the working-set horizon. Near zero marks a
// one-touch scan; a hot re-reference stream sits well above it.
func (p Profile) RepeatFrac() float64 {
	if p.Touches > 0 {
		return float64(p.Repeats) / float64(p.Touches)
	}
	return 0
}

// SnapshotReset returns the window accumulated since the previous call
// and clears the characterizer for the next one. Concurrent Notes that
// race the snapshot land in one window or the other; the profile is a
// sampling aid, not an exact ledger.
func (c *Characterizer) SnapshotReset() Profile {
	p := Profile{
		Reads:    c.reads.Swap(0),
		Writes:   c.writes.Swap(0),
		SeqReqs:  c.seqReqs.Swap(0),
		RandReqs: c.randReqs.Swap(0),
		Bytes:    c.bytes.Swap(0),
	}
	p.Touches = c.touches.Swap(0)
	p.Repeats = c.repeats.Swap(0)
	crit := c.critical.Swap(0)
	ben := c.benefitNanos.Swap(0)
	if crit > 0 {
		p.MeanBenefit = time.Duration(ben / int64(crit))
	}
	var set int
	for i := range c.bits {
		set += popcount(c.bits[i].Load())
	}
	// Rotating clear: age out one segment per window so the estimate
	// slides over ~chzClearFrac windows instead of collapsing to the
	// handful of requests a single window holds.
	seg := chzWords / chzClearFrac
	lo := c.clearCursor * seg
	for i := lo; i < lo+seg; i++ {
		c.bits[i].Store(0)
	}
	c.clearCursor = (c.clearCursor + 1) % chzClearFrac
	if set > 0 {
		// Linear counting: est = -m ln(z/m) with m bits, z zero bits.
		zero := float64(chzBits - set)
		if zero < 1 {
			zero = 1 // saturated bitmap: report the asymptote, not +Inf
		}
		blocks := -float64(chzBits) * math.Log(zero/float64(chzBits))
		p.WorkingSetBytes = int64(blocks) << chzBlockShift
	}
	return p
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// ChoosePolicy maps a window profile to the cache policy best suited to
// it (DESIGN.md §13.4). current is the active policy's name; it anchors
// the hysteresis dead band. Returns "" for an empty window (keep
// whatever is active).
//
//   - Write-heavy windows keep clean-LRU: admission gates would bounce
//     dirty absorptions back to the DServers, and recency matches the
//     re-dirty pattern of checkpoint-style writes.
//   - Sequential windows keep clean-LRU: the cost model already filters
//     sequential traffic, and FIFO ghosts or sketches add nothing.
//   - One-touch random windows (repeat fraction near zero) are scans no
//     matter how slow they arrive — the working-set estimate of a slow
//     scan can look small while it still flushes the cache. TinyLFU's
//     admission gate is the only policy that keeps such traffic out.
//   - Random windows whose working set overflows the cache also want
//     TinyLFU: the frequency sketch keeps the resident hot set in place
//     while the tail is rejected at admission. The overflow bar drops
//     from 1.5× to 1.0× capacity while TinyLFU is already active — a
//     dead band, so an estimate hovering at the bar cannot flap the
//     policy every window.
//   - Other random windows want S3-FIFO: the small probationary queue
//     evicts one-hit wonders quickly and the ghost table readmits the
//     re-referenced tail.
func ChoosePolicy(p Profile, cacheCapacity int64, current string) string {
	if p.Total() == 0 {
		return ""
	}
	if p.WriteFrac() >= 0.5 {
		return cachespace.PolicyCleanLRU
	}
	if p.RandFrac() < 0.25 {
		return cachespace.PolicyCleanLRU
	}
	if p.RepeatFrac() < 0.2 {
		return cachespace.PolicyTinyLFU
	}
	wsBar := cacheCapacity + cacheCapacity/2
	if current == cachespace.PolicyTinyLFU {
		wsBar = cacheCapacity
	}
	if p.WorkingSetBytes > wsBar {
		return cachespace.PolicyTinyLFU
	}
	return cachespace.PolicyS3FIFO
}

// thrashing reports whether the window is a cache-defeating scan: an
// almost fully random read window whose working set dwarfs the cache.
// During such windows the adaptive engine raises the criticality
// threshold to the window's mean benefit (so only clearly
// above-typical requests keep entering the CDT) and caps the CDT at
// the cache capacity, bounding pollution from data that could never
// become resident anyway.
func thrashing(p Profile, cacheCapacity int64) bool {
	return p.RandFrac() >= 0.9 &&
		p.WriteFrac() < 0.25 &&
		p.WorkingSetBytes > 3*cacheCapacity
}
