package cachespace

// S3-FIFO (Yang et al., SOSP'23), adapted to extent granularity: clean
// space enters a small probationary FIFO (~10% of capacity by bytes).
// When the small queue is over target, its head is the next victim; a
// victim that was re-referenced while probationary is promoted to the
// main FIFO instead of evicted, and a victim that was not is evicted and
// remembered in a ghost table, so a quick re-admission skips probation
// and enters main directly. Main-queue victims get second chances while
// their access count is positive (decrementing each lap), which
// approximates LRU/CLOCK without per-hit reordering: a cache hit is two
// array writes, never a queue operation.
//
// Frequency and ghost state are fixed-size direct-mapped tables keyed by
// ownerHash — no allocation, no eviction bookkeeping, rare collisions
// only blur the hint counters.

// Queue tags carried in Cand.Queue.
const (
	queueSmall uint8 = iota
	queueMain
)

// s3fifoFreqCap caps the per-range access counter (the paper uses 2 bits;
// 3 keeps one extra lap of main-queue patience).
const s3fifoFreqCap = 3

// s3fifoMinFrag is the smallest fragment worth a second chance. Partial
// evictions split extents; once a fragment is below block granularity,
// promoting or reinserting it scatters evictions across the space and
// shatters both the allocation map and the free list (allocations start
// taking dozens of tiny gaps, each gap a future candidate — a
// fragmentation spiral that inflates the candidate queue without
// bound). Sub-block fragments are therefore always evictable, which
// lets the free space around them re-coalesce.
const s3fifoMinFrag = 4 << 10

type s3fifoPolicy struct {
	small, main           candRing
	smallBytes, mainBytes int64
	// smallTarget is the probationary queue's byte budget (~10% of
	// capacity); beyond it the small head is preferred as victim.
	smallTarget int64
	// mainTarget is the main queue's byte budget (the rest of the
	// capacity). Without it a miss-heavy stream keeps the small queue
	// permanently over target and main is never lapped: 90% of the
	// cache freezes at whatever was promoted first while all churn is
	// confined to the probationary 10%. Over budget (stale queue
	// entries also count — lapping drains them), main victims are
	// preferred.
	mainTarget int64

	freq      []uint8
	freqMask  uint64
	ghost     []uint64
	ghostMask uint64

	ctr PolicyCounters
}

// newS3FIFO returns an S3-FIFO policy sized for a cache of the given
// capacity in bytes.
func newS3FIFO(capacity int64) Policy {
	// One frequency slot per 4 KB of capacity, clamped so tiny or huge
	// caches stay reasonable.
	slots := nextPow2(capacity>>12, 1<<10, 1<<20)
	// The ghost table must remember an eviction until the range comes
	// back — under heavy churn that is many cache generations of
	// evictions, and a direct-mapped entry is useless if it is
	// clobbered first. 16× the frequency slots (8 B each) keeps the
	// clobber interval well past the re-reference distance the ghost
	// exists to catch.
	gslots := nextPow2(int64(slots)*16, 1<<14, 1<<24)
	return &s3fifoPolicy{
		smallTarget: capacity / 10,
		mainTarget:  capacity - capacity/10,
		freq:        make([]uint8, slots),
		freqMask:    uint64(slots - 1),
		ghost:       make([]uint64, gslots),
		ghostMask:   uint64(gslots - 1),
	}
}

func (p *s3fifoPolicy) Name() string  { return PolicyS3FIFO }
func (p *s3fifoPolicy) Restamp() bool { return false }

func (p *s3fifoPolicy) NoteAccess(Owner, int64) {
	// New space starts at frequency zero: a first admission is always
	// probationary (the hallmark of S3-FIFO's quick demotion).
}

func (p *s3fifoPolicy) NoteTouch(o Owner, _, _ int64, _ bool) {
	i := ownerHash(o) & p.freqMask
	if p.freq[i] < s3fifoFreqCap {
		p.freq[i]++
	}
}

func (p *s3fifoPolicy) NoteClean(c Cand, o Owner) {
	h := ownerHash(o)
	if p.ghost[h&p.ghostMask] == h {
		// Recently evicted and already back: skip probation.
		p.ghost[h&p.ghostMask] = 0
		p.ctr.GhostHits++
		c.Queue = queueMain
		p.main.push(c)
		p.mainBytes += c.Len
		return
	}
	c.Queue = queueSmall
	p.small.push(c)
	p.smallBytes += c.Len
}

func (p *s3fifoPolicy) Requeue(c Cand) {
	if c.Queue == queueMain {
		p.main.push(c)
		p.mainBytes += c.Len
		return
	}
	p.small.push(c)
	p.smallBytes += c.Len
}

func (p *s3fifoPolicy) PopVictim() (Cand, bool) {
	preferSmall := p.smallBytes >= p.smallTarget || p.main.n == 0
	if p.mainBytes > p.mainTarget && p.main.n > 0 {
		preferSmall = false
	}
	if preferSmall && p.small.n > 0 {
		c, _ := p.small.pop()
		p.smallBytes -= c.Len
		return c, true
	}
	if c, ok := p.main.pop(); ok {
		p.mainBytes -= c.Len
		return c, true
	}
	if c, ok := p.small.pop(); ok {
		p.smallBytes -= c.Len
		return c, true
	}
	return Cand{}, false
}

func (p *s3fifoPolicy) Victim(_, victim Owner, c Cand, off, length int64) VictimAction {
	if length < s3fifoMinFrag {
		return VictimEvict
	}
	i := ownerHash(victim) & p.freqMask
	if c.Queue == queueSmall {
		if p.freq[i] > 0 {
			// Survived probation: promote this fragment to main. The
			// counter is kept — it becomes the fragment's main-queue
			// lap budget.
			p.ctr.Promotions++
			p.main.push(Cand{Seq: c.Seq, Off: off, Len: length, Queue: queueMain})
			p.mainBytes += length
			return VictimKeep
		}
		return VictimEvict
	}
	if p.freq[i] > 0 {
		// Main-queue second chance; the decrement bounds laps, so a
		// reclaim pass always terminates.
		p.freq[i]--
		p.ctr.Reinserts++
		p.main.push(Cand{Seq: c.Seq, Off: off, Len: length, Queue: queueMain})
		p.mainBytes += length
		return VictimKeep
	}
	return VictimEvict
}

func (p *s3fifoPolicy) NoteEvicted(victim Owner, _ int64) {
	h := ownerHash(victim)
	p.ghost[h&p.ghostMask] = h
	p.freq[h&p.freqMask] = 0
}

func (p *s3fifoPolicy) QueueLen() int            { return p.small.n + p.main.n }
func (p *s3fifoPolicy) Counters() PolicyCounters { return p.ctr }

// candRing is a growable FIFO ring of candidates.
type candRing struct {
	buf        []Cand
	head, tail int
	n          int
}

func (r *candRing) push(c Cand) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[r.tail] = c
	r.tail++
	if r.tail == len(r.buf) {
		r.tail = 0
	}
	r.n++
}

func (r *candRing) pop() (Cand, bool) {
	if r.n == 0 {
		return Cand{}, false
	}
	c := r.buf[r.head]
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return c, true
}

func (r *candRing) grow() {
	nb := make([]Cand, max(len(r.buf)*2, 16))
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf, r.head, r.tail = nb, 0, r.n
}
