package cachespace

// TinyLFU (Einziger et al., ACM TOS'17), adapted to extent granularity:
// victim order stays clean-first LRU (the same indexed heap as the
// default policy), but admission is gated by an approximate frequency
// comparison. Every admission attempt and every cache hit increments a
// 4-bit count-min sketch; when an allocation must evict, the incoming
// range's estimate is compared against the victim's — if the victim is
// used at least as often, the allocation itself is rejected
// (ErrAdmissionRejected) and the request falls through to the DServers.
// Periodic halving of all counters (the "reset" aging scheme) keeps the
// sketch tracking the recent window rather than all history.

type tinylfuPolicy struct {
	h      lruHeap
	sketch cmSketch
	ctr    PolicyCounters
}

// newTinyLFU returns a TinyLFU admission policy sized for a cache of the
// given capacity in bytes.
func newTinyLFU(capacity int64) Policy {
	p := &tinylfuPolicy{}
	// One counter column per 4 KB of capacity, like the S3-FIFO tables.
	p.sketch.init(nextPow2(capacity>>12, 1<<10, 1<<20))
	return p
}

func (p *tinylfuPolicy) Name() string  { return PolicyTinyLFU }
func (p *tinylfuPolicy) Restamp() bool { return true }

func (p *tinylfuPolicy) NoteAccess(o Owner, _ int64) {
	if p.sketch.inc(ownerHash(o)) {
		p.ctr.SketchHalvings++
	}
}

func (p *tinylfuPolicy) NoteTouch(o Owner, _, _ int64, _ bool) {
	if p.sketch.inc(ownerHash(o)) {
		p.ctr.SketchHalvings++
	}
}

func (p *tinylfuPolicy) NoteClean(c Cand, _ Owner) { p.h.pushFresh(c) }
func (p *tinylfuPolicy) Requeue(c Cand)            { p.h.push(c) }
func (p *tinylfuPolicy) PopVictim() (Cand, bool)   { return p.h.pop() }

func (p *tinylfuPolicy) Victim(incoming, victim Owner, _ Cand, _, _ int64) VictimAction {
	if p.sketch.estimate(ownerHash(incoming)) > p.sketch.estimate(ownerHash(victim)) {
		return VictimEvict
	}
	p.ctr.AdmitRejected++
	return VictimReject
}

func (p *tinylfuPolicy) NoteEvicted(Owner, int64) {}
func (p *tinylfuPolicy) QueueLen() int            { return len(p.h.cs) }
func (p *tinylfuPolicy) Counters() PolicyCounters { return p.ctr }

// cmSketch is a 4-bit count-min sketch: four rows of width counters, 16
// counters packed per uint64 word, with halving after sampleSize
// increments so estimates decay toward the recent window.
type cmSketch struct {
	words    []uint64
	rowWords int
	mask     uint64 // width - 1
	adds     uint64
	// sampleSize is the aging period (10× width increments, the
	// caffeine/TinyLFU default).
	sampleSize uint64
}

var sketchSeeds = [4]uint64{
	0x9e3779b97f4a7c15,
	0xc2b2ae3d27d4eb4f,
	0x165667b19e3779f9,
	0xd6e8feb86659fd93,
}

func (s *cmSketch) init(width int64) {
	s.rowWords = int(width / 16)
	s.words = make([]uint64, 4*s.rowWords)
	s.mask = uint64(width - 1)
	s.sampleSize = uint64(10 * width)
}

// pos returns the word index and in-word bit shift of key h's counter in
// the given row.
func (s *cmSketch) pos(h uint64, row int) (int, uint) {
	hh := (h ^ sketchSeeds[row]) * 0x9e3779b97f4a7c15
	i := (hh >> 17) & s.mask
	return row*s.rowWords + int(i>>4), uint(i&15) * 4
}

// inc increments the key's counters (saturating at 15) and reports
// whether this increment triggered a halving pass.
func (s *cmSketch) inc(h uint64) bool {
	for r := 0; r < 4; r++ {
		w, sh := s.pos(h, r)
		if (s.words[w]>>sh)&0xf < 15 {
			s.words[w] += 1 << sh
		}
	}
	s.adds++
	if s.adds >= s.sampleSize {
		s.halve()
		return true
	}
	return false
}

// estimate returns the minimum of the key's four counters.
func (s *cmSketch) estimate(h uint64) uint64 {
	min := uint64(15)
	for r := 0; r < 4; r++ {
		w, sh := s.pos(h, r)
		if v := (s.words[w] >> sh) & 0xf; v < min {
			min = v
		}
	}
	return min
}

// halve ages every counter by one bit.
func (s *cmSketch) halve() {
	for i := range s.words {
		s.words[i] = (s.words[i] >> 1) & 0x7777777777777777
	}
	s.adds /= 2
}
