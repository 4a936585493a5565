// Packed extent storage: a slab of struct-of-arrays chunks holding many
// small interval maps without per-map Go objects.
//
// The classic Map stores []Entry[V] per file — 32 bytes per extent for
// the DMT's 17-byte payload after padding, plus a heap object and map
// entry per file. At the million-file scale of ROADMAP item 4 that
// overhead dominates. The Slab packs extents of all files into shared
// chunks of three parallel arrays (off int64, len uint32, val uint64 —
// 20 bytes per extent, no padding), and each file holds only a 16-byte
// Seg handle addressing its contiguous, sorted run. Segments grow by
// power-of-two reallocation within the slab; freed segments go on
// per-size free lists, and a chunk whose live segments all drain is
// released back to the garbage collector (the spill path relies on this
// to actually return memory).
//
// The Slab implements the same interval-map semantics as Map — insert
// overwrites overlapped parts, splitting boundary extents with a
// caller-provided SplitFunc64 — for the packed uint64 payload the DMT
// encodes its Mapping into. Single extents are capped at maxExtentLen
// bytes (the uint32 length limit); longer inserts split into adjacent
// pieces with the payload advanced, which preserves lookup semantics
// exactly.
package extent

// SlabEntryBytes is the packed storage cost of one extent: an 8-byte
// offset, 4-byte length and 8-byte payload in parallel arrays.
const SlabEntryBytes = 20

const (
	// slabChunkSlots is the extent capacity of one shared chunk
	// (8192 × 20 B = 160 KiB). Segments needing more get a dedicated
	// exactly-sized chunk.
	slabChunkSlots = 1 << 13
	// maxExtentLen caps a single packed extent's byte length below the
	// uint32 limit; longer ranges are stored as adjacent pieces.
	maxExtentLen = int64(1) << 31
	// numClasses covers power-of-two segment capacities up to 2^31.
	numClasses = 32
)

// SplitFunc64 derives the payload of the suffix part of a packed extent
// split delta bytes after its start, mirroring SplitFunc for the
// packed-payload storage.
type SplitFunc64 func(val uint64, delta int64) uint64

// Seg is a handle to one segment of a Slab: a sorted, non-overlapping
// extent run. The zero Seg is an empty, unallocated segment.
type Seg struct {
	chunk uint32
	start uint32
	n     uint32
	cap   uint32
}

// Len returns the number of extents in the segment.
func (g Seg) Len() int { return int(g.n) }

// slabChunk is one storage chunk: parallel arrays plus bump-allocation
// and liveness bookkeeping. Arrays are nil once the chunk is released.
type slabChunk struct {
	offs []int64
	lens []uint32
	vals []uint64
	used uint32 // bump pointer (slots carved so far)
	live int32  // slots owned by live segments
}

// Slab owns the chunks and free lists. Use NewSlab; not safe for
// concurrent use (callers serialize per table).
type Slab struct {
	chunks []slabChunk
	free   [numClasses][]uint64 // packed refs: chunk<<32 | start
	open   int                  // chunk currently bump-carved, -1 if none
	bytes  int64                // allocated chunk bytes
}

// NewSlab returns an empty slab.
func NewSlab() *Slab {
	return &Slab{open: -1}
}

// Bytes returns the allocated chunk bytes (live chunks only — released
// chunks have been returned to the collector). Deterministic for a
// given operation sequence.
func (s *Slab) Bytes() int64 { return s.bytes }

// SegBytes returns the slab bytes held by g's allocation (capacity, not
// just live entries) — the residency attribution the DMT budget uses.
func (s *Slab) SegBytes(g Seg) int64 { return int64(g.cap) * SlabEntryBytes }

// View returns g's extents as parallel slices (offsets, lengths,
// payloads), each of length g.Len(). The slices alias slab storage:
// valid until the next mutation of g, never to be retained.
func (s *Slab) View(g Seg) (offs []int64, lens []uint32, vals []uint64) {
	if g.cap == 0 {
		return nil, nil, nil
	}
	c := &s.chunks[g.chunk]
	return c.offs[g.start : g.start+g.n], c.lens[g.start : g.start+g.n], c.vals[g.start : g.start+g.n]
}

// class returns the free-list class of a power-of-two capacity.
func class(capSlots uint32) int {
	c := 0
	for 1<<c < int(capSlots) {
		c++
	}
	return c
}

// alloc carves or reuses a segment of capSlots (a power of two) and
// returns its location.
func (s *Slab) alloc(capSlots uint32) (chunk, start uint32) {
	cl := class(capSlots)
	for fl := s.free[cl]; len(fl) > 0; fl = s.free[cl] {
		ref := fl[len(fl)-1]
		s.free[cl] = fl[:len(fl)-1]
		ci := uint32(ref >> 32)
		if s.chunks[ci].offs == nil {
			continue // chunk released while this ref sat in the list
		}
		s.chunks[ci].live += int32(capSlots)
		return ci, uint32(ref)
	}
	if capSlots > slabChunkSlots {
		// Dedicated exactly-sized chunk, fully used on arrival.
		s.chunks = append(s.chunks, slabChunk{
			offs: make([]int64, capSlots),
			lens: make([]uint32, capSlots),
			vals: make([]uint64, capSlots),
			used: capSlots,
			live: int32(capSlots),
		})
		s.bytes += int64(capSlots) * SlabEntryBytes
		return uint32(len(s.chunks) - 1), 0
	}
	if s.open < 0 || s.chunks[s.open].used+capSlots > slabChunkSlots {
		prev := s.open
		s.chunks = append(s.chunks, slabChunk{
			offs: make([]int64, slabChunkSlots),
			lens: make([]uint32, slabChunkSlots),
			vals: make([]uint64, slabChunkSlots),
		})
		s.bytes += int64(slabChunkSlots) * SlabEntryBytes
		s.open = len(s.chunks) - 1
		if prev >= 0 && s.chunks[prev].live == 0 {
			s.release(prev)
		}
	}
	c := &s.chunks[s.open]
	start = c.used
	c.used += capSlots
	c.live += int32(capSlots)
	return uint32(s.open), start
}

// freeSeg returns g's allocation to the free lists and releases its
// chunk if no live segment remains there. g becomes the zero Seg.
func (s *Slab) freeSeg(g *Seg) {
	if g.cap == 0 {
		*g = Seg{}
		return
	}
	cl := class(g.cap)
	s.free[cl] = append(s.free[cl], uint64(g.chunk)<<32|uint64(g.start))
	c := &s.chunks[g.chunk]
	c.live -= int32(g.cap)
	if c.live == 0 && int(g.chunk) != s.open {
		s.release(int(g.chunk))
	}
	*g = Seg{}
}

// Free releases g's storage (the spill path's drop-from-memory step).
func (s *Slab) Free(g *Seg) { s.freeSeg(g) }

// release drops a fully-drained chunk's arrays. Stale free-list refs
// into it are filtered lazily at alloc time.
func (s *Slab) release(ci int) {
	c := &s.chunks[ci]
	s.bytes -= int64(cap(c.offs)) * SlabEntryBytes
	c.offs, c.lens, c.vals = nil, nil, nil
	c.used, c.live = 0, 0
}

// grow moves g to a segment of newCap slots, leaving holeLen empty
// slots at index holeAt (entries [holeAt:] shift right by holeLen).
func (s *Slab) grow(g *Seg, newCap uint32, holeAt, holeLen uint32) {
	nc, ns := s.alloc(newCap)
	// Re-resolve after alloc: appending chunks may move s.chunks.
	dst := &s.chunks[nc]
	if g.cap > 0 {
		src := &s.chunks[g.chunk]
		so, do := g.start, ns
		copy(dst.offs[do:do+holeAt], src.offs[so:so+holeAt])
		copy(dst.lens[do:do+holeAt], src.lens[so:so+holeAt])
		copy(dst.vals[do:do+holeAt], src.vals[so:so+holeAt])
		tail := g.n - holeAt
		copy(dst.offs[do+holeAt+holeLen:do+holeAt+holeLen+tail], src.offs[so+holeAt:so+g.n])
		copy(dst.lens[do+holeAt+holeLen:do+holeAt+holeLen+tail], src.lens[so+holeAt:so+g.n])
		copy(dst.vals[do+holeAt+holeLen:do+holeAt+holeLen+tail], src.vals[so+holeAt:so+g.n])
	}
	n := g.n
	s.freeSeg(g)
	*g = Seg{chunk: nc, start: ns, n: n + holeLen, cap: newCap}
}

// shiftRight opens holeLen slots at index i within g (capacity
// permitting; the caller checked n+holeLen <= cap).
func (s *Slab) shiftRight(g *Seg, i, holeLen uint32) {
	c := &s.chunks[g.chunk]
	lo := g.start + i
	hi := g.start + g.n
	copy(c.offs[lo+holeLen:hi+holeLen], c.offs[lo:hi])
	copy(c.lens[lo+holeLen:hi+holeLen], c.lens[lo:hi])
	copy(c.vals[lo+holeLen:hi+holeLen], c.vals[lo:hi])
	g.n += holeLen
}

// shiftLeft closes d slots at index i within g (entries [i+d:] move to
// [i:]).
func (s *Slab) shiftLeft(g *Seg, i, d uint32) {
	c := &s.chunks[g.chunk]
	lo := g.start + i
	hi := g.start + g.n
	copy(c.offs[lo:hi-d], c.offs[lo+d:hi])
	copy(c.lens[lo:hi-d], c.lens[lo+d:hi])
	copy(c.vals[lo:hi-d], c.vals[lo+d:hi])
	g.n -= d
}

// set writes entry i of g.
func (s *Slab) set(g Seg, i uint32, off int64, length uint32, val uint64) {
	c := &s.chunks[g.chunk]
	c.offs[g.start+i] = off
	c.lens[g.start+i] = length
	c.vals[g.start+i] = val
}

// FirstIntersecting returns the index of the first entry of g whose end
// exceeds off — where any scan of [off, ...) starts.
func (s *Slab) FirstIntersecting(g Seg, off int64) int {
	offs, lens, _ := s.View(g)
	lo, hi := 0, len(offs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if offs[mid]+int64(lens[mid]) > off {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Insert sets [off, off+length) to val in g, overwriting overlapped
// parts of existing extents — Map.Insert for packed segments, with the
// same single splice. Ranges longer than maxExtentLen are stored as
// adjacent pieces with val advanced through split.
func (s *Slab) Insert(g *Seg, off, length int64, val uint64, split SplitFunc64) {
	for length > maxExtentLen {
		s.Insert(g, off, maxExtentLen, val, split)
		val = split(val, maxExtentLen)
		off += maxExtentLen
		length -= maxExtentLen
	}
	if length <= 0 {
		return
	}
	s.overwrite(g, off, off+length, &slot{off: off, len: uint32(length), val: val}, split)
}

// Delete removes coverage of [off, off+length) from g, splitting
// boundary extents — Map.Delete for packed segments.
func (s *Slab) Delete(g *Seg, off, length int64, split SplitFunc64) {
	if length <= 0 {
		return
	}
	s.overwrite(g, off, off+length, nil, split)
}

// overwrite replaces the coverage of [off, end) in g with ins (nil
// deletes) — Map.overwrite for packed segments.
func (s *Slab) overwrite(g *Seg, off, end int64, ins *slot, split SplitFunc64) {
	i, j := s.window(*g, off, end)
	if i == j && ins == nil {
		return
	}
	offs, lens, vals := s.View(*g)
	var repl [3]slot
	n := 0
	if i < j && offs[i] < off {
		// Overlap at the first entry's tail: keep the head.
		repl[n] = slot{off: offs[i], len: uint32(off - offs[i]), val: vals[i]}
		n++
	}
	if ins != nil {
		repl[n] = *ins
		n++
	}
	if last := j - 1; i < j {
		if lastEnd := offs[last] + int64(lens[last]); lastEnd > end {
			// Overlap at the last entry's head: keep the advanced tail.
			repl[n] = slot{off: end, len: uint32(lastEnd - end), val: split(vals[last], end-offs[last])}
			n++
		}
	}
	s.splice(g, uint32(i), uint32(j), repl[:n])
}

// slot is one packed extent written by a splice.
type slot struct {
	off int64
	len uint32
	val uint64
}

// window returns the entries of g intersecting [off, end) as the index
// range [i, j). When none intersect, i == j is where an extent at off
// belongs.
func (s *Slab) window(g Seg, off, end int64) (i, j int) {
	offs, _, _ := s.View(g)
	i = s.FirstIntersecting(g, off)
	j = i
	for j < len(offs) && offs[j] < end {
		j++
	}
	return i, j
}

// splice replaces entries [i, j) of g with repl, moving the tail [j, n)
// at most once.
func (s *Slab) splice(g *Seg, i, j uint32, repl []slot) {
	nr := uint32(len(repl))
	switch win := j - i; {
	case nr < win:
		s.shiftLeft(g, i+nr, win-nr)
	case nr > win:
		d := nr - win
		if g.n+d <= g.cap {
			s.shiftRight(g, j, d)
			break
		}
		c := max(2*g.cap, 1)
		for g.n+d > c {
			c *= 2
		}
		s.grow(g, c, j, d)
	}
	for k, e := range repl {
		s.set(*g, i+uint32(k), e.off, e.len, e.val)
	}
}

// AppendGaps appends the uncovered subranges of [off, off+length) to
// dst — Map.AppendGaps for packed segments.
func (s *Slab) AppendGaps(g Seg, dst []Gap, off, length int64) []Gap {
	if length <= 0 {
		return dst
	}
	offs, lens, _ := s.View(g)
	end := off + length
	pos := off
	for i := s.FirstIntersecting(g, off); i < len(offs); i++ {
		if offs[i] >= end {
			break
		}
		if offs[i] > pos {
			dst = append(dst, Gap{Off: pos, Len: offs[i] - pos})
		}
		if e := offs[i] + int64(lens[i]); e > pos {
			pos = e
		}
	}
	if pos < end {
		dst = append(dst, Gap{Off: pos, Len: end - pos})
	}
	return dst
}

// Covered reports whether [off, off+length) is fully covered in g.
func (s *Slab) Covered(g Seg, off, length int64) bool {
	if length <= 0 {
		return true
	}
	offs, lens, _ := s.View(g)
	pos := off
	end := off + length
	for i := s.FirstIntersecting(g, off); i < len(offs); i++ {
		if offs[i] > pos {
			return false
		}
		if e := offs[i] + int64(lens[i]); e >= end {
			return true
		} else if e > pos {
			pos = e
		}
	}
	return pos >= end
}
