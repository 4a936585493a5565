// Package cdt implements the Critical Data Table (paper §III.C, Fig. 5
// left): the set of file ranges the Data Identifier has classified as
// performance-critical. An entry is (D_file, D_offset, Length, C_flag):
// the C_flag marks data awaiting a lazy fetch into the CServers by the
// Rebuilder. Algorithm 1 asks only whether a request is in the table and
// its C_flag, so the table keeps nothing else per range.
//
// Unflagged coverage is a set: in an unbounded table adjacent and
// overlapping unflagged ranges merge into one run, and re-adding a range
// that one unflagged run already covers writes nothing, so a read hit
// flips no bit. Flagged entries keep their own boundaries, since each is
// one fetch unit for the Rebuilder. A bounded table stamps every Add with
// an insertion sequence and evicts in FIFO order; its stamped entries do
// not merge.
//
// File names intern into a names.Arena — shared with the DMT and the
// core's per-file bookkeeping when constructed WithArena — and every
// internal structure is keyed by the dense arena id, so the table never
// duplicates name bytes and FIFO refs carry 4-byte ids instead of string
// headers.
package cdt

import (
	"s4dcache/internal/extent"
	"s4dcache/internal/names"
)

// Info is the payload of one critical extent.
type Info struct {
	// CFlag marks data that missed the cache on a read and should be
	// fetched into the CServers by the Rebuilder (Algorithm 1, line 18).
	CFlag bool
	// seq is the insertion sequence of the Add or Restore that installed
	// the range, for FIFO eviction. Only a bounded table stamps it; an
	// unbounded one keeps no insertion log, so its entries carry zero and
	// its unflagged runs merge.
	seq uint64
}

// Fetch is a pending lazy fetch (a C_flag-marked range).
type Fetch struct {
	File string
	Off  int64
	Len  int64
}

// Option configures New.
type Option func(*Table)

// WithArena shares a file-name interning arena with other tables.
// Default: a private arena.
func WithArena(a *names.Arena) Option { return func(t *Table) { t.arena = a } }

// Table is the Critical Data Table. Use New.
type Table struct {
	arena *names.Arena
	// slots maps an arena id to its file slot. Slots are assigned in
	// first-added order and never reused; maps, ids and changed are
	// indexed by slot, and PendingFetches/Extents walk them in slot order
	// instead of the map, so the Rebuilder's fetch order is deterministic
	// across runs.
	slots map[uint32]int32
	maps  []*extent.Map[Info]
	ids   []uint32
	// changed marks slots whose entries moved since the last
	// TakeChanged — the warm-restart snapshot rewrites only those.
	changed  []bool
	order    []fifoRef // insertion order, for bounded eviction
	maxBytes int64
	bytes    int64
	// flagged tracks the C_flag-marked bytes, maintained incrementally by
	// every mutation so HasPending is O(1): the Rebuilder polls it every
	// period and must not walk (or allocate) per poll.
	flagged int64
	seq     uint64
	evicted uint64
	// ov is the reusable overlap-scan scratch of Add/SetCFlag/ClearCFlag;
	// callers are single-threaded and each scan completes before the next
	// starts, so one buffer per table is safe.
	ov []extent.Entry[Info]
}

type fifoRef struct {
	si  int32
	off int64
	len int64
	seq uint64
}

// New returns an empty table bounded to maxBytes of tracked data;
// maxBytes <= 0 means unbounded.
func New(maxBytes int64, opts ...Option) *Table {
	t := &Table{slots: make(map[uint32]int32), maxBytes: maxBytes}
	for _, o := range opts {
		o(t)
	}
	if t.arena == nil {
		t.arena = names.NewArena()
	}
	return t
}

// Arena returns the table's name-interning arena.
func (t *Table) Arena() *names.Arena { return t.arena }

// SetMaxBytes adjusts the table bound live; maxBytes <= 0 means
// unbounded. Shrinking a bounded table evicts immediately. A table
// constructed unbounded has no insertion log for its existing entries,
// so a new bound takes hold as fresh adds cycle through the FIFO.
func (t *Table) SetMaxBytes(maxBytes int64) {
	t.maxBytes = maxBytes
	t.evict()
}

// lookup resolves file's slot without interning — -1 if the table has
// never tracked it. Allocation-free.
func (t *Table) lookup(file string) int32 {
	id, ok := t.arena.Lookup(file)
	if !ok {
		return -1
	}
	si, ok := t.slots[id]
	if !ok {
		return -1
	}
	return si
}

// lookupMap is lookup returning the file's extent map (nil if untracked).
func (t *Table) lookupMap(file string) *extent.Map[Info] {
	if si := t.lookup(file); si >= 0 {
		return t.maps[si]
	}
	return nil
}

// Add records [off, off+length) of file as critical. A range that
// overlaps flagged data is recorded flagged as a whole, so re-adding keeps
// a pending fetch. In an unbounded table a range one unflagged run already
// covers is left as it is — the read-hit case, which writes nothing — and
// any other unflagged range merges with the unflagged runs it overlaps or
// touches. A bounded table stamps the range and logs it for FIFO eviction.
func (t *Table) Add(file string, off, length int64) {
	if length <= 0 {
		return
	}
	bounded := t.maxBytes > 0
	if !bounded {
		if m := t.lookupMap(file); m != nil {
			if e, ok := m.Find(off); ok && e.Val == (Info{}) && e.End() >= off+length {
				return
			}
		}
	}
	si, m := t.fileMap(file)
	var v Info
	t.ov = m.AppendOverlaps(t.ov[:0], off, length)
	for _, e := range t.ov {
		if e.Val.CFlag {
			v.CFlag = true
			break
		}
	}
	if bounded {
		t.seq++
		v.seq = t.seq
	}
	t.put(si, m, off, off+length, v)
	if bounded {
		t.order = append(t.order, fifoRef{si: si, off: off, len: length, seq: v.seq})
		t.evict()
	}
}

// put installs [lo, hi) of slot si with v over whatever it overlaps,
// keeping the byte and flag counts. An unstamped unflagged range first
// grows over the unstamped unflagged runs that overlap or touch its ends,
// so those runs merge. The slot is marked changed unless the result is the
// one entry that was already there with the same flag.
func (t *Table) put(si int32, m *extent.Map[Info], lo, hi int64, v Info) {
	if v == (Info{}) {
		if e, ok := m.Find(lo - 1); ok && e.Val == (Info{}) {
			lo = e.Off
		}
		if e, ok := m.Find(hi); ok && e.Val == (Info{}) {
			hi = e.End()
		}
	}
	total, flagged := t.overlapBytes(m, lo, hi-lo)
	if len(t.ov) != 1 || t.ov[0].Off != lo || t.ov[0].End() != hi || t.ov[0].Val.CFlag != v.CFlag {
		t.changed[si] = true
	}
	t.bytes += hi - lo - total
	t.flagged -= flagged
	if v.CFlag {
		t.flagged += hi - lo
	}
	m.Insert(lo, hi-lo, v)
}

// Contains reports whether [off, off+length) is fully covered by critical
// extents — the Algorithm 1 "req is in CDT" test.
func (t *Table) Contains(file string, off, length int64) bool {
	m := t.lookupMap(file)
	if m == nil {
		return false
	}
	return m.Covered(off, length)
}

// SetCFlag marks the critical bytes of [off, off+length) for lazy
// fetching (Algorithm 1, line 18). Each unflagged entry's part inside the
// range becomes one flagged entry; bytes outside it stay as they were.
func (t *Table) SetCFlag(file string, off, length int64) {
	si := t.lookup(file)
	if si < 0 {
		return
	}
	m := t.maps[si]
	end := off + length
	t.ov = m.AppendOverlaps(t.ov[:0], off, length)
	for _, e := range t.ov {
		if e.Val.CFlag {
			continue
		}
		lo, hi := max(e.Off, off), min(e.End(), end)
		m.Insert(lo, hi-lo, Info{CFlag: true, seq: e.Val.seq})
		t.flagged += hi - lo
		t.changed[si] = true
	}
}

// ClearCFlag unmarks every flagged entry overlapping [off, off+length),
// whole: a flagged entry is one fetch unit, and the Rebuilder clears it
// by the boundaries PendingFetches handed out (paper §III.F).
func (t *Table) ClearCFlag(file string, off, length int64) {
	si := t.lookup(file)
	if si < 0 {
		return
	}
	m := t.maps[si]
	// put reuses t.ov, so walk the flagged entries by position.
	for pos, end := off, off+length; pos < end; {
		e, ok := t.nextFlagged(m, pos, end)
		if !ok {
			break
		}
		pos = e.End()
		t.put(si, m, e.Off, e.End(), Info{seq: e.Val.seq})
	}
}

// nextFlagged returns the first flagged entry of m intersecting
// [pos, end).
func (t *Table) nextFlagged(m *extent.Map[Info], pos, end int64) (extent.Entry[Info], bool) {
	t.ov = m.AppendOverlaps(t.ov[:0], pos, end-pos)
	for _, e := range t.ov {
		if e.Val.CFlag {
			return e, true
		}
	}
	return extent.Entry[Info]{}, false
}

// PendingFetches returns up to max C_flag-marked ranges (all if max <= 0).
func (t *Table) PendingFetches(max int) []Fetch {
	var out []Fetch
	for si, m := range t.maps {
		file := t.arena.Name(t.ids[si])
		m.Walk(func(e extent.Entry[Info]) bool {
			if e.Val.CFlag {
				out = append(out, Fetch{File: file, Off: e.Off, Len: e.Len})
				if max > 0 && len(out) >= max {
					return false
				}
			}
			return true
		})
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

// Extent is one tracked critical range, as reported by Extents.
type Extent struct {
	File  string
	Off   int64
	Len   int64
	CFlag bool
}

// Extents dumps every tracked range in deterministic (first-added file,
// ascending offset) order — the state-comparison oracle of the
// concurrency-equivalence tests.
func (t *Table) Extents() []Extent {
	var out []Extent
	for si := range t.maps {
		out = t.appendSlot(out, int32(si))
	}
	return out
}

// appendSlot appends slot si's tracked ranges in ascending offset order.
func (t *Table) appendSlot(dst []Extent, si int32) []Extent {
	file := t.arena.Name(t.ids[si])
	t.maps[si].Walk(func(e extent.Entry[Info]) bool {
		dst = append(dst, Extent{File: file, Off: e.Off, Len: e.Len, CFlag: e.Val.CFlag})
		return true
	})
	return dst
}

// Remove drops coverage of [off, off+length).
func (t *Table) Remove(file string, off, length int64) {
	si := t.lookup(file)
	if si < 0 {
		return
	}
	m := t.maps[si]
	total, flaggedOv := t.overlapBytes(m, off, length)
	if total == 0 {
		return
	}
	t.bytes -= total
	t.flagged -= flaggedOv
	m.Delete(off, length)
	t.changed[si] = true
}

// FileTracked reports whether any critical extent of file remains. Core
// uses it to prune per-file bookkeeping once a file drops out of the table.
func (t *Table) FileTracked(file string) bool {
	m := t.lookupMap(file)
	return m != nil && m.Len() > 0
}

// Bytes returns the total tracked critical bytes.
func (t *Table) Bytes() int64 { return t.bytes }

// PendingBytes returns the C_flag-marked bytes awaiting a lazy fetch,
// maintained incrementally (O(1), no walk).
func (t *Table) PendingBytes() int64 { return t.flagged }

// HasPending reports whether any lazy fetch is pending, in O(1) and
// without allocating — the Rebuilder's poll predicate.
func (t *Table) HasPending() bool { return t.flagged > 0 }

// Entries returns the total extent count.
func (t *Table) Entries() int {
	n := 0
	for _, m := range t.maps {
		n += m.Len()
	}
	return n
}

// Evicted returns how many FIFO evictions the byte bound has forced.
func (t *Table) Evicted() uint64 { return t.evicted }

// fileMap interns file and returns its slot and extent map, creating
// both on first use.
func (t *Table) fileMap(file string) (int32, *extent.Map[Info]) {
	id := t.arena.Intern(file)
	if si, ok := t.slots[id]; ok {
		return si, t.maps[si]
	}
	si := int32(len(t.maps))
	m := extent.New[Info](nil)
	t.slots[id] = si
	t.maps = append(t.maps, m)
	t.ids = append(t.ids, id)
	t.changed = append(t.changed, false)
	return si, m
}

func (t *Table) evict() {
	if t.maxBytes <= 0 {
		return
	}
	for t.bytes > t.maxBytes && len(t.order) > 0 {
		ref := t.order[0]
		t.order = t.order[1:]
		m := t.maps[ref.si]
		// Only evict parts still owned by this insertion (not overwritten
		// by a newer Add).
		for _, e := range m.Overlaps(ref.off, ref.len) {
			if e.Val.seq == ref.seq {
				t.bytes -= e.Len
				if e.Val.CFlag {
					t.flagged -= e.Len
				}
				m.Delete(e.Off, e.Len)
				t.evicted++
				t.changed[ref.si] = true
			}
		}
	}
}

// overlapBytes returns the tracked bytes of m inside [off, off+length),
// clipped, along with how many of them carry the C_flag.
func (t *Table) overlapBytes(m *extent.Map[Info], off, length int64) (total, flagged int64) {
	end := off + length
	t.ov = m.AppendOverlaps(t.ov[:0], off, length)
	for _, e := range t.ov {
		lo, hi := e.Off, e.End()
		if lo < off {
			lo = off
		}
		if hi > end {
			hi = end
		}
		total += hi - lo
		if e.Val.CFlag {
			flagged += hi - lo
		}
	}
	return total, flagged
}
