// Package extent provides an interval map over byte ranges: a sorted set
// of non-overlapping extents [Off, Off+Len) each carrying a payload.
//
// Both metadata tables of S4D-Cache are interval maps per original file:
// the Critical Data Table (paper Fig. 5, left) maps file ranges to
// criticality flags, and the Data Mapping Table (Fig. 5, right) maps file
// ranges to cache-file locations. Inserts overwrite any overlapped parts
// of existing extents, splitting them as needed; payloads are adjusted on
// split through a caller-provided function (a DMT mapping split at +delta
// bytes must advance its cache offset by delta).
package extent

import (
	"slices"
	"sort"
)

// Entry is one extent and its payload.
type Entry[V any] struct {
	// Off is the start of the extent.
	Off int64
	// Len is the extent length in bytes (always > 0 inside a Map).
	Len int64
	// Val is the payload.
	Val V
}

// End returns the exclusive end offset.
func (e Entry[V]) End() int64 { return e.Off + e.Len }

// SplitFunc derives the payload of the suffix part of an extent split
// delta bytes after its start.
type SplitFunc[V any] func(v V, delta int64) V

// Map is an interval map. Use New; the zero value is not usable.
type Map[V any] struct {
	split   SplitFunc[V]
	entries []Entry[V]
}

// New returns an empty map. split may be nil if payloads are
// position-independent (flags, counters).
func New[V any](split SplitFunc[V]) *Map[V] {
	if split == nil {
		split = func(v V, _ int64) V { return v }
	}
	return &Map[V]{split: split}
}

// Len returns the number of extents.
func (m *Map[V]) Len() int { return len(m.entries) }

// Bytes returns the total covered byte count.
func (m *Map[V]) Bytes() int64 {
	var n int64
	for _, e := range m.entries {
		n += e.Len
	}
	return n
}

// Insert sets [off, off+length) to val, overwriting overlapped parts of
// existing extents. Zero or negative lengths are ignored.
func (m *Map[V]) Insert(off, length int64, val V) {
	if length <= 0 {
		return
	}
	m.overwrite(off, off+length, &Entry[V]{Off: off, Len: length, Val: val})
}

// Delete removes coverage of [off, off+length), splitting boundary extents.
func (m *Map[V]) Delete(off, length int64) {
	if length <= 0 {
		return
	}
	m.overwrite(off, off+length, nil)
}

// overwrite replaces the coverage of [off, end) with ins (nil deletes).
// The intersecting window [i, j) is found once and replaced with at most
// three entries (the kept head, ins, the split tail) in a single splice,
// so the tail moves once, by the net size change: O(log n + moved), and
// an exact re-insert of one entry moves nothing.
func (m *Map[V]) overwrite(off, end int64, ins *Entry[V]) {
	i, j := m.window(off, end)
	if i == j && ins == nil {
		return
	}
	var repl [3]Entry[V]
	n := 0
	if i < j && m.entries[i].Off < off {
		// Overlap at the first entry's tail: keep the head.
		first := m.entries[i]
		first.Len = off - first.Off
		repl[n] = first
		n++
	}
	if ins != nil {
		repl[n] = *ins
		n++
	}
	if last := j - 1; i < j && m.entries[last].End() > end {
		// Overlap at the last entry's head: keep the advanced tail.
		e := m.entries[last]
		repl[n] = Entry[V]{Off: end, Len: e.End() - end, Val: m.split(e.Val, end-e.Off)}
		n++
	}
	m.splice(i, j, repl[:n])
}

// window returns the entries intersecting [off, end) as the index range
// [i, j). When none intersect, i == j is where an extent at off belongs.
func (m *Map[V]) window(off, end int64) (i, j int) {
	i = m.firstIntersecting(off)
	j = i + sort.Search(len(m.entries)-i, func(k int) bool { return m.entries[i+k].Off >= end })
	return i, j
}

// splice replaces entries[i:j) with repl, moving the tail entries[j:]
// at most once.
func (m *Map[V]) splice(i, j int, repl []Entry[V]) {
	d := len(repl) - (j - i)
	switch {
	case d < 0:
		n := i + len(repl) + copy(m.entries[i+len(repl):], m.entries[j:])
		for k := n; k < len(m.entries); k++ {
			m.entries[k] = Entry[V]{} // release payloads for GC
		}
		m.entries = m.entries[:n]
	case d > 0:
		n := len(m.entries)
		m.entries = slices.Grow(m.entries, d)[:n+d]
		copy(m.entries[j+d:], m.entries[j:n])
	}
	copy(m.entries[i:], repl)
}

// Overlaps returns the entries intersecting [off, off+length), in offset
// order. Entries are returned whole (not clipped).
func (m *Map[V]) Overlaps(off, length int64) []Entry[V] {
	return m.AppendOverlaps(nil, off, length)
}

// AppendOverlaps appends the entries intersecting [off, off+length) to dst
// and returns the extended slice. Hot callers (the serve path in
// internal/core, cachespace bookkeeping) pass a reused scratch buffer to
// avoid a per-lookup allocation.
func (m *Map[V]) AppendOverlaps(dst []Entry[V], off, length int64) []Entry[V] {
	if length <= 0 {
		return dst
	}
	end := off + length
	for i := m.firstIntersecting(off); i < len(m.entries); i++ {
		e := m.entries[i]
		if e.Off >= end {
			break
		}
		if e.End() > off {
			dst = append(dst, e)
		}
	}
	return dst
}

// Covered reports whether [off, off+length) is fully covered by extents.
func (m *Map[V]) Covered(off, length int64) bool {
	if length <= 0 {
		return true
	}
	pos := off
	end := off + length
	for i := m.firstIntersecting(off); i < len(m.entries); i++ {
		e := m.entries[i]
		if e.Off > pos {
			return false
		}
		if e.End() >= end {
			return true
		}
		pos = e.End()
	}
	return pos >= end
}

// Gap is an uncovered subrange.
type Gap struct {
	Off, Len int64
}

// Gaps returns the uncovered subranges of [off, off+length), in order.
func (m *Map[V]) Gaps(off, length int64) []Gap {
	return m.AppendGaps(nil, off, length)
}

// AppendGaps appends the uncovered subranges of [off, off+length) to dst
// and returns the extended slice. See AppendOverlaps for the scratch-buffer
// contract.
func (m *Map[V]) AppendGaps(dst []Gap, off, length int64) []Gap {
	return m.AppendGapsUpTo(dst, off, length, length)
}

// AppendGapsUpTo is AppendGaps that stops as soon as the appended gaps
// total at least need bytes: the bounded walk of a first-fit allocator,
// which never looks past the gap that completes its request.
func (m *Map[V]) AppendGapsUpTo(dst []Gap, off, length, need int64) []Gap {
	if length <= 0 {
		return dst
	}
	end := off + length
	pos := off
	var got int64
	for i := m.firstIntersecting(off); i < len(m.entries) && got < need; i++ {
		e := m.entries[i]
		if e.Off >= end {
			break
		}
		if e.Off > pos {
			dst = append(dst, Gap{Off: pos, Len: e.Off - pos})
			got += e.Off - pos
		}
		if e.End() > pos {
			pos = e.End()
		}
	}
	if pos < end && got < need {
		dst = append(dst, Gap{Off: pos, Len: end - pos})
	}
	return dst
}

// Find returns the entry containing off.
func (m *Map[V]) Find(off int64) (Entry[V], bool) {
	i := m.firstIntersecting(off)
	if i < len(m.entries) {
		e := m.entries[i]
		if e.Off <= off && off < e.End() {
			return e, true
		}
	}
	var zero Entry[V]
	return zero, false
}

// AppendEntries appends every extent to dst in offset order and returns
// the extended slice: a copy of the map's contents the caller owns.
func (m *Map[V]) AppendEntries(dst []Entry[V]) []Entry[V] {
	return append(dst, m.entries...)
}

// Walk calls fn for every extent in offset order; returning false stops.
func (m *Map[V]) Walk(fn func(Entry[V]) bool) {
	for _, e := range m.entries {
		if !fn(e) {
			return
		}
	}
}

// Clear removes all extents.
func (m *Map[V]) Clear() { m.entries = m.entries[:0] }

// firstIntersecting returns the index of the first entry whose End > off.
func (m *Map[V]) firstIntersecting(off int64) int {
	return sort.Search(len(m.entries), func(i int) bool { return m.entries[i].End() > off })
}
