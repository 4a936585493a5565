package cdt

// Change tracking for the warm-restart snapshot (DESIGN.md §14.2): every
// mutation that moves a persisted field — coverage, C_flag, benefit —
// marks the file's slot, and a snapshot tick takes the marks and rewrites
// only those files' records.

// TakeChanged calls fn with every file whose entries changed since the
// previous call — every file the table ever tracked when all is set —
// and clears the marks. ord is the file's position in Extents order. fn
// must not call back into the table.
func (t *Table) TakeChanged(all bool, fn func(file string, ord uint64)) {
	for si, ch := range t.changed {
		if !ch && !all {
			continue
		}
		t.changed[si] = false
		fn(t.arena.Name(t.ids[si]), uint64(si))
	}
}

// AppendFile appends file's tracked ranges to dst in ascending offset
// order.
func (t *Table) AppendFile(dst []Extent, file string) []Extent {
	si := t.lookup(file)
	if si < 0 {
		return dst
	}
	return t.appendSlot(dst, si)
}

// TakeChanged is Table.TakeChanged across stripes, each under its lock;
// ord ranks stripe first, as Extents does. fn must not call back into
// the table.
func (s *Striped) TakeChanged(all bool, fn func(file string, ord uint64)) {
	for i := range s.stripes {
		sh := &s.stripes[i]
		sh.mu.Lock()
		sh.t.TakeChanged(all, func(file string, ord uint64) { fn(file, uint64(i)<<32|ord) })
		sh.mu.Unlock()
	}
}

// AppendFile appends file's tracked ranges to dst in ascending offset
// order.
func (s *Striped) AppendFile(dst []Extent, file string) []Extent {
	t, mu := s.stripe(file)
	defer mu.Unlock()
	return t.AppendFile(dst, file)
}
