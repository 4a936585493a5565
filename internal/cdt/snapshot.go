package cdt

// Change tracking for the warm-restart snapshot (DESIGN.md §14.2): every
// mutation that moves a persisted field — coverage or C_flag — the file's slot, and a snapshot tick takes the marks and rewrites only
// those files' records.

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
