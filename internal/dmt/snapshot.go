package dmt

// Change tracking for the warm-restart snapshot (DESIGN.md §14.2): every
// mapping change marks its file, and a snapshot tick takes the marks and
// rewrites only those files' residency records.

// TakeChanged calls fn with every file whose mapping changed since the
// previous call — every file the table ever mapped when all is set — in
// first-mapped order, and clears the marks. ord is the file's stable
// position in that order. fn must not call back into the table.
func (t *Table) TakeChanged(all bool, fn func(file string, ord uint64)) {
	for _, si := range t.order {
		fs := &t.files[si]
		if fs.unsnapped == 0 && !all {
			continue
		}
		fs.unsnapped = 0
		fn(t.arena.Name(fs.id), uint64(si))
	}
}

// AppendFile appends every mapped extent of file to dst in ascending
// offset order, each with File set. A spilled file faults in for the
// copy; the budget sweep runs afterwards.
func (t *Table) AppendFile(dst []Hit, file string) []Hit {
	si := t.lookupSlot(file)
	if si < 0 {
		return dst
	}
	if t.files[si].state == fsSpilled {
		t.faultIn(si)
		defer t.enforceBudget(-1)
	}
	offs, lens, vals := t.slab.View(t.files[si].seg)
	for i := range offs {
		co, dirty := unpackMapping(vals[i])
		dst = append(dst, Hit{File: file, Off: offs[i], Len: int64(lens[i]), CacheOff: co, Dirty: dirty})
	}
	return dst
}

// TakeChanged is Table.TakeChanged across stripes, each under its lock;
// ord ranks stripe first. fn must not call back into the table.
func (s *Striped) TakeChanged(all bool, fn func(file string, ord uint64)) {
	for i := range s.stripes {
		sh := &s.stripes[i]
		sh.mu.Lock()
		sh.t.TakeChanged(all, func(file string, ord uint64) { fn(file, uint64(i)<<32|ord) })
		sh.mu.Unlock()
	}
}

// AppendFile appends every mapped extent of file to dst, as
// Table.AppendFile, under the file's stripe lock.
func (s *Striped) AppendFile(dst []Hit, file string) []Hit {
	t, mu := s.stripe(file)
	defer mu.Unlock()
	return t.AppendFile(dst, file)
}
