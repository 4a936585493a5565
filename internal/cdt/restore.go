package cdt

import "time"

// Warm-restart import surface: the CDT has no persistence of its own — its
// entries are snapshot-streamed as staterec.Critical records by the core —
// so recovery re-installs them here with their exact flags, rather than via
// Add (which preserves overlapped flags instead of restoring them).

// Restore installs one recovered critical extent with an exact C_flag and
// benefit, overwriting whatever overlapped. Unlike Add it never infers the
// flag from existing coverage: the record being restored is the authority.
func (t *Table) Restore(file string, off, length int64, cflag bool, benefit time.Duration) {
	if length <= 0 {
		return
	}
	si, m := t.fileMap(file)
	total, flaggedOv := t.overlapBytes(m, off, length)
	t.bytes -= total
	t.flagged -= flaggedOv
	t.seq++
	m.Insert(off, length, Info{CFlag: cflag, Benefit: benefit, seq: t.seq})
	t.changed[si] = true
	t.bytes += length
	if cflag {
		t.flagged += length
	}
	if t.maxBytes > 0 {
		t.order = append(t.order, fifoRef{si: si, off: off, len: length, seq: t.seq})
		t.evict()
	}
}

// Restore installs one recovered critical extent into file's stripe and
// republishes its coverage view (plus the whole stripe if the bounded FIFO
// evicted on the way in).
func (s *Striped) Restore(file string, off, length int64, cflag bool, benefit time.Duration) {
	if length <= 0 {
		return
	}
	sh := &s.stripes[stripeIndex(file)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	evicted := sh.t.Evicted()
	sh.t.Restore(file, off, length, cflag, benefit)
	if sh.t.Evicted() != evicted {
		sh.republishAll()
	} else {
		sh.republish(file)
	}
}
