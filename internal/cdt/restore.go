package cdt

// Warm-restart import surface: the CDT has no persistence of its own — its
// entries are snapshot-streamed as staterec.Critical records by the core —
// so recovery re-installs them here with their exact flags, rather than via
// Add (which preserves overlapped flags instead of restoring them).

// Restore installs one recovered critical extent with an exact C_flag,
// overwriting whatever overlapped. Unlike Add it never infers the flag
// from existing coverage: the record being restored is the authority.
// Unflagged records merge with unflagged runs as Add's do.
func (t *Table) Restore(file string, off, length int64, cflag bool) {
	if length <= 0 {
		return
	}
	si, m := t.fileMap(file)
	v := Info{CFlag: cflag}
	bounded := t.maxBytes > 0
	if bounded {
		t.seq++
		v.seq = t.seq
	}
	t.put(si, m, off, off+length, v)
	t.changed[si] = true
	if bounded {
		t.order = append(t.order, fifoRef{si: si, off: off, len: length, seq: v.seq})
		t.evict()
	}
}
