package cachespace

import "fmt"

// Warm-restart re-admission: a recovered DMT mapping names the exact cache
// offset its bytes already occupy on the SSD, so recovery installs it with
// Adopt — claim that precise range — rather than Allocate, which would hand
// out fresh space and orphan the surviving bytes. An adoption that cannot
// claim its range whole (overlap with an already-adopted extent, offset
// outside the current capacity) is an integrity conflict: the caller
// quarantines the extent and treats it as a miss.

// adopt installs a recovered extent at its exact region-local offset. The
// range must be entirely free; otherwise an error is returned and nothing
// changes. Clean adoptions register with the eviction policy like any
// resident clean fragment.
func (r *region) adopt(cacheOff, length int64, owner Owner, dirty bool) error {
	r.ov = r.used.AppendOverlaps(r.ov[:0], cacheOff, length)
	if len(r.ov) > 0 {
		return fmt.Errorf("cachespace: adopt [%d,+%d) conflicts with resident [%d,+%d)",
			r.base+cacheOff, length, r.base+r.ov[0].Off, r.ov[0].Len)
	}
	seq := r.nextSeq()
	r.used.Insert(cacheOff, length, unit{owner: owner, dirty: dirty, seq: seq})
	r.usedB += length
	if dirty {
		r.dirtyB += length
	} else {
		r.policy.NoteClean(Cand{Seq: seq, Off: cacheOff, Len: length}, owner)
	}
	return nil
}

// Adopt installs a recovered extent at its exact global cache offset,
// splitting it across regions as needed (a pre-crash extent may span a
// region boundary, or the region count may have changed across the
// restart). All-or-nothing: if any piece conflicts or falls outside the
// allocatable space, pieces adopted so far are freed again and the error
// is returned.
func (s *Sharded) Adopt(cacheOff, length int64, owner Owner, dirty bool) error {
	if length <= 0 {
		return fmt.Errorf("cachespace: adopt length must be positive, got %d", length)
	}
	if cacheOff < 0 || cacheOff+length > s.Capacity() {
		// The even split may strand remainder bytes a previous layout used.
		return fmt.Errorf("cachespace: adopt [%d,+%d) outside allocatable capacity %d", cacheOff, length, s.Capacity())
	}
	var adopted int64
	var adoptErr error
	s.each(cacheOff, length, func(r *region, off, n int64) {
		if adoptErr != nil {
			return
		}
		pieceOwner := Owner{File: owner.File, FileOff: owner.FileOff + adopted}
		if err := r.adopt(off, n, pieceOwner, dirty); err != nil {
			adoptErr = err
			return
		}
		adopted += n
	})
	if adoptErr != nil && adopted > 0 {
		// Roll the prefix back; the caller quarantines the whole extent.
		s.FreeRange(cacheOff, adopted)
	}
	return adoptErr
}
