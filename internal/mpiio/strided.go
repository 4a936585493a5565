package mpiio

import (
	"fmt"
)

// View is a strided file view (a vector-datatype-lite): starting at Disp,
// the visible bytes are Count blocks of BlockLen separated by Stride.
// Stride >= BlockLen; Stride == BlockLen makes the view contiguous.
type View struct {
	// Disp is the view displacement (start offset in the file).
	Disp int64
	// BlockLen is the bytes per block.
	BlockLen int64
	// Stride is the distance between block starts.
	Stride int64
	// Count is the number of blocks; 0 means unbounded.
	Count int64
}

// Validate reports whether the view is usable.
func (v View) Validate() error {
	if v.Disp < 0 {
		return fmt.Errorf("mpiio: view displacement %d negative", v.Disp)
	}
	if v.BlockLen <= 0 {
		return fmt.Errorf("mpiio: view block length %d must be positive", v.BlockLen)
	}
	if v.Stride < v.BlockLen {
		return fmt.Errorf("mpiio: view stride %d smaller than block length %d", v.Stride, v.BlockLen)
	}
	return nil
}

// SetView installs a strided view for rank (MPI_File_set_view) and resets
// the rank's view position.
func (f *File) SetView(rank int, v View) error {
	if err := f.check(rank); err != nil {
		return err
	}
	if err := v.Validate(); err != nil {
		return err
	}
	f.mu.Lock()
	f.view[rank] = v
	f.offset[rank] = 0 // view-relative block position
	f.mu.Unlock()
	return nil
}

// WriteStrided writes n blocks of rank's view from its current view
// position by data sieving (reference [6]): one request covers the whole
// span, holes included, and is issued as a read-modify-write — a read of
// the span followed by a full-span write. done runs when the write-back
// completes, with the first I/O error.
func (f *File) WriteStrided(rank int, n int64, done func(error)) error {
	lo, hi, err := f.takeViewRange(rank, n)
	if err != nil {
		return err
	}
	if lo == hi {
		f.completeEmpty(done)
		return nil
	}
	// A failed fetch still writes back (the modification is issued), but
	// the first error is the one reported.
	return f.comm.transport.Read(rank, f.name, lo, hi-lo, nil, func(rerr error) {
		_ = f.comm.transport.Write(rank, f.name, lo, hi-lo, nil, func(werr error) {
			if rerr == nil {
				rerr = werr
			}
			if done != nil {
				done(rerr)
			}
		})
	})
}

// completeEmpty reports a zero-work operation complete through the
// engine, never from inside the issuing call.
func (f *File) completeEmpty(done func(error)) {
	if done != nil {
		f.comm.eng.After(0, func() { done(nil) })
	}
}

// takeViewRange takes up to n blocks at the rank's view position, capped
// at the view's Count, advances the position past them and returns the
// byte range [lo, hi) they span; lo == hi when it takes no block.
func (f *File) takeViewRange(rank int, n int64) (lo, hi int64, err error) {
	if err := f.check(rank); err != nil {
		return 0, 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.view[rank]
	if !ok {
		return 0, 0, fmt.Errorf("mpiio: rank %d has no view on %q", rank, f.name)
	}
	pos := f.offset[rank]
	if v.Count > 0 {
		n = min(n, v.Count-pos)
	}
	if n <= 0 {
		return 0, 0, nil
	}
	f.offset[rank] = pos + n
	lo = v.Disp + pos*v.Stride
	return lo, lo + (n-1)*v.Stride + v.BlockLen, nil
}
