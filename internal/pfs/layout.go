// Package pfs implements the parallel file system substrate: files striped
// round-robin with a fixed stripe size across a set of simulated file
// servers, in the manner of PVFS2. Two instances are built per testbed —
// the original PFS (OPFS) over HDD servers and the cache PFS (CPFS) over
// SSD servers (paper §III.A).
package pfs

import (
	"fmt"
)

// Layout is the data distribution function of a striped file: stripe i
// lives on server i mod Servers.
type Layout struct {
	// Servers is the number of file servers (the paper's M or N).
	Servers int
	// StripeSize is the stripe unit in bytes (the paper's str).
	StripeSize int64
}

// Validate reports whether the layout is usable.
func (l Layout) Validate() error {
	if l.Servers <= 0 {
		return fmt.Errorf("pfs: layout needs >=1 server, got %d", l.Servers)
	}
	if l.StripeSize <= 0 {
		return fmt.Errorf("pfs: stripe size must be positive, got %d", l.StripeSize)
	}
	return nil
}

// SubRequest is one server's share of a parallel request. Because the
// distribution is round-robin, each server's share of a contiguous file
// range is a single contiguous extent in the server's local file space.
type SubRequest struct {
	// Server is the index of the serving file server.
	Server int
	// LocalOff is the byte offset within the server-local file.
	LocalOff int64
	// Size is the share in bytes.
	Size int64
}

// Piece is a stripe fragment of a request, used for payload scatter/gather:
// file bytes [FileOff, FileOff+Size) live at server-local
// [LocalOff, LocalOff+Size) on Server.
type Piece struct {
	Server   int
	FileOff  int64
	LocalOff int64
	Size     int64
}

// Split decomposes a contiguous file range into per-server sub-requests.
// The returned slice is ordered by server index and contains only involved
// servers. A zero or negative size yields no sub-requests.
func (l Layout) Split(off, size int64) []SubRequest {
	return l.AppendSplit(nil, off, size)
}

// AppendSplit is Split appending into a caller-supplied buffer, returning
// the extended slice. The serve path in FS.issue reuses one buffer per
// instance, so steady-state request fan-out performs no allocation.
func (l Layout) AppendSplit(dst []SubRequest, off, size int64) []SubRequest {
	if size <= 0 || off < 0 {
		return dst
	}
	m := int64(l.Servers)
	str := l.StripeSize
	first := off / str             // paper's B
	last := (off + size - 1) / str // paper's E, on the last byte actually accessed
	out := dst
	for s := int64(0); s < m; s++ {
		// First and last global stripes owned by server s in [first,last].
		k0 := first + ((s-first%m)+m)%m
		if k0 > last {
			continue
		}
		kl := last - ((last%m-s)+m)%m
		n := (kl-k0)/m + 1
		headTrim := int64(0)
		if k0 == first {
			headTrim = off - first*str
		}
		tailTrim := int64(0)
		if kl == last {
			tailTrim = (last+1)*str - (off + size)
		}
		sub := SubRequest{
			Server:   int(s),
			LocalOff: (k0/m)*str + headTrim,
			Size:     n*str - headTrim - tailTrim,
		}
		if sub.Size > 0 {
			out = append(out, sub)
		}
	}
	return out
}

// Pieces enumerates the stripe fragments of a contiguous file range in file
// order, for payload scatter/gather. It walks every stripe, so callers
// should only use it when a payload actually needs copying.
func (l Layout) Pieces(off, size int64) []Piece {
	return l.AppendPieces(nil, off, size)
}

// AppendPieces is Pieces appending into a caller-supplied buffer, returning
// the extended slice. See AppendSplit for the scratch-buffer contract.
func (l Layout) AppendPieces(dst []Piece, off, size int64) []Piece {
	if size <= 0 || off < 0 {
		return dst
	}
	m := int64(l.Servers)
	str := l.StripeSize
	out := dst
	pos := off
	end := off + size
	for pos < end {
		k := pos / str
		intra := pos % str
		n := str - intra
		if n > end-pos {
			n = end - pos
		}
		out = append(out, Piece{
			Server:   int(k % m),
			FileOff:  pos,
			LocalOff: (k/m)*str + intra,
			Size:     n,
		})
		pos += n
	}
	return out
}

// InvolvedServers returns the paper's m (Eq. 6): the number of distinct
// servers serving the range.
func (l Layout) InvolvedServers(off, size int64) int {
	if size <= 0 {
		return 0
	}
	first := off / l.StripeSize
	last := (off + size - 1) / l.StripeSize
	n := last - first + 1
	if n > int64(l.Servers) {
		return l.Servers
	}
	return int(n)
}

// MaxSubRequest returns the largest per-server share of the range — the
// paper's s_m, which with Eq. 5 determines the parallel transfer time.
func (l Layout) MaxSubRequest(off, size int64) int64 {
	var m int64
	for _, sr := range l.Split(off, size) {
		if sr.Size > m {
			m = sr.Size
		}
	}
	return m
}
