// Package mpiio is the I/O middleware layer of the reproduction: an
// MPI-IO-like interface with communicators and ranks, independent
// contiguous I/O, strided (vector-datatype) writes by data sieving, and
// two-phase collective writes.
//
// S4D-Cache is positioned as "an augmented module to the MPI-IO library"
// (paper §III.A): every file operation goes through a Transport, and
// plugging core.S4D in as the Transport is exactly the interception the
// paper implements inside MPI_File_{open,read,write,seek,close} (§IV.B).
// A StockTransport routes everything straight to the original PFS,
// providing the paper's baseline ("stock I/O system").
package mpiio

import (
	"fmt"
	"sort"
	"sync"

	"s4dcache/internal/pfs"
	"s4dcache/internal/sim"
)

// Transport serves intercepted file accesses. core.S4D implements it; so
// does StockTransport.
type Transport interface {
	// Read fetches file[off, off+size) for rank. buf may be nil
	// (performance mode). done runs in virtual time at completion,
	// receiving the first I/O error (nil on success).
	Read(rank int, file string, off, size int64, buf []byte, done func(error)) error
	// Write stores file[off, off+size) for rank; data may be nil.
	Write(rank int, file string, off, size int64, data []byte, done func(error)) error
}

// StockTransport is the paper's baseline: all requests go to the original
// parallel file system, at high priority.
type StockTransport struct {
	// FS is the original PFS (HDD DServers).
	FS *pfs.FS
}

var _ Transport = StockTransport{}

// Read implements Transport.
func (t StockTransport) Read(_ int, file string, off, size int64, buf []byte, done func(error)) error {
	return t.FS.Read(file, off, size, sim.PriorityHigh, buf, done)
}

// Write implements Transport.
func (t StockTransport) Write(_ int, file string, off, size int64, data []byte, done func(error)) error {
	return t.FS.Write(file, off, size, sim.PriorityHigh, data, done)
}

// Comm is a communicator: a set of ranks sharing a virtual clock and a
// transport.
type Comm struct {
	eng       *sim.Engine
	size      int
	transport Transport
}

// NewComm builds a communicator of size ranks.
func NewComm(eng *sim.Engine, size int, transport Transport) (*Comm, error) {
	if eng == nil {
		return nil, fmt.Errorf("mpiio: engine is required")
	}
	if size <= 0 {
		return nil, fmt.Errorf("mpiio: communicator size must be positive, got %d", size)
	}
	if transport == nil {
		return nil, fmt.Errorf("mpiio: transport is required")
	}
	return &Comm{eng: eng, size: size, transport: transport}, nil
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.size }

// Engine returns the shared virtual clock.
func (c *Comm) Engine() *sim.Engine { return c.eng }

// File is an open shared file with per-rank views (MPI_File semantics).
// The handle is safe for concurrent use by multiple goroutines driving
// different ranks; each rank's view remains single-owner, as in MPI.
type File struct {
	comm *Comm
	name string

	// mu guards the maps and scalar state below across ranks on different
	// goroutines. offset is each rank's position in its view, in blocks.
	mu     sync.Mutex
	offset map[int]int64
	view   map[int]View
	open   bool
}

// Open opens (or creates) the named shared file on all ranks of the
// communicator. The paper's MPI_File_open additionally opens the cache
// file; in this reproduction the S4D transport owns the cache file, so
// open is metadata-only.
func (c *Comm) Open(name string) *File {
	return &File{
		comm:   c,
		name:   name,
		offset: make(map[int]int64),
		view:   make(map[int]View),
		open:   true,
	}
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Comm returns the communicator the file was opened on.
func (f *File) Comm() *Comm { return f.comm }

// Close marks the handle closed; further I/O fails. Closing an already
// closed file is a no-op (idempotent, like MPI_File_close on a freed
// handle is not — this API is deliberately safer).
func (f *File) Close() error {
	f.mu.Lock()
	f.open = false
	f.mu.Unlock()
	return nil
}

// ReadAt reads at an explicit offset (MPI_File_read_at).
func (f *File) ReadAt(rank int, off, size int64, buf []byte, done func(error)) error {
	if err := f.check(rank); err != nil {
		return err
	}
	return f.comm.transport.Read(rank, f.name, off, size, buf, done)
}

// WriteAt writes at an explicit offset (MPI_File_write_at).
func (f *File) WriteAt(rank int, off, size int64, data []byte, done func(error)) error {
	if err := f.check(rank); err != nil {
		return err
	}
	return f.comm.transport.Write(rank, f.name, off, size, data, done)
}

func (f *File) check(rank int) error {
	f.mu.Lock()
	open := f.open
	f.mu.Unlock()
	if !open {
		return fmt.Errorf("mpiio: file %q is closed", f.name)
	}
	if rank < 0 || rank >= f.comm.size {
		return fmt.Errorf("mpiio: rank %d out of range [0,%d)", rank, f.comm.size)
	}
	return nil
}

// Span is a contiguous file range, the unit of noncontiguous I/O requests.
type Span struct {
	Off, Len int64
}

// mergeSpans sorts and coalesces overlapping or adjacent spans.
func mergeSpans(spans []Span) []Span {
	if len(spans) == 0 {
		return nil
	}
	s := make([]Span, len(spans))
	copy(s, spans)
	sort.Slice(s, func(i, j int) bool { return s[i].Off < s[j].Off })
	out := s[:1]
	for _, sp := range s[1:] {
		last := &out[len(out)-1]
		if sp.Off <= last.Off+last.Len {
			if end := sp.Off + sp.Len; end > last.Off+last.Len {
				last.Len = end - last.Off
			}
			continue
		}
		out = append(out, sp)
	}
	return out
}
