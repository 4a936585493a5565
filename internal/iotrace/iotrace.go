// Package iotrace is the reproduction's IOSIG substitute (paper reference
// [33]): it records every sub-request served by the file servers and
// derives the analyses the paper reports — the DServer/CServer request
// distribution of Table III and access sequentiality.
//
// The recorder stores events in columnar (struct-of-arrays) form: fixed
// size chunks of per-field arrays, with FS and file names interned to
// integer IDs. Recording an event therefore copies a handful of scalars
// instead of an 80-byte struct with two string headers, analyses touch
// only the columns they need, and a live trace costs two map lookups per
// event with no per-event allocation.
package iotrace

import (
	"sort"
	"time"

	"s4dcache/internal/device"
	"s4dcache/internal/pfs"
	"s4dcache/internal/sim"
)

// Chunk geometry: 1<<chunkShift events per chunk. Chunks are allocated
// whole, so recording allocates once per chunkLen events.
const (
	chunkShift = 12
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// chunk is one fixed-size block of the struct-of-arrays event log.
type chunk struct {
	fsID     [chunkLen]uint32
	fileID   [chunkLen]uint32
	server   [chunkLen]int32
	op       [chunkLen]uint8
	pri      [chunkLen]int32
	localOff [chunkLen]int64
	size     [chunkLen]int64
	start    [chunkLen]int64
	end      [chunkLen]int64
}

// Recorder collects trace events from any number of FS instances. Install
// it with Hook() as the pfs.Config.Trace of each instance.
type Recorder struct {
	// Interning tables: label/file strings to dense IDs and back.
	labels  []string
	labelID map[string]uint32
	files   []string
	fileID  map[string]uint32

	chunks []*chunk
	n      int

	// sorted tracks whether End times are nondecreasing in record order.
	// Traces of one virtual clock always are — events are recorded at
	// completion — which turns windowed queries into binary searches.
	// Events that arrive out of End order fall back to full scans and a
	// lazily built End-order permutation.
	sorted  bool
	lastEnd time.Duration
	byEnd   []int32 // cached End-order permutation (valid when len == n)
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		sorted:  true,
		labelID: make(map[string]uint32),
		fileID:  make(map[string]uint32),
	}
}

// Hook returns the trace function to install on a file system.
func (r *Recorder) Hook() pfs.TraceFunc { return r.record }

func (r *Recorder) record(ev pfs.TraceEvent) {
	ci, slot := r.n>>chunkShift, r.n&chunkMask
	if ci == len(r.chunks) {
		r.chunks = append(r.chunks, &chunk{})
	}
	c := r.chunks[ci]
	c.fsID[slot] = intern(r.labelID, &r.labels, ev.FS)
	c.fileID[slot] = intern(r.fileID, &r.files, ev.File)
	c.server[slot] = int32(ev.Server)
	c.op[slot] = uint8(ev.Op)
	c.pri[slot] = int32(ev.Priority)
	c.localOff[slot] = ev.LocalOff
	c.size[slot] = ev.Size
	c.start[slot] = int64(ev.Start)
	c.end[slot] = int64(ev.End)
	if ev.End < r.lastEnd {
		r.sorted = false
	} else {
		r.lastEnd = ev.End
	}
	r.byEnd = r.byEnd[:0] // invalidate the cached permutation
	r.n++
}

func intern(tab map[string]uint32, names *[]string, s string) uint32 {
	if id, ok := tab[s]; ok {
		return id
	}
	id := uint32(len(*names))
	*names = append(*names, s)
	tab[s] = id
	return id
}

// at locates event i in its chunk.
func (r *Recorder) at(i int) (*chunk, int) {
	return r.chunks[i>>chunkShift], i & chunkMask
}

// event reconstructs the i-th event in record order.
func (r *Recorder) event(i int) pfs.TraceEvent {
	c, s := r.at(i)
	return pfs.TraceEvent{
		FS:       r.labels[c.fsID[s]],
		Server:   int(c.server[s]),
		Op:       device.Op(c.op[s]),
		File:     r.files[c.fileID[s]],
		LocalOff: c.localOff[s],
		Size:     c.size[s],
		Priority: sim.Priority(c.pri[s]),
		Start:    time.Duration(c.start[s]),
		End:      time.Duration(c.end[s]),
	}
}

// Events materializes the recorded events in record order. It copies out
// of the columnar log; use the query methods for anything hot.
func (r *Recorder) Events() []pfs.TraceEvent {
	if r.n == 0 {
		return nil
	}
	out := make([]pfs.TraceEvent, r.n)
	for i := range out {
		out[i] = r.event(i)
	}
	return out
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return r.n }

// searchEnd returns the first index whose End is >= t. Valid only when the
// log is sorted by End.
func (r *Recorder) searchEnd(t time.Duration) int {
	return sort.Search(r.n, func(i int) bool {
		c, s := r.at(i)
		return time.Duration(c.end[s]) >= t
	})
}

// endOrder returns event indices sorted (stably) by End time, caching the
// permutation until the next append.
func (r *Recorder) endOrder() []int32 {
	if len(r.byEnd) == r.n {
		return r.byEnd
	}
	idx := r.byEnd[:0]
	for i := 0; i < r.n; i++ {
		idx = append(idx, int32(i))
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ca, sa := r.at(int(idx[a]))
		cb, sb := r.at(int(idx[b]))
		return ca.end[sa] < cb.end[sb]
	})
	r.byEnd = idx
	return idx
}

// Distribution is the request split across FS instances within a window —
// the paper's Table III.
type Distribution struct {
	// Bytes counts payload bytes per FS label.
	Bytes map[string]int64
}

// Distribute tallies events completing in [from, to); a zero `to` means
// no upper bound. On a live (End-sorted) trace the window is located by
// binary search instead of scanning every event.
func (r *Recorder) Distribute(from, to time.Duration) Distribution {
	d := Distribution{Bytes: make(map[string]int64)}
	lo, hi := 0, r.n
	filter := true
	if r.sorted {
		lo = r.searchEnd(from)
		if to > 0 {
			hi = r.searchEnd(to)
		}
		filter = false
	}
	bytes := make([]int64, len(r.labels))
	for i := lo; i < hi; i++ {
		c, s := r.at(i)
		if filter {
			end := time.Duration(c.end[s])
			if end < from || (to > 0 && end >= to) {
				continue
			}
		}
		bytes[c.fsID[s]] += c.size[s]
	}
	for id, label := range r.labels {
		if bytes[id] != 0 {
			d.Bytes[label] = bytes[id]
		}
	}
	return d
}

// ByteShare returns the fraction of bytes served by the given FS label.
func (d Distribution) ByteShare(label string) float64 {
	var total int64
	for _, n := range d.Bytes {
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(d.Bytes[label]) / float64(total)
}

// Sequentiality returns the fraction of sub-requests on the labeled FS
// that continue the previous access on the same (server, file) — the
// metric behind the paper's observation that "DServers mostly see
// sequential requests" once S4D absorbs the random ones.
func (r *Recorder) Sequentiality(label string) float64 {
	id, ok := r.labelID[label]
	if !ok {
		return 0
	}
	type key struct {
		server int32
		file   uint32
	}
	last := make(map[key]int64)
	var seq, total int
	scan := func(i int) {
		c, s := r.at(i)
		if c.fsID[s] != id {
			return
		}
		k := key{server: c.server[s], file: c.fileID[s]}
		if prev, ok := last[k]; ok {
			total++
			if c.localOff[s] == prev {
				seq++
			}
		}
		last[k] = c.localOff[s] + c.size[s]
	}
	if r.sorted {
		// Record order is completion order: replay directly.
		for i := 0; i < r.n; i++ {
			scan(i)
		}
	} else {
		for _, i := range r.endOrder() {
			scan(int(i))
		}
	}
	if total == 0 {
		return 0
	}
	return float64(seq) / float64(total)
}
