package pfs

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"s4dcache/internal/chunkstore"
	"s4dcache/internal/sim"
)

// WallFS is the wall-clock execution backend of the parallel file system:
// the same striped layout and Write/Read surface as FS, but safe for
// concurrent use from many goroutines and timed against a real clock
// instead of the virtual-time engine. Each server is an FCFS queue, as
// the virtual-time servers are: a sub-request reserves the interval after
// the server's busy horizon (a fixed per-op cost plus a bandwidth term),
// so concurrent clients overlap their waits exactly as they would against
// real storage — this is what the multi-client throughput harness scales
// against. A request is priced by its slowest sub-request: it completes,
// once, no earlier than the latest due time of its sub-requests, on a
// goroutine of its own. Completions of different requests are not
// ordered, and priorities play no part.
//
// Completions are always delivered asynchronously (never inline from
// Write/Read), the invariant the concurrent core's locking relies on: a
// request's goroutine completes it once it is due, and a request that
// finishes inside the issuing call (zero-size, or every sub-request
// refused) completes through the clock. Crash/restart is modeled with a
// per-server down flag: while down, new sub-requests abort with
// ErrServerDown, and an accepted one aborts when its request comes due
// inside the outage.
type WallFS struct {
	label      string
	layout     Layout
	clock      sim.Clock
	functional bool
	perOp      time.Duration
	bytesPerNs float64

	servers []wallServer

	mu      sync.Mutex // guards files and onState
	files   map[string]int64
	onState StateFunc
}

// wallServer is one server's FCFS service queue. mu guards the busy
// horizon; it is a leaf, held only to reserve an interval. The fields are
// grouped by who writes them, each group on its own cache lines: the
// queue (issuers and completing requests), the read-mostly identity and
// down flag, and the home-request state (the issuers of requests whose
// first byte is on this server, and the goroutines that finish them).
type wallServer struct {
	mu sync.Mutex
	// busyUntil is the server's reserved-service horizon in clock time:
	// each sub-request's service starts at max(now, busyUntil), so the
	// horizon is the server's queue.
	busyUntil time.Duration
	subs      atomic.Uint64
	_         [64]byte

	id     int
	down   atomic.Bool
	aborts atomic.Uint64
	_      [64]byte

	// free recycles finished joins homed on this server (the server of a
	// request's first byte), with their buffers: a mutex-guarded list
	// rather than sync.Pool so the steady-state issue path is
	// deterministically allocation-free, under the race detector too, and
	// one list per server rather than per WallFS so concurrent clients
	// do not all contend on it. Joins beyond joinKeep are left to the
	// collector. The request counters sit beside it for the same reason.
	freeMu       sync.Mutex
	free         []*wallJoin
	requests     atomic.Uint64
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	_            [64]byte

	storeMu sync.Mutex // guards stores (functional payload bytes)
	stores  map[string]*chunkstore.Sparse
}

// joinKeep bounds the finished joins a server keeps for reuse.
const joinKeep = 64

// WallConfig assembles a WallFS.
type WallConfig struct {
	// Label names the instance in errors ("OPFS"/"CPFS").
	Label string
	// Layout is the striping function.
	Layout Layout
	// Clock supplies time and the zero-delay completions of requests that
	// finish inside the issuing call. Requests wait for due times in real
	// time, so it must advance with the wall clock: use sim.NewWallClock.
	Clock sim.Clock
	// Functional stores real payload bytes per server; false is
	// performance mode (metadata and timing only).
	Functional bool
	// PerOp is the fixed service time charged per sub-request; 0 means
	// 200µs.
	PerOp time.Duration
	// BytesPerSec is the per-server bandwidth; 0 means 1 GiB/s.
	BytesPerSec int64
}

// NewWallFS builds a wall-clock PFS instance.
func NewWallFS(cfg WallConfig) (*WallFS, error) {
	if err := cfg.Layout.Validate(); err != nil {
		return nil, err
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("pfs: %s: clock is required", cfg.Label)
	}
	if cfg.PerOp <= 0 {
		cfg.PerOp = 200 * time.Microsecond
	}
	if cfg.BytesPerSec <= 0 {
		cfg.BytesPerSec = 1 << 30
	}
	w := &WallFS{
		label:      cfg.Label,
		layout:     cfg.Layout,
		clock:      cfg.Clock,
		functional: cfg.Functional,
		perOp:      cfg.PerOp,
		bytesPerNs: float64(cfg.BytesPerSec) / float64(time.Second),
		servers:    make([]wallServer, cfg.Layout.Servers),
		files:      make(map[string]int64),
	}
	for i := range w.servers {
		sv := &w.servers[i]
		sv.id = i
		sv.stores = make(map[string]*chunkstore.Sparse)
	}
	return w, nil
}

// Label returns the instance label.
func (w *WallFS) Label() string { return w.label }

// StoresPayload reports whether the instance keeps payload bytes
// (functional mode); see FS.StoresPayload.
func (w *WallFS) StoresPayload() bool { return w.functional }

// Layout returns the striping function.
func (w *WallFS) Layout() Layout { return w.layout }

// FileSize returns the current logical size of a file.
func (w *WallFS) FileSize(name string) int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.files[name]
}

// SetStateHook installs the crash/restart observer, called from
// SetServerDown on the transitioning goroutine.
func (w *WallFS) SetStateHook(fn StateFunc) {
	w.mu.Lock()
	w.onState = fn
	w.mu.Unlock()
}

// SetServerDown transitions one server's crash state, notifying the state
// hook. restarts tells the hook whether a down server will come back (the
// fail-stop policy lever).
func (w *WallFS) SetServerDown(id int, down, restarts bool) {
	w.servers[id].down.Store(down)
	w.mu.Lock()
	fn := w.onState
	w.mu.Unlock()
	if fn != nil {
		fn(id, down, restarts)
	}
}

// ServerIsDown reports one server's crash state.
func (w *WallFS) ServerIsDown(id int) bool { return w.servers[id].down.Load() }

// AnyServerDown reports whether any server is down.
func (w *WallFS) AnyServerDown() bool {
	for i := range w.servers {
		if w.servers[i].down.Load() {
			return true
		}
	}
	return false
}

// RangeDown reports whether any server serving [off, off+size) is down.
func (w *WallFS) RangeDown(off, size int64) bool {
	if size <= 0 {
		return false
	}
	first := off / w.layout.StripeSize
	last := (off + size - 1) / w.layout.StripeSize
	n := last - first + 1
	if n >= int64(w.layout.Servers) {
		return w.AnyServerDown()
	}
	for k := first; k <= last; k++ {
		if w.servers[k%int64(w.layout.Servers)].down.Load() {
			return true
		}
	}
	return false
}

// Write issues a striped write of file[off, off+size). data may be nil in
// performance mode. done (optional) runs asynchronously, once, when the
// request's slowest sub-request is due, with the first sub-request error.
// It runs on the request's own goroutine, so a done that blocks delays no
// other request; pri is accepted for the Backend surface and ignored.
func (w *WallFS) Write(file string, off, size int64, pri sim.Priority, data []byte, done func(error)) error {
	return w.issue(true, file, off, size, data, done)
}

// Read issues a striped read of file[off, off+size) into buf (may be nil
// in performance mode).
func (w *WallFS) Read(file string, off, size int64, pri sim.Priority, buf []byte, done func(error)) error {
	return w.issue(false, file, off, size, buf, done)
}

// wallJoin is one request in service: its due time, refusal error and
// completion, plus what its goroutine needs to move the payload. Joins
// are recycled (wallServer.free); the split and piece buffers are reused
// with them.
type wallJoin struct {
	w *WallFS
	// run is serve, bound once when the join is allocated, so starting a
	// request's goroutine does not allocate.
	run func()
	// due is the latest due time of the accepted sub-requests.
	due  time.Duration
	err  error // ErrServerDown if a sub-request was refused at issue
	done func(error)
	home int // server whose free list the join returns to

	write   bool
	file    string
	off     int64
	payload []byte
	pieces  []Piece
	// split holds the accepted sub-requests only.
	split []SubRequest
}

// finish recycles the finished join and hands its completion back; the
// join must not be touched after.
func (j *wallJoin) finish() func(error) {
	done := j.done
	j.done, j.err, j.file, j.payload = nil, nil, "", nil
	j.pieces = j.pieces[:0]
	sv := &j.w.servers[j.home]
	sv.freeMu.Lock()
	if len(sv.free) < joinKeep {
		sv.free = append(sv.free, j)
	}
	sv.freeMu.Unlock()
	return done
}

func (w *WallFS) issue(write bool, file string, off, size int64, payload []byte, done func(error)) error {
	if off < 0 {
		return fmt.Errorf("pfs: %s: negative offset %d", w.label, off)
	}
	if size < 0 {
		return fmt.Errorf("pfs: %s: negative size %d", w.label, size)
	}
	if payload != nil && int64(len(payload)) != size {
		return fmt.Errorf("pfs: %s: payload length %d != size %d", w.label, len(payload), size)
	}
	if size == 0 {
		if done != nil {
			w.clock.After(0, func() { done(nil) })
		}
		return nil
	}
	if write {
		w.mu.Lock()
		if end := off + size; end > w.files[file] {
			w.files[file] = end
		}
		w.mu.Unlock()
	}

	home := int(off / w.layout.StripeSize % int64(len(w.servers)))
	hs := &w.servers[home]
	hs.requests.Add(1)
	if write {
		hs.bytesWritten.Add(size)
	} else {
		hs.bytesRead.Add(size)
	}
	var j *wallJoin
	hs.freeMu.Lock()
	if n := len(hs.free); n > 0 {
		j = hs.free[n-1]
		hs.free[n-1] = nil
		hs.free = hs.free[:n-1]
	}
	hs.freeMu.Unlock()
	if j == nil {
		j = &wallJoin{w: w}
		j.run = j.serve
	}
	j.home = home
	j.done = done
	j.write, j.file, j.off = write, file, off
	if w.functional && payload != nil {
		j.payload = payload
		j.pieces = w.layout.AppendPieces(j.pieces[:0], off, size)
	}
	split := w.layout.AppendSplit(j.split[:0], off, size)
	j.split, j.due = split[:0], 0
	now := w.clock.Now()
	for _, sub := range split {
		sv := &w.servers[sub.Server]
		if sv.down.Load() {
			sv.aborts.Add(1)
			j.err = ErrServerDown
			continue
		}
		hold := w.perOp + time.Duration(float64(sub.Size)/w.bytesPerNs)
		sv.mu.Lock()
		start := max(now, sv.busyUntil)
		sv.busyUntil = start + hold
		sv.mu.Unlock()
		j.due = max(j.due, start+hold)
		j.split = append(j.split, sub)
	}
	if len(j.split) == 0 {
		// Every sub-request was refused: complete through the clock,
		// never inside Write/Read.
		err := j.err
		if done := j.finish(); done != nil {
			w.clock.After(0, func() { done(err) })
		}
		return nil
	}
	go j.run()
	return nil
}

// spinWait is the longest wait a request spends yielding the processor
// rather than sleeping: short waits are the common case and a sleep would
// arm a runtime timer and wake late, while long waits (a slow modeled
// device or a deep queue) sleep until spinWait before their due time.
const spinWait = 50 * time.Microsecond

// serve is a request's goroutine: it waits until the request is due,
// then finishes each accepted sub-request and runs done. The down flags
// are read at completion time, so a sub-request accepted before a crash
// aborts when its request comes due inside the outage.
func (j *wallJoin) serve() {
	w := j.w
	for {
		wait := j.due - w.clock.Now()
		if wait <= 0 {
			break
		}
		if wait > spinWait {
			time.Sleep(wait - spinWait)
		} else {
			runtime.Gosched()
		}
	}
	err := j.err
	for _, sub := range j.split {
		sv := &w.servers[sub.Server]
		if sv.down.Load() {
			// Crashed while the sub-request was in service.
			sv.aborts.Add(1)
			if err == nil {
				err = ErrServerDown
			}
			continue
		}
		sv.subs.Add(1)
		if j.payload != nil {
			sv.movePayload(j.write, j.file, j.pieces, j.payload, j.off)
		}
	}
	if done := j.finish(); done != nil {
		done(err)
	}
}

// movePayload copies this server's stripe pieces between the payload and
// the server-local sparse store at completion time.
func (sv *wallServer) movePayload(write bool, file string, pieces []Piece, payload []byte, reqOff int64) {
	sv.storeMu.Lock()
	defer sv.storeMu.Unlock()
	st := sv.stores[file]
	if st == nil {
		st = chunkstore.NewSparse()
		sv.stores[file] = st
	}
	for _, p := range pieces {
		if p.Server != sv.id {
			continue
		}
		seg := payload[p.FileOff-reqOff : p.FileOff-reqOff+p.Size]
		if write {
			st.WriteAt(seg, p.LocalOff)
		} else {
			st.ReadAt(seg, p.LocalOff)
		}
	}
}

// WallStats is a WallFS activity snapshot.
type WallStats struct {
	Requests     uint64
	SubRequests  uint64
	Aborts       uint64
	BytesRead    int64
	BytesWritten int64
}

// Stats returns aggregated counters across servers.
func (w *WallFS) Stats() WallStats {
	var st WallStats
	for i := range w.servers {
		sv := &w.servers[i]
		st.Requests += sv.requests.Load()
		st.BytesRead += sv.bytesRead.Load()
		st.BytesWritten += sv.bytesWritten.Load()
		st.SubRequests += sv.subs.Load()
		st.Aborts += sv.aborts.Load()
	}
	return st
}
