package pfs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"s4dcache/internal/chunkstore"
	"s4dcache/internal/sim"
)

// WallFS is the wall-clock execution backend of the parallel file system:
// the same striped layout and Write/Read surface as FS, but safe for
// concurrent use from many goroutines and timed against a real clock
// instead of the virtual-time engine. Each server charges a modeled
// service time per sub-request (a fixed per-op cost plus a bandwidth
// term) by reserving an interval on its atomically-advanced busy horizon,
// so concurrent clients overlap their waits exactly as they would against
// real storage — this is what the multi-client throughput harness scales
// against. Priorities are accepted for interface compatibility but the
// queue is FCFS.
//
// Completions are always delivered asynchronously via the clock (never
// inline from Write/Read), the invariant the concurrent core's locking
// relies on. Crash/restart is modeled with a per-server down flag: while
// down, new sub-requests abort with ErrServerDown and in-flight ones
// abort when their timer fires inside the outage.
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

	requests     atomic.Uint64
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
}

type wallServer struct {
	// busyUntil is the server's reserved-service horizon in clock
	// nanoseconds; sub-requests CAS-extend it to claim their slot.
	busyUntil atomic.Int64
	down      atomic.Bool

	subs   atomic.Uint64
	aborts atomic.Uint64

	mu     sync.Mutex // guards stores (functional payload bytes)
	stores map[string]*chunkstore.Sparse
}

// WallConfig assembles a WallFS.
type WallConfig struct {
	// Label names the instance in errors ("OPFS"/"CPFS").
	Label string
	// Layout is the striping function.
	Layout Layout
	// Clock supplies time and timers; use sim.NewWallClock for real
	// concurrency (the virtual Engine also satisfies the interface but is
	// not goroutine-safe).
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
		w.servers[i].stores = make(map[string]*chunkstore.Sparse)
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
// performance mode. done (optional) runs asynchronously when every
// sub-request completes, with the first sub-request error.
func (w *WallFS) Write(file string, off, size int64, pri sim.Priority, data []byte, done func(error)) error {
	return w.issue(true, file, off, size, data, done)
}

// Read issues a striped read of file[off, off+size) into buf (may be nil
// in performance mode).
func (w *WallFS) Read(file string, off, size int64, pri sim.Priority, buf []byte, done func(error)) error {
	return w.issue(false, file, off, size, buf, done)
}

// wallJoin joins one request's sub-completions, retaining the first error.
type wallJoin struct {
	n    atomic.Int32
	mu   sync.Mutex
	err  error
	done func(error)
}

func (j *wallJoin) sub(err error) {
	if err != nil {
		j.mu.Lock()
		if j.err == nil {
			j.err = err
		}
		j.mu.Unlock()
	}
	if j.n.Add(-1) == 0 {
		j.mu.Lock()
		err := j.err
		j.mu.Unlock()
		if j.done != nil {
			j.done(err)
		}
	}
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
		w.clock.After(0, func() {
			if done != nil {
				done(nil)
			}
		})
		return nil
	}
	w.requests.Add(1)
	if write {
		w.bytesWritten.Add(size)
		w.mu.Lock()
		if end := off + size; end > w.files[file] {
			w.files[file] = end
		}
		w.mu.Unlock()
	} else {
		w.bytesRead.Add(size)
	}

	subs := w.layout.Split(off, size)
	var pieces []Piece
	if w.functional && payload != nil {
		pieces = w.layout.Pieces(off, size)
	}
	j := &wallJoin{done: done}
	j.n.Store(int32(len(subs)))
	now := w.clock.Now()
	for _, sub := range subs {
		sub := sub
		sv := &w.servers[sub.Server]
		if sv.down.Load() {
			// Refused at the door — still delivered asynchronously, the
			// invariant the concurrent core's failover handlers rely on.
			sv.aborts.Add(1)
			w.clock.After(0, func() { j.sub(ErrServerDown) })
			continue
		}
		hold := w.perOp + time.Duration(float64(sub.Size)/w.bytesPerNs)
		delay := sv.reserve(now, hold)
		w.clock.After(delay, func() {
			if sv.down.Load() {
				// Crashed while the sub-request was in service.
				sv.aborts.Add(1)
				j.sub(ErrServerDown)
				return
			}
			sv.subs.Add(1)
			if pieces != nil {
				sv.movePayload(write, file, pieces, payload, off, sub.Server)
			}
			j.sub(nil)
		})
	}
	return nil
}

// reserve claims a hold-long service slot on the server's busy horizon and
// returns the delay from now until the slot completes. Lock-free: a CAS
// loop extends the horizon, so concurrent clients serialize their service
// intervals without queue structures.
func (sv *wallServer) reserve(now, hold time.Duration) time.Duration {
	for {
		b := sv.busyUntil.Load()
		start := int64(now)
		if b > start {
			start = b
		}
		end := start + int64(hold)
		if sv.busyUntil.CompareAndSwap(b, end) {
			return time.Duration(end) - now
		}
	}
}

// movePayload copies this server's stripe pieces between the payload and
// the server-local sparse store at completion time.
func (sv *wallServer) movePayload(write bool, file string, pieces []Piece, payload []byte, reqOff int64, server int) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	st := sv.stores[file]
	if st == nil {
		st = chunkstore.NewSparse()
		sv.stores[file] = st
	}
	for _, p := range pieces {
		if p.Server != server {
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
	st := WallStats{
		Requests:     w.requests.Load(),
		BytesRead:    w.bytesRead.Load(),
		BytesWritten: w.bytesWritten.Load(),
	}
	for i := range w.servers {
		st.SubRequests += w.servers[i].subs.Load()
		st.Aborts += w.servers[i].aborts.Load()
	}
	return st
}
