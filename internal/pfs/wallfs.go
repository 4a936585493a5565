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
// the server's busy horizon (a fixed per-op cost plus a bandwidth term)
// and joins the server's due-ordered ring, so concurrent clients overlap
// their waits exactly as they would against real storage — this is what
// the multi-client throughput harness scales against. Priorities do not
// reorder the queue; they choose where a completion runs (see drain).
//
// Completions are always delivered asynchronously (never inline from
// Write/Read), the invariant the concurrent core's locking relies on: a
// busy server's drainer goroutine completes each sub-request once its due
// time has passed, and a request that finishes inside the issuing call
// (zero-size, or every sub-request refused) completes through the clock.
// Crash/restart is modeled with a per-server down flag: while down, new
// sub-requests abort with ErrServerDown and queued ones abort when they
// come due inside the outage.
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
// horizon, the ring and the drainer flag; it is a leaf, never held while
// a completion runs. The fields are grouped by who writes them, each
// group on its own cache lines: the queue (issuers and the drainer), the
// read-mostly identity and down flag, and the home-request state (the
// issuers of requests whose first byte is on this server, and the
// drainers that finish them).
type wallServer struct {
	mu sync.Mutex
	// busyUntil is the server's reserved-service horizon in clock time:
	// each sub-request's service starts at max(now, busyUntil), so due
	// times are non-decreasing and ring order is deadline order.
	busyUntil time.Duration
	ring      subRing
	// draining is set while a drainer goroutine owns the ring; it exits,
	// clearing the flag, when the ring is empty.
	draining bool
	subs     atomic.Uint64
	_        [64]byte

	id     int
	drain  func() // bound once, so starting a drainer does not allocate
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

// wallSub is one queued sub-request: its due time and its request.
type wallSub struct {
	due time.Duration
	j   *wallJoin
}

// subRing is a FIFO of queued sub-requests over a power-of-two buffer.
type subRing struct {
	buf  []wallSub
	head int
	n    int
}

// joinKeep bounds the finished joins a server keeps for reuse.
const joinKeep = 64

// ringKeep is the ring capacity a drainer keeps when it finds the ring
// empty; a burst's larger buffer is dropped so it does not stay live.
const ringKeep = 256

func (r *subRing) push(s wallSub) {
	if r.n == len(r.buf) {
		grown := make([]wallSub, max(16, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = s
	r.n++
}

func (r *subRing) front() *wallSub { return &r.buf[r.head] }

func (r *subRing) pop() wallSub {
	s := r.buf[r.head]
	r.buf[r.head] = wallSub{}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return s
}

// WallConfig assembles a WallFS.
type WallConfig struct {
	// Label names the instance in errors ("OPFS"/"CPFS").
	Label string
	// Layout is the striping function.
	Layout Layout
	// Clock supplies time and the zero-delay completions of requests that
	// finish inside the issuing call. Drainers wait for due times in real
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
		sv.drain = func() { w.drain(sv) }
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
// sub-request completes, with the first sub-request error. A PriorityHigh
// request's done runs on the drainer of the server that completed it
// last, so it must not block: every sub-request queued behind on that
// server waits for it.
func (w *WallFS) Write(file string, off, size int64, pri sim.Priority, data []byte, done func(error)) error {
	return w.issue(true, file, off, size, pri, data, done)
}

// Read issues a striped read of file[off, off+size) into buf (may be nil
// in performance mode).
func (w *WallFS) Read(file string, off, size int64, pri sim.Priority, buf []byte, done func(error)) error {
	return w.issue(false, file, off, size, pri, buf, done)
}

// wallJoin is one request in service: its sub-request count, first error
// and completion, plus what the drainers need to move its payload. Joins
// are recycled (wallServer.free); the split and piece buffers are reused
// with them.
type wallJoin struct {
	w *WallFS
	// n counts queued sub-requests plus one reference the issuing call
	// holds until it has queued them all, so a request whose every
	// sub-request completes before issue returns is finished by issue.
	n    atomic.Int32
	mu   sync.Mutex // guards err until n reaches zero
	err  error
	done func(error)
	low  bool
	home int // server whose free list the join returns to

	write   bool
	file    string
	off     int64
	payload []byte
	pieces  []Piece
	split   []SubRequest
}

// sub drops one reference, recording a sub-request error, and reports
// whether it was the last. The atomic decrement orders every recorded
// error before the last reference's read of err.
func (j *wallJoin) sub(err error) bool {
	if err != nil {
		j.mu.Lock()
		if j.err == nil {
			j.err = err
		}
		j.mu.Unlock()
	}
	return j.n.Add(-1) == 0
}

// finish recycles the finished join and hands its completion back; the
// join must not be touched after.
func (j *wallJoin) finish() (func(error), error) {
	done, err := j.done, j.err
	j.done, j.err, j.file, j.payload = nil, nil, "", nil
	j.pieces = j.pieces[:0]
	sv := &j.w.servers[j.home]
	sv.freeMu.Lock()
	if len(sv.free) < joinKeep {
		sv.free = append(sv.free, j)
	}
	sv.freeMu.Unlock()
	return done, err
}

func (w *WallFS) issue(write bool, file string, off, size int64, pri sim.Priority, payload []byte, done func(error)) error {
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
	}
	j.home = home
	j.done, j.low = done, pri == sim.PriorityLow
	j.write, j.file, j.off = write, file, off
	if w.functional && payload != nil {
		j.payload = payload
		j.pieces = w.layout.AppendPieces(j.pieces[:0], off, size)
	}
	j.split = w.layout.AppendSplit(j.split[:0], off, size)
	j.n.Store(int32(len(j.split)) + 1)
	now := w.clock.Now()
	for _, sub := range j.split {
		sv := &w.servers[sub.Server]
		if sv.down.Load() {
			// Refused at the door. Never the last reference: the issuing
			// call's own is still held.
			sv.aborts.Add(1)
			j.sub(ErrServerDown)
			continue
		}
		hold := w.perOp + time.Duration(float64(sub.Size)/w.bytesPerNs)
		sv.mu.Lock()
		start := max(now, sv.busyUntil)
		sv.busyUntil = start + hold
		sv.ring.push(wallSub{due: start + hold, j: j})
		idle := !sv.draining
		sv.draining = true
		sv.mu.Unlock()
		if idle {
			go sv.drain()
		}
	}
	if j.sub(nil) {
		// Every sub-request finished (or was refused) before issue got
		// here: complete through the clock, never inside Write/Read.
		done, err := j.finish()
		if done != nil {
			w.clock.After(0, func() { done(err) })
		}
	}
	return nil
}

// spinWait is the longest wait a drainer spends yielding the processor
// rather than sleeping: short waits are the common case and a sleep would
// arm a runtime timer and wake late, while long waits (a slow modeled
// device or a deep queue) sleep until spinWait before their due time.
const spinWait = 50 * time.Microsecond

// drain is a server's drainer: it completes queued sub-requests in ring
// (deadline) order, each no earlier than its due time, and exits when the
// ring is empty. The down flag is checked at completion time, so a
// sub-request queued before a crash aborts when it comes due inside the
// outage. Completions run outside mu: a foreground (PriorityHigh)
// request's done runs inline here, a background (PriorityLow) request's
// on its own goroutine, since the Rebuilder's flush and fetch callbacks
// take shard mutexes and commit metadata and would hold up the
// foreground completions queued behind them.
func (w *WallFS) drain(sv *wallServer) {
	sv.mu.Lock()
	for sv.ring.n > 0 {
		if wait := sv.ring.front().due - w.clock.Now(); wait > 0 {
			sv.mu.Unlock()
			if wait > spinWait {
				time.Sleep(wait - spinWait)
			} else {
				runtime.Gosched()
			}
			sv.mu.Lock()
			continue
		}
		j := sv.ring.pop().j
		sv.mu.Unlock()
		w.complete(sv, j)
		sv.mu.Lock()
	}
	sv.draining = false
	if len(sv.ring.buf) > ringKeep {
		sv.ring = subRing{}
	}
	sv.mu.Unlock()
}

// complete finishes one due sub-request of j on the drainer.
func (w *WallFS) complete(sv *wallServer, j *wallJoin) {
	var err error
	if sv.down.Load() {
		// Crashed while the sub-request was in service.
		sv.aborts.Add(1)
		err = ErrServerDown
	} else {
		sv.subs.Add(1)
		if j.payload != nil {
			sv.movePayload(j.write, j.file, j.pieces, j.payload, j.off)
		}
	}
	if !j.sub(err) {
		return
	}
	low := j.low
	done, err := j.finish()
	switch {
	case done == nil:
	case low:
		go done(err)
	default:
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
