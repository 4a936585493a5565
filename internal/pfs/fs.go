package pfs

import (
	"fmt"
	"time"

	"s4dcache/internal/chunkstore"
	"s4dcache/internal/device"
	"s4dcache/internal/faults"
	"s4dcache/internal/netmodel"
	"s4dcache/internal/sim"
)

// TraceEvent describes one completed sub-request at a file server. The
// iotrace package aggregates these into the paper's IOSIG-style analyses
// (request distribution, sequentiality).
type TraceEvent struct {
	// FS is the label of the file system instance ("OPFS" / "CPFS").
	FS string
	// Server is the serving server's index.
	Server int
	// Op is the access direction.
	Op device.Op
	// File is the file name within the FS.
	File string
	// LocalOff and Size locate the sub-request in server-local file space.
	LocalOff int64
	Size     int64
	// Priority is the service class the sub-request ran at.
	Priority sim.Priority
	// Start and End are the service interval in virtual time.
	Start, End time.Duration
}

// TraceFunc receives sub-request completions. Failed sub-requests are not
// traced: the trace records served I/O.
type TraceFunc func(TraceEvent)

// StateFunc observes server crash/restart transitions. restarts reports
// whether the crash has a scheduled restart (meaningful when down is true).
type StateFunc func(server int, down, restarts bool)

// Config assembles a file system instance.
type Config struct {
	// Label names the instance in traces and stats ("OPFS", "CPFS").
	Label string
	// Layout is the striping function.
	Layout Layout
	// Engine is the virtual clock shared by the whole testbed.
	Engine *sim.Engine
	// NewDevice constructs the storage device of server i.
	NewDevice func(i int) device.Device
	// NewStore constructs the payload store of server i. Nil defaults to
	// metadata-only Null stores.
	NewStore func(i int) chunkstore.Store
	// Net is the per-server network link model.
	Net netmodel.Params
	// Trace, if non-nil, observes every sub-request completion.
	Trace TraceFunc
	// Faults, if non-nil, injects this instance's share of the fault plan:
	// per-server transient-error streams and crash/restart schedules.
	Faults *faults.Injector
}

// FS is the client view of one parallel file system instance.
type FS struct {
	label   string
	eng     *sim.Engine
	layout  Layout
	servers []*Server
	files   map[string]int64
	trace   TraceFunc
	onState StateFunc
	faulty  bool
	payload bool // some server's store keeps payload bytes

	// subsBuf is the reusable fan-out buffer of issue(). Serve calls never
	// nest (sub-request completions run from engine events, never from
	// inside issue's loop), so one buffer per instance is safe.
	subsBuf []SubRequest
	// reqPool and subPool are free lists of per-request and per-sub-request
	// contexts. Contexts live until their completions run in virtual time,
	// so in-flight entries are simply absent from the pool; steady-state
	// traffic recycles instead of allocating.
	reqPool []*request
	subPool []*subCall

	requests     uint64
	bytesRead    int64
	bytesWritten int64
}

// request is the pooled context of one parallel request in flight: the
// fields every sub-request completion needs, plus the join latch counting
// them down. The completion closure is bound once per pooled object, so
// steady-state requests allocate nothing.
type request struct {
	fs       *FS
	op       device.Op
	file     string
	pri      sim.Priority
	reqOff   int64
	payload  []byte
	err      error
	done     func(error)
	pieces   []Piece // reused stripe-fragment scratch (functional mode)
	join     sim.Join
	finishFn func() // bound to finish once, at first allocation
}

// finish runs when the slowest sub-request completes: recycle the context,
// then notify the caller with the first sub-request error (nil on success).
func (r *request) finish() {
	fs, done, err := r.fs, r.done, r.err
	r.done, r.payload, r.file, r.err = nil, nil, "", nil
	fs.reqPool = append(fs.reqPool, r)
	if done != nil {
		done(err)
	}
}

// subCall is the pooled context of one sub-request in flight. Its server
// payload buffer is recycled with it, so functional-mode scatter/gather
// reuses buffers instead of allocating one per sub-request.
type subCall struct {
	req        *request
	sub        SubRequest
	server     []byte
	completeFn func(start, end time.Duration, err error) // bound to complete once
}

// complete is the sub-request completion: scatter read payloads, emit the
// trace event, recycle, and count down the request join. Errors are
// recorded on the request (first error wins); failed reads scatter nothing.
func (sc *subCall) complete(start, end time.Duration, err error) {
	req := sc.req
	fs := req.fs
	if err != nil {
		if req.err == nil {
			req.err = err
		}
	} else {
		if req.op == device.OpRead && req.payload != nil {
			scatterPayload(req.payload, sc.sub, req.pieces, sc.server[:sc.sub.Size], req.reqOff)
		}
		if fs.trace != nil {
			fs.trace(TraceEvent{
				FS: fs.label, Server: sc.sub.Server, Op: req.op, File: req.file,
				LocalOff: sc.sub.LocalOff, Size: sc.sub.Size, Priority: req.pri,
				Start: start, End: end,
			})
		}
	}
	join := &req.join
	sc.req = nil
	fs.subPool = append(fs.subPool, sc)
	join.Done() // may recycle req via finish; sc no longer references it
}

func (fs *FS) getRequest() *request {
	if n := len(fs.reqPool); n > 0 {
		r := fs.reqPool[n-1]
		fs.reqPool = fs.reqPool[:n-1]
		return r
	}
	r := &request{fs: fs}
	r.finishFn = r.finish
	return r
}

func (fs *FS) getSub() *subCall {
	if n := len(fs.subPool); n > 0 {
		sc := fs.subPool[n-1]
		fs.subPool = fs.subPool[:n-1]
		return sc
	}
	sc := &subCall{}
	sc.completeFn = sc.complete
	return sc
}

// New builds a file system with cfg.Layout.Servers servers.
func New(cfg Config) (*FS, error) {
	if err := cfg.Layout.Validate(); err != nil {
		return nil, err
	}
	if cfg.Engine == nil {
		return nil, fmt.Errorf("pfs: %s: engine is required", cfg.Label)
	}
	if cfg.NewDevice == nil {
		return nil, fmt.Errorf("pfs: %s: NewDevice is required", cfg.Label)
	}
	newStore := cfg.NewStore
	if newStore == nil {
		newStore = func(int) chunkstore.Store { return chunkstore.NewNull() }
	}
	fs := &FS{
		label:  cfg.Label,
		eng:    cfg.Engine,
		layout: cfg.Layout,
		files:  make(map[string]int64),
		trace:  cfg.Trace,
	}
	fs.servers = make([]*Server, cfg.Layout.Servers)
	for i := range fs.servers {
		st := newStore(i)
		if _, null := st.(*chunkstore.Null); !null {
			fs.payload = true
		}
		fs.servers[i] = NewServer(i, cfg.Engine, cfg.NewDevice(i), st, cfg.Net)
	}
	if cfg.Faults != nil {
		fs.faulty = true
		for i, s := range fs.servers {
			s.faults = cfg.Faults.ForServer(cfg.Label, i)
			s.maxRetries = cfg.Faults.MaxRetries()
			fs.scheduleCrashes(i, cfg.Faults.CrashesFor(cfg.Label, i))
		}
	}
	return fs, nil
}

// scheduleCrashes installs one server's crash/restart schedule on the
// engine. The down-event runs at the crash instant — before any aborted
// completion arrives — so state observers see post-crash state first.
func (fs *FS) scheduleCrashes(server int, crashes []faults.Crash) {
	for _, c := range crashes {
		c := c
		fs.eng.At(c.At, func() {
			fs.setServerDown(server, true, c.Restarts())
			if c.Restarts() {
				fs.eng.After(c.Down, func() {
					fs.setServerDown(server, false, false)
				})
			}
		})
	}
}

// setServerDown flips one server's crash state and notifies the observer.
func (fs *FS) setServerDown(server int, down, restarts bool) {
	fs.servers[server].setDown(down)
	if fs.onState != nil {
		fs.onState(server, down, restarts)
	}
}

// SetStateHook installs the crash/restart observer (core's degraded-mode
// entry point). Install before driving the engine; crash events consult it
// at fire time.
func (fs *FS) SetStateHook(fn StateFunc) { fs.onState = fn }

// Faulty reports whether a fault plan is installed on this instance.
func (fs *FS) Faulty() bool { return fs.faulty }

// StoresPayload reports whether any server keeps payload bytes. When none
// does (metadata-only Null stores), callers may pass nil payload buffers:
// service times and the FS's byte counters are the same either way.
func (fs *FS) StoresPayload() bool { return fs.payload }

// ServerIsDown reports whether server id is currently crashed.
func (fs *FS) ServerIsDown(id int) bool { return fs.servers[id].Down() }

// AnyServerDown reports whether at least one server is crashed.
func (fs *FS) AnyServerDown() bool {
	for _, s := range fs.servers {
		if s.Down() {
			return true
		}
	}
	return false
}

// RangeDown reports whether any server involved in serving file range
// [off, off+size) is currently crashed.
func (fs *FS) RangeDown(off, size int64) bool {
	if size <= 0 {
		return false
	}
	m := int64(fs.layout.Servers)
	str := fs.layout.StripeSize
	first := off / str
	last := (off + size - 1) / str
	if last-first+1 >= m {
		return fs.AnyServerDown()
	}
	for k := first; k <= last; k++ {
		if fs.servers[k%m].Down() {
			return true
		}
	}
	return false
}

// Label returns the instance label.
func (fs *FS) Label() string { return fs.label }

// Layout returns the striping function.
func (fs *FS) Layout() Layout { return fs.layout }

// Servers returns the server list (do not mutate).
func (fs *FS) Servers() []*Server { return fs.servers }

// Engine returns the shared virtual clock.
func (fs *FS) Engine() *sim.Engine { return fs.eng }

// FileSize returns the current logical size of a file (0 if absent).
func (fs *FS) FileSize(name string) int64 { return fs.files[name] }

// Files returns the number of known files.
func (fs *FS) Files() int { return len(fs.files) }

// Write schedules a parallel write of [off, off+size) of file. data may be
// nil (performance mode); if non-nil it must hold exactly size bytes. done
// (optional) runs in virtual time when the slowest sub-request completes,
// receiving the first sub-request error (nil on success).
func (fs *FS) Write(file string, off, size int64, pri sim.Priority, data []byte, done func(error)) error {
	if err := fs.checkRange(off, size, data); err != nil {
		return err
	}
	if end := off + size; end > fs.files[file] {
		fs.files[file] = end
	}
	fs.requests++
	fs.bytesWritten += size
	fs.issue(device.OpWrite, file, off, size, pri, data, done)
	return nil
}

// Read schedules a parallel read of [off, off+size) of file. buf may be nil
// (performance mode); if non-nil it must hold exactly size bytes and is
// filled by completion time. Reading past EOF yields zeros, like a sparse
// file.
func (fs *FS) Read(file string, off, size int64, pri sim.Priority, buf []byte, done func(error)) error {
	if err := fs.checkRange(off, size, buf); err != nil {
		return err
	}
	fs.requests++
	fs.bytesRead += size
	fs.issue(device.OpRead, file, off, size, pri, buf, done)
	return nil
}

func (fs *FS) checkRange(off, size int64, payload []byte) error {
	if off < 0 {
		return fmt.Errorf("pfs: %s: negative offset %d", fs.label, off)
	}
	if size < 0 {
		return fmt.Errorf("pfs: %s: negative size %d", fs.label, size)
	}
	if payload != nil && int64(len(payload)) != size {
		return fmt.Errorf("pfs: %s: payload length %d != size %d", fs.label, len(payload), size)
	}
	return nil
}

func (fs *FS) issue(op device.Op, file string, off, size int64, pri sim.Priority, payload []byte, done func(error)) {
	fs.subsBuf = fs.layout.AppendSplit(fs.subsBuf[:0], off, size)
	subs := fs.subsBuf
	if len(subs) == 0 {
		// Zero-size request: complete immediately in virtual time.
		if done != nil {
			fs.eng.After(0, func() { done(nil) })
		}
		return
	}
	if done == nil && payload == nil && fs.trace == nil {
		// Nothing observes completion: no context, no join, no closures.
		for _, sub := range subs {
			fs.servers[sub.Server].serve(op, file, sub.LocalOff, sub.Size, pri, nil, nil)
		}
		return
	}
	req := fs.getRequest()
	req.op, req.file, req.pri, req.reqOff = op, file, pri, off
	req.payload, req.done, req.err = payload, done, nil
	if payload != nil {
		req.pieces = fs.layout.AppendPieces(req.pieces[:0], off, size)
	}
	req.join.Reset(len(subs), req.finishFn)
	for _, sub := range subs {
		sc := fs.getSub()
		sc.req = req
		sc.sub = sub
		var serverPayload []byte
		if payload != nil {
			sc.server = growPayload(sc.server, sub.Size)
			serverPayload = sc.server
			if op == device.OpWrite {
				gatherPayload(serverPayload, sub, req.pieces, payload, off)
			}
		}
		fs.servers[sub.Server].serve(op, file, sub.LocalOff, sub.Size, pri, serverPayload, sc.completeFn)
	}
}

// growPayload returns buf resliced to n bytes, reallocating only when the
// pooled capacity is insufficient. Callers (the serve path) fully overwrite
// the buffer: writes gather every piece, reads are zero-filled by the store.
func growPayload(buf []byte, n int64) []byte {
	if int64(cap(buf)) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// gatherPayload assembles the contiguous server-local payload of sub from
// the request payload using the stripe pieces.
func gatherPayload(dst []byte, sub SubRequest, pieces []Piece, payload []byte, reqOff int64) {
	for _, p := range pieces {
		if p.Server != sub.Server {
			continue
		}
		copy(dst[p.LocalOff-sub.LocalOff:p.LocalOff-sub.LocalOff+p.Size], payload[p.FileOff-reqOff:p.FileOff-reqOff+p.Size])
	}
}

// scatterPayload distributes a server-local read buffer back into the
// request payload.
func scatterPayload(payload []byte, sub SubRequest, pieces []Piece, src []byte, reqOff int64) {
	for _, p := range pieces {
		if p.Server != sub.Server {
			continue
		}
		copy(payload[p.FileOff-reqOff:p.FileOff-reqOff+p.Size], src[p.LocalOff-sub.LocalOff:p.LocalOff-sub.LocalOff+p.Size])
	}
}

// Stats is a point-in-time snapshot of FS activity.
type Stats struct {
	Label        string
	Requests     uint64
	SubRequests  uint64
	BytesRead    int64
	BytesWritten int64
	Files        int
	// Retries counts transient-error re-submissions across all servers.
	Retries uint64
	// IOErrors counts sub-requests failed after the retry budget.
	IOErrors uint64
	// Aborts counts sub-requests refused or lost to a crashed server.
	Aborts uint64
	// Downtime is the summed per-server crashed time.
	Downtime time.Duration
}

// Stats returns a snapshot of the instance's counters.
func (fs *FS) Stats() Stats {
	st := Stats{
		Label:        fs.label,
		Requests:     fs.requests,
		BytesRead:    fs.bytesRead,
		BytesWritten: fs.bytesWritten,
		Files:        len(fs.files),
	}
	for _, s := range fs.servers {
		st.SubRequests += s.subRequests
		st.Retries += s.retries
		st.IOErrors += s.ioErrors
		st.Aborts += s.aborts
		st.Downtime += s.Downtime()
	}
	return st
}
