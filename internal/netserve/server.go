package netserve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Engine is the serve surface the frontend dispatches into. core.Concurrent
// satisfies it; done always runs asynchronously with respect to the call
// (the sim.Clock invariant), from an arbitrary goroutine.
type Engine interface {
	Write(rank int, file string, off, size int64, data []byte, done func(error)) error
	Read(rank int, file string, off, size int64, buf []byte, done func(error)) error
}

// Config assembles a Server.
type Config struct {
	// Engine is the concurrent S4D engine requests dispatch into.
	Engine Engine
	// Addr is the TCP listen address; empty means "127.0.0.1:0" (loopback,
	// kernel-chosen port — the bench and test default).
	Addr string
	// Window is the per-connection in-flight request bound granted at
	// HELLO; requests beyond it are answered BUSY, never queued. 0 means 32.
	Window int
	// MaxInFlight bounds in-flight requests across all connections — the
	// server-wide admission budget under connection storms. 0 means
	// unlimited (the per-connection windows still bound each client).
	MaxInFlight int
	// Payload enables functional mode: write payloads are carried on the
	// wire and handed to the engine, reads return data bytes. False is
	// performance mode — frames carry no data, matching the engine's
	// metadata-only stores.
	Payload bool
	// WrapConn, if non-nil, wraps every accepted connection (fault
	// injection: faults.Injector.WrapConn). The int is the connection's
	// serve rank.
	WrapConn func(c net.Conn, id int) net.Conn
}

// Stats is a snapshot of server activity counters.
type Stats struct {
	Accepted    uint64
	Conns       int
	Requests    uint64
	Busy        uint64
	Drained     uint64
	BadRequests uint64
	IOErrors    uint64
	InFlight    int64
}

// Server is the TCP frontend. One goroutine accepts; each connection runs
// a reader goroutine (decode → dispatch) and a writer goroutine (encode →
// socket), so pipelined requests complete out of order and a slow client
// only ever stalls itself.
type Server struct {
	cfg      Config
	ln       net.Listener
	draining atomic.Bool
	closed   atomic.Bool
	global   atomic.Int64

	mu    sync.Mutex
	conns map[int]*sconn
	next  int

	wg sync.WaitGroup

	accepted, requests            atomic.Uint64
	busy, drained                 atomic.Uint64
	badRequests, ioErrors         atomic.Uint64
	writeErrors, protocolAborts   atomic.Uint64
	helloAccepts, payloadRequests atomic.Uint64
}

// Serve starts a server listening on cfg.Addr.
func Serve(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("netserve: engine is required")
	}
	if cfg.Window <= 0 {
		cfg.Window = 32
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("netserve: listen: %w", err)
	}
	s := &Server{cfg: cfg, ln: ln, conns: make(map[int]*sconn)}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address ("127.0.0.1:<port>").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Window returns the per-connection in-flight bound granted at HELLO.
func (s *Server) Window() int { return s.cfg.Window }

// Stats snapshots the activity counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	n := len(s.conns)
	s.mu.Unlock()
	return Stats{
		Accepted:    s.accepted.Load(),
		Conns:       n,
		Requests:    s.requests.Load(),
		Busy:        s.busy.Load(),
		Drained:     s.drained.Load(),
		BadRequests: s.badRequests.Load(),
		IOErrors:    s.ioErrors.Load(),
		InFlight:    s.global.Load(),
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed: drain or shutdown
		}
		if s.draining.Load() || s.closed.Load() {
			nc.Close()
			continue
		}
		s.accepted.Add(1)
		s.mu.Lock()
		id := s.next
		s.next++
		if s.cfg.WrapConn != nil {
			nc = s.cfg.WrapConn(nc, id)
		}
		c := newSConn(s, id, nc)
		s.conns[id] = c
		s.mu.Unlock()
		s.wg.Add(2)
		go c.readLoop()
		go c.writeLoop()
	}
}

// Drain gracefully shuts the server down: stop accepting, answer new
// requests with DRAINING, let every in-flight request complete and its
// response flush, then close the connections. Returns ctx.Err() if the
// context expires first (connections are then closed abruptly).
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.ln.Close()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	var err error
wait:
	for {
		if s.global.Load() == 0 {
			break
		}
		select {
		case <-ctx.Done():
			err = ctx.Err()
			break wait
		case <-tick.C:
		}
	}
	s.closeConns()
	s.wg.Wait()
	s.closed.Store(true)
	return err
}

// Close shuts the server down abruptly: the listener and every connection
// close immediately — the crash half of the crash/drain torture. In-flight
// engine completions are still drained internally (their responses go to
// closed sockets and are discarded).
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.draining.Store(true)
	s.ln.Close()
	s.closeConns()
	s.wg.Wait()
}

func (s *Server) closeConns() {
	s.mu.Lock()
	for _, c := range s.conns {
		c.nc.Close()
	}
	s.mu.Unlock()
}

func (s *Server) removeConn(id int) {
	s.mu.Lock()
	delete(s.conns, id)
	s.mu.Unlock()
}

// request is one in-flight request's context: pooled per connection, its
// buffer carrying first the decoded name+payload and later the encoded
// response. doneFn is bound once at construction so dispatching into the
// engine allocates nothing.
type request struct {
	c      *sconn
	id     uint64
	op     uint8
	status uint8
	flags  uint8
	value  int64
	size   int64 // response payload length (payload-mode reads)

	qual       string // namespaced "tenant|name"
	off        int64
	reqSize    int64
	payloadOff int64 // write payload position inside buf (after the name)
	hasPayload bool
	counted    bool // holds a window slot (in-flight accounting)

	buf    []byte
	done   atomic.Bool
	doneFn func(error)
}

// complete is the engine completion callback (via doneFn). The done guard
// makes it idempotent: an engine path that both returns an error and fires
// the callback cannot double-release the request.
func (r *request) complete(err error) {
	if r.done.Swap(true) {
		return
	}
	if err != nil {
		r.status = StatusIOError
		r.size = 0
		r.c.srv.ioErrors.Add(1)
	} else {
		r.status = StatusOK
	}
	r.c.out <- r
}

// sconn is one accepted connection.
type sconn struct {
	srv *Server
	id  int
	nc  net.Conn
	br  *bufio.Reader

	// out carries completed requests to the writer. Capacity covers the
	// full window plus control responses; when a client floods past its
	// window the reader eventually blocks sending BUSY here, which stops
	// socket reads — TCP backpressure, never an unbounded queue.
	out chan *request

	// free recycles request contexts between writer (release) and reader
	// (acquire); a channel rather than sync.Pool so the steady-state path
	// is deterministically allocation-free.
	free chan *request

	inflight   atomic.Int32
	readerDone atomic.Bool
	finished   atomic.Bool

	tenant string
	names  map[string]string // wire name -> "tenant|name", reader-owned

	// hdr is the reader-owned header scratch; a stack array would escape
	// through the io.ReadFull interface call and cost an allocation per
	// request.
	hdr [ReqHdrLen]byte
}

func newSConn(s *Server, id int, nc net.Conn) *sconn {
	return &sconn{
		srv:  s,
		id:   id,
		nc:   nc,
		br:   bufio.NewReaderSize(nc, 64<<10),
		out:  make(chan *request, s.cfg.Window+8),
		free: make(chan *request, s.cfg.Window+8),
	}
}

func (c *sconn) acquire() *request {
	select {
	case r := <-c.free:
		return r
	default:
		r := &request{c: c}
		r.doneFn = r.complete
		return r
	}
}

func (c *sconn) release(r *request) {
	r.counted = false
	r.flags = 0
	r.value = 0
	r.size = 0
	r.done.Store(false)
	select {
	case c.free <- r:
	default:
	}
}

// respond enqueues a control response (no dispatch, no window slot).
func (c *sconn) respond(r *request, status uint8) {
	r.status = status
	r.done.Store(true)
	c.out <- r
}

// readLoop decodes frames and dispatches them until the connection dies or
// a protocol error aborts it.
func (c *sconn) readLoop() {
	defer c.srv.wg.Done()
	for {
		r, fatal, err := c.readFrame(c.br)
		if err != nil {
			if fatal && r != nil {
				// Protocol error with a response owed: send BAD_REQUEST, then
				// stop reading — the stream can no longer be trusted.
				c.srv.badRequests.Add(1)
				c.srv.protocolAborts.Add(1)
				c.respond(r, StatusBadRequest)
			}
			break
		}
		if r == nil {
			continue // handled inside readFrame (hello response)
		}
		c.dispatch(r)
	}
	c.readerDone.Store(true)
	c.maybeFinish()
}

// readFrame reads and decodes one request: the fixed header, then name and
// payload in a single buffered read into the pooled request buffer. A nil
// error with a nil request means the frame was handled internally (hello);
// fatal marks protocol errors that owe a BAD_REQUEST response before the
// connection closes.
func (c *sconn) readFrame(br *bufio.Reader) (r *request, fatal bool, err error) {
	if _, err := io.ReadFull(br, c.hdr[:]); err != nil {
		return nil, false, err
	}
	h := ParseReqHeader(c.hdr[:])
	r = c.acquire()
	r.id = h.ID
	r.op = h.Op
	if h.NameLen == 0 || int(h.NameLen) > MaxNameLen || h.Size < 0 || h.Size > MaxPayload || h.Off < 0 && h.Op != OpHello {
		return r, true, fmt.Errorf("netserve: bad frame (op=%d nameLen=%d off=%d size=%d)", h.Op, h.NameLen, h.Off, h.Size)
	}
	extra := int64(h.NameLen)
	carried := int64(0)
	if h.Flags&FlagPayload != 0 {
		carried = h.Size
		extra += carried
	}
	// Size the pooled buffer for both the inbound bytes and the outbound
	// response (header + read payload) so no second grow happens later.
	need := extra
	if c.srv.cfg.Payload && h.Op == OpRead {
		if n := int64(RespHdrLen) + h.Size; n > need {
			need = n
		}
	}
	if int64(cap(r.buf)) < need {
		r.buf = make([]byte, need)
	}
	r.buf = r.buf[:cap(r.buf)]
	if _, err := io.ReadFull(br, r.buf[:extra]); err != nil {
		c.release(r)
		return nil, false, err
	}
	nameB := r.buf[:h.NameLen]

	switch h.Op {
	case OpHello:
		if c.tenant != "" || h.Off != ProtoMagic || h.Size != ProtoVersion {
			return r, true, fmt.Errorf("netserve: bad hello")
		}
		c.tenant = string(nameB)
		c.names = make(map[string]string)
		c.srv.helloAccepts.Add(1)
		r.value = int64(c.srv.cfg.Window)
		if c.srv.cfg.Payload {
			r.flags = FlagPayload
		}
		r.op = OpHello
		r.status = StatusOK
		r.done.Store(true)
		c.out <- r
		return nil, false, nil
	case OpWrite, OpRead:
		if c.tenant == "" {
			return r, true, fmt.Errorf("netserve: request before hello")
		}
		if h.Size == 0 || h.Op == OpRead && carried != 0 {
			return r, true, fmt.Errorf("netserve: bad %s frame", opString(h.Op))
		}
		// Qualified-name interning: the map lookup with a []byte key does
		// not allocate; only a connection's first use of a name builds the
		// "tenant|name" string.
		qual, ok := c.names[string(nameB)]
		if !ok {
			qual = TenantName(c.tenant, string(nameB))
			c.names[qual[len(c.tenant)+1:]] = qual
		}
		r.qual = qual
		r.off = h.Off
		r.reqSize = h.Size
		r.payloadOff = int64(h.NameLen)
		r.hasPayload = carried != 0
		return r, false, nil
	default:
		return r, true, fmt.Errorf("netserve: unknown op %d", h.Op)
	}
}

func opString(op uint8) string {
	switch op {
	case OpHello:
		return "hello"
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	default:
		return "op?"
	}
}

// dispatch admits one decoded request into the engine, or answers BUSY /
// DRAINING without dispatching. Window accounting: a slot is held from
// here until the writer is about to put the response on the socket
// (writeResponse), so the bound covers the server-side life of a request
// and a client never holds credit the server has not yet returned.
func (c *sconn) dispatch(r *request) {
	s := c.srv
	s.requests.Add(1)
	if s.draining.Load() {
		s.drained.Add(1)
		c.respond(r, StatusDraining)
		return
	}
	if int(c.inflight.Load()) >= s.cfg.Window {
		s.busy.Add(1)
		c.respond(r, StatusBusy)
		return
	}
	if max := int64(s.cfg.MaxInFlight); max > 0 && s.global.Load() >= max {
		s.busy.Add(1)
		c.respond(r, StatusBusy)
		return
	}
	r.counted = true
	c.inflight.Add(1)
	s.global.Add(1)

	var err error
	switch r.op {
	case OpWrite:
		var data []byte
		if r.hasPayload {
			data = r.buf[r.payloadOff : r.payloadOff+r.reqSize]
			s.payloadRequests.Add(1)
		}
		err = s.cfg.Engine.Write(c.id, r.qual, r.off, r.reqSize, data, r.doneFn)
	case OpRead:
		var buf []byte
		if s.cfg.Payload {
			r.size = r.reqSize
			buf = r.buf[RespHdrLen : RespHdrLen+r.reqSize]
		}
		err = s.cfg.Engine.Read(c.id, r.qual, r.off, r.reqSize, buf, r.doneFn)
	}
	if err != nil {
		// Synchronous rejection (bad range, engine shutting down): complete
		// here; the done guard protects against a late duplicate callback.
		r.complete(err)
	}
}

// writeLoop encodes and writes responses, releases window slots, and
// recycles request contexts. It exits when the reader is done and the last
// in-flight request has been answered; write errors don't stop it — the
// remaining completions still need their accounting drained.
func (c *sconn) writeLoop() {
	defer c.srv.wg.Done()
	for r := range c.out {
		c.writeResponse(r, c.nc)
	}
	c.nc.Close()
	c.srv.removeConn(c.id)
}

// writeResponse encodes one response into the request's own buffer (header
// and any read payload are contiguous, one socket write) and releases the
// request.
func (c *sconn) writeResponse(r *request, w io.Writer) {
	payload := int64(0)
	if r.status == StatusOK && r.op == OpRead && c.srv.cfg.Payload {
		payload = r.size
	}
	need := int64(RespHdrLen) + payload
	if int64(cap(r.buf)) < need {
		r.buf = make([]byte, need)
	}
	b := r.buf[:need]
	PutRespHeader(b, RespHeader{
		ID:         r.id,
		Status:     r.status,
		Flags:      r.flags,
		Value:      r.value,
		PayloadLen: uint32(payload),
	})
	// The window slot is released before the response can become
	// visible: a client that reads it and spends the reclaimed credit at
	// once must find the slot free on a reader running on another core.
	// The global count drops only after the write, so Drain never closes
	// a socket with a response still unwritten.
	counted := r.counted
	if counted {
		c.inflight.Add(-1)
	}
	if _, err := w.Write(b); err != nil {
		c.srv.writeErrors.Add(1)
	}
	c.release(r)
	if counted {
		c.srv.global.Add(-1)
		c.maybeFinish()
	}
}

// maybeFinish closes the response channel once the reader has exited and
// the last in-flight request has reached the writer — the only state in
// which no goroutine can still send on out. The writer may still be
// writing that last response; it drains the closed channel before it
// closes the socket. Exactly one caller wins the swap.
func (c *sconn) maybeFinish() {
	if c.readerDone.Load() && c.inflight.Load() == 0 && !c.finished.Swap(true) {
		close(c.out)
	}
}
