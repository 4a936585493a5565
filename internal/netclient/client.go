// Package netclient is the Go client library of the network serve
// frontend (internal/netserve): it dials the server, handshakes a tenant
// namespace, and issues pipelined write/read requests over one connection
// with client-side credit tracking — the client never has more requests in
// flight than the window the server granted at HELLO, so a well-behaved
// client never sees BUSY. Completions arrive out of order and are matched
// back to their calls by request id.
//
// Failure semantics are typed: ErrBusy (server window exceeded — only
// possible when credits are disabled or windows disagree), ErrDraining
// (the server is shutting down gracefully), ErrRejected (malformed
// request), ErrIO (the engine failed the request), and ErrConnClosed
// (the connection died — server crash, drop fault, or Close; every
// in-flight call fails with it). After a connection loss, Reconnect
// re-dials and re-handshakes the same tenant namespace.
package netclient

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"s4dcache/internal/netserve"
)

// Typed failure modes surfaced to callers.
var (
	// ErrBusy is the server's backpressure verdict: the request was refused
	// without queuing. Retry after backoff.
	ErrBusy = errors.New("netclient: server busy")
	// ErrDraining means the server is draining: it completes in-flight
	// requests but admits no new ones.
	ErrDraining = errors.New("netclient: server draining")
	// ErrRejected means the server rejected the request as malformed.
	ErrRejected = errors.New("netclient: request rejected")
	// ErrIO means the engine failed the request.
	ErrIO = errors.New("netclient: server i/o error")
	// ErrConnClosed means the connection died with the request unresolved,
	// or the client is closed/disconnected. Reconnect re-establishes the
	// session.
	ErrConnClosed = errors.New("netclient: connection closed")
)

// Options configures Dial.
type Options struct {
	// Tenant is the namespace handshaked at HELLO; every file name on this
	// connection is scoped to it. Required.
	Tenant string
	// Credits bounds the client's own in-flight requests. 0 adopts the
	// server-granted window (the default and the cooperative mode);
	// negative disables credit tracking entirely, letting callers overrun
	// the server window to observe BUSY backpressure.
	Credits int
	// DialTimeout bounds the TCP connect; 0 means 5s.
	DialTimeout time.Duration
	// WrapConn, if non-nil, wraps the dialed connection (fault injection:
	// faults.Injector.WrapConn). The int is the dial attempt counter.
	WrapConn func(c net.Conn, id int) net.Conn
}

// Call is one asynchronous request. Done receives the call itself exactly
// once when it completes; Err then holds nil or a typed error.
type Call struct {
	Op   uint8
	File string
	Off  int64
	Size int64
	Err  error
	Done chan *Call

	data []byte // write payload (caller-owned until completion)
	buf  []byte // read destination (caller-owned)
	t0   time.Time
}

// Latency returns the wall time from send to completion.
func (c *Call) Latency() time.Duration { return time.Since(c.t0) }

// Client is one tenant session over one TCP connection. Safe for
// concurrent use: any number of goroutines may issue calls. Per
// connection, a single writer goroutine sends every frame queued since
// its last write in one socket write, and a single reader goroutine
// matches completions by id.
type Client struct {
	opts    Options
	addr    string
	payload bool // server is in payload (functional) mode
	window  int  // server-granted per-connection window

	credits chan struct{} // nil when credit tracking is disabled

	mu      sync.Mutex // guards everything below
	nc      net.Conn
	lost    bool
	closed  bool
	gen     int // connection generation, bumps on Reconnect
	dials   int
	nextID  uint64
	pending map[uint64]*Call

	// queue holds the encoded frames the writer has not taken yet; spare
	// is the buffer the writer last wrote, handed back for reuse. kick
	// wakes the writer when queue stops being empty; room wakes callers
	// waiting for a full queue to be taken. Both also fire when the
	// connection goes down.
	queue, spare []byte
	kick, room   sync.Cond
	hdr          [netserve.ReqHdrLen]byte // send's header scratch
}

// bufSize sizes the response read buffer and bounds the send queue: a
// caller waits while bufSize bytes are queued, so one write carries at
// most bufSize bytes plus one frame.
const bufSize = 64 << 10

// Dial connects and handshakes the tenant namespace.
func Dial(addr string, opts Options) (*Client, error) {
	if opts.Tenant == "" {
		return nil, fmt.Errorf("netclient: tenant is required")
	}
	if len(opts.Tenant) > netserve.MaxNameLen {
		return nil, fmt.Errorf("netclient: tenant name too long")
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	c := &Client{opts: opts, addr: addr, pending: make(map[uint64]*Call)}
	c.kick.L = &c.mu
	c.room.L = &c.mu
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// connect dials, handshakes, and starts the reader and writer. Caller
// must not hold mu.
func (c *Client) connect() error {
	nc, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return fmt.Errorf("netclient: dial %s: %w", c.addr, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	c.mu.Lock()
	if c.opts.WrapConn != nil {
		nc = c.opts.WrapConn(nc, c.dials)
	}
	c.dials++
	c.mu.Unlock()

	// HELLO: tenant name, magic and version in the offset/size fields.
	var hdr [netserve.ReqHdrLen]byte
	netserve.PutReqHeader(hdr[:], netserve.ReqHeader{
		ID:      0,
		Op:      netserve.OpHello,
		NameLen: uint16(len(c.opts.Tenant)),
		Off:     netserve.ProtoMagic,
		Size:    netserve.ProtoVersion,
	})
	nc.SetDeadline(time.Now().Add(c.opts.DialTimeout))
	if _, err := nc.Write(append(hdr[:len(hdr):len(hdr)], c.opts.Tenant...)); err != nil {
		nc.Close()
		return fmt.Errorf("netclient: hello: %w", err)
	}
	var rhdr [netserve.RespHdrLen]byte
	if _, err := io.ReadFull(nc, rhdr[:]); err != nil {
		nc.Close()
		return fmt.Errorf("netclient: hello response: %w", err)
	}
	rh := netserve.ParseRespHeader(rhdr[:])
	if rh.Status != netserve.StatusOK {
		nc.Close()
		return fmt.Errorf("netclient: hello refused: %s", netserve.StatusString(rh.Status))
	}
	nc.SetDeadline(time.Time{})

	c.mu.Lock()
	if c.closed {
		// Close ran during the handshake: start no reader or writer.
		c.mu.Unlock()
		nc.Close()
		return ErrConnClosed
	}
	c.nc = nc
	c.lost = false
	c.gen++
	gen := c.gen
	c.window = int(rh.Value)
	c.payload = rh.Flags&netserve.FlagPayload != 0
	c.mu.Unlock()

	// The credit channel is created once, on the first connect: callers may
	// be blocked on it across a Reconnect, and the failure path returns
	// every in-flight credit, so a reconnect never needs to replace it.
	if c.credits == nil && c.opts.Credits >= 0 {
		credits := c.opts.Credits
		if credits == 0 {
			credits = int(rh.Value)
		}
		ch := make(chan struct{}, credits)
		for i := 0; i < credits; i++ {
			ch <- struct{}{}
		}
		c.credits = ch
	}

	go c.readLoop(nc, gen)
	go c.writeLoop(nc, gen)
	return nil
}

// Window returns the server-granted per-connection window.
func (c *Client) Window() int { return c.window }

// PayloadMode reports whether the server carries data bytes on the wire.
func (c *Client) PayloadMode() bool { return c.payload }

// Go issues one asynchronous request: it queues the encoded frame for the
// connection's writer and returns. The returned call completes on its
// Done channel; data (writes) and buf (reads) stay caller-owned and must
// not be mutated until then. Credit tracking blocks here until a slot
// frees, as does a full send queue; a lost connection fails fast with
// ErrConnClosed.
func (c *Client) Go(op uint8, file string, off, size int64, data, buf []byte) *Call {
	call := &Call{Op: op, File: file, Off: off, Size: size, Done: make(chan *Call, 1), data: data, buf: buf}
	if op != netserve.OpWrite && op != netserve.OpRead {
		return c.fail(call, fmt.Errorf("netclient: bad op %d", op))
	}
	if len(file) == 0 || len(file) > netserve.MaxNameLen || off < 0 || size <= 0 || size > netserve.MaxPayload {
		return c.fail(call, fmt.Errorf("netclient: bad request %s %q off=%d size=%d", opString(op), file, off, size))
	}
	if c.credits != nil {
		<-c.credits
	}
	if err := c.send(call); err != nil {
		c.releaseCredit()
		return c.fail(call, err)
	}
	return call
}

func (c *Client) fail(call *Call, err error) *Call {
	call.Err = err
	call.t0 = time.Now()
	call.Done <- call
	return call
}

func (c *Client) releaseCredit() {
	if c.credits != nil {
		select {
		case c.credits <- struct{}{}:
		default:
		}
	}
}

// send registers the call and appends its frame to the send queue,
// waking the writer if the queue was empty.
func (c *Client) send(call *Call) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed || c.lost || c.nc == nil {
			return ErrConnClosed
		}
		if len(c.queue) < bufSize {
			break
		}
		c.room.Wait()
	}
	c.nextID++
	id := c.nextID
	flags := uint8(0)
	carried := int64(0)
	if call.Op == netserve.OpWrite && call.data != nil {
		flags = netserve.FlagPayload
		carried = call.Size
	}
	netserve.PutReqHeader(c.hdr[:], netserve.ReqHeader{
		ID:      id,
		Op:      call.Op,
		Flags:   flags,
		NameLen: uint16(len(call.File)),
		Off:     call.Off,
		Size:    call.Size,
	})
	wasEmpty := len(c.queue) == 0
	c.queue = append(c.queue, c.hdr[:]...)
	c.queue = append(c.queue, call.File...)
	c.queue = append(c.queue, call.data[:carried]...)
	c.pending[id] = call
	call.t0 = time.Now()
	if wasEmpty {
		c.kick.Signal()
	}
	return nil
}

// writeLoop sends the queued frames of connection generation gen: each
// pass takes the whole queue and writes it in a single Write, so frames
// queued while a write is in progress leave together in the next one. A
// failed write fails the connection — every pending call, queued or
// already sent, completes with ErrConnClosed. The loop exits when the
// connection goes down or is replaced.
func (c *Client) writeLoop(nc net.Conn, gen int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for len(c.queue) == 0 && gen == c.gen && !c.lost {
			c.kick.Wait()
		}
		if gen != c.gen || c.lost {
			return
		}
		b := c.queue
		c.queue, c.spare = c.spare[:0], nil
		c.room.Broadcast()
		c.mu.Unlock()
		_, err := nc.Write(b)
		c.mu.Lock()
		if err != nil && gen == c.gen {
			c.failConnLocked()
		}
		if gen != c.gen || c.lost {
			return
		}
		// A buffer a large frame grew past twice the bound is dropped
		// rather than kept for the life of the connection.
		if cap(b) <= 2*bufSize {
			c.spare = b[:0]
		}
	}
}

// readLoop matches responses to pending calls until the connection dies.
// It reads through a bufio.Reader, so one socket read delivers a
// response's header and payload and any later responses the kernel
// already holds. gen guards against a stale reader (pre-Reconnect)
// touching the new session's state.
func (c *Client) readLoop(nc net.Conn, gen int) {
	br := bufio.NewReaderSize(nc, bufSize)
	var hdr [netserve.RespHdrLen]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			break
		}
		h := netserve.ParseRespHeader(hdr[:])
		if h.PayloadLen > netserve.MaxPayload {
			break // no server sends this: the stream cannot be trusted
		}
		c.mu.Lock()
		if gen != c.gen {
			c.mu.Unlock()
			return
		}
		call := c.pending[h.ID]
		delete(c.pending, h.ID)
		c.mu.Unlock()
		var rerr error
		if h.PayloadLen > 0 {
			// Read payload into the call's buffer; drain it when the call is
			// gone (stale id) or the buffer is too small — framing must hold.
			if call != nil && int(h.PayloadLen) <= len(call.buf) {
				_, rerr = io.ReadFull(br, call.buf[:h.PayloadLen])
			} else {
				_, rerr = br.Discard(int(h.PayloadLen))
			}
		}
		if call != nil {
			call.Err = statusErr(h.Status)
			if rerr != nil {
				// The call has left pending, so failing the connection
				// below would not reach it.
				call.Err = ErrConnClosed
			}
			c.releaseCredit()
			call.Done <- call
		}
		if rerr != nil {
			break
		}
	}
	c.mu.Lock()
	if gen == c.gen {
		c.failConnLocked()
	}
	c.mu.Unlock()
}

// failConnLocked marks the connection lost, drops the unsent queue and
// both send buffers, and fails every pending call with ErrConnClosed,
// returning their credits. Caller holds mu.
func (c *Client) failConnLocked() {
	if c.lost {
		return
	}
	c.lost = true
	if c.nc != nil {
		c.nc.Close()
	}
	c.queue, c.spare = nil, nil
	c.kick.Broadcast()
	c.room.Broadcast()
	for id, call := range c.pending {
		delete(c.pending, id)
		call.Err = ErrConnClosed
		c.releaseCredit()
		call.Done <- call
	}
}

func statusErr(status uint8) error {
	switch status {
	case netserve.StatusOK:
		return nil
	case netserve.StatusBusy:
		return ErrBusy
	case netserve.StatusDraining:
		return ErrDraining
	case netserve.StatusBadRequest:
		return ErrRejected
	case netserve.StatusIOError:
		return ErrIO
	default:
		return fmt.Errorf("netclient: unknown status %d", status)
	}
}

func opString(op uint8) string {
	if op == netserve.OpWrite {
		return "write"
	}
	return "read"
}

// Write issues a synchronous write of file[off, off+size). data may be nil
// (performance mode).
func (c *Client) Write(file string, off, size int64, data []byte) error {
	call := c.Go(netserve.OpWrite, file, off, size, data, nil)
	<-call.Done
	return call.Err
}

// Read issues a synchronous read of file[off, off+size) into buf (nil in
// performance mode).
func (c *Client) Read(file string, off, size int64, buf []byte) error {
	call := c.Go(netserve.OpRead, file, off, size, nil, buf)
	<-call.Done
	return call.Err
}

// Reconnect re-dials the server and re-handshakes the tenant namespace
// after a connection loss. Pending calls of the old connection have
// already failed with ErrConnClosed; calls issued after Reconnect returns
// run on the new session. Reconnect may run concurrently with Go/Write/
// Read (they fail fast while the connection is down) but not with itself.
func (c *Client) Reconnect() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrConnClosed
	}
	// Retire the old connection and its reader before handshaking anew.
	c.failConnLocked()
	c.mu.Unlock()
	return c.connect()
}

// Lost reports whether the connection is currently down.
func (c *Client) Lost() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lost || c.nc == nil
}

// Close tears the session down; pending calls fail with ErrConnClosed.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.failConnLocked()
}
