package netclient

import (
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s4dcache/internal/netserve"
)

// recEngine completes every request at once and records the (namespaced)
// file names it was asked about.
type recEngine struct {
	mu    sync.Mutex
	files []string
}

func (e *recEngine) Write(rank int, file string, off, size int64, data []byte, done func(error)) error {
	return e.record(file, done)
}

func (e *recEngine) Read(rank int, file string, off, size int64, buf []byte, done func(error)) error {
	return e.record(file, done)
}

func (e *recEngine) record(file string, done func(error)) error {
	e.mu.Lock()
	e.files = append(e.files, file)
	e.mu.Unlock()
	go done(nil)
	return nil
}

func (e *recEngine) seen() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.files...)
}

func serve(t *testing.T, cfg netserve.Config) *netserve.Server {
	t.Helper()
	var (
		srv *netserve.Server
		err error
	)
	// Rebinding a just-closed address may need a moment.
	for attempt := 0; attempt < 50; attempt++ {
		if srv, err = netserve.Serve(cfg); err == nil {
			t.Cleanup(srv.Close)
			return srv
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(err)
	return nil
}

// TestStatusErr pins the status → typed error mapping callers branch on.
func TestStatusErr(t *testing.T) {
	for status, want := range map[uint8]error{
		netserve.StatusOK:         nil,
		netserve.StatusBusy:       ErrBusy,
		netserve.StatusDraining:   ErrDraining,
		netserve.StatusBadRequest: ErrRejected,
		netserve.StatusIOError:    ErrIO,
	} {
		if got := statusErr(status); got != want {
			t.Errorf("status %s: got %v, want %v", netserve.StatusString(status), got, want)
		}
	}
	err := statusErr(0xee)
	if err == nil {
		t.Fatal("unknown status mapped to success")
	}
	for _, typed := range []error{ErrBusy, ErrDraining, ErrRejected, ErrIO, ErrConnClosed} {
		if errors.Is(err, typed) {
			t.Fatalf("unknown status: got %v, want an untyped error", err)
		}
	}
}

// TestGoAfterClose: a closed client fails every new call fast with
// ErrConnClosed — asynchronous and synchronous alike — and refuses to
// reconnect.
func TestGoAfterClose(t *testing.T) {
	srv := serve(t, netserve.Config{Engine: &recEngine{}})
	cl, err := Dial(srv.Addr(), Options{Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Write("f", 0, 4096, nil); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	call := cl.Go(netserve.OpRead, "f", 0, 4096, nil, nil)
	select {
	case <-call.Done:
	case <-time.After(5 * time.Second):
		t.Fatal("Go after Close did not complete")
	}
	if !errors.Is(call.Err, ErrConnClosed) {
		t.Fatalf("Go after Close: got %v, want ErrConnClosed", call.Err)
	}
	if err := cl.Write("f", 0, 4096, nil); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("Write after Close: got %v, want ErrConnClosed", err)
	}
	if err := cl.Reconnect(); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("Reconnect after Close: got %v, want ErrConnClosed", err)
	}
}

// TestReconnectRehandshakes: after the server restarts on the same
// address, the lost session fails fast, and Reconnect handshakes anew —
// the new server's window is adopted and requests land in the same
// tenant namespace.
func TestReconnectRehandshakes(t *testing.T) {
	first := &recEngine{}
	srv := serve(t, netserve.Config{Engine: first, Window: 8})
	addr := srv.Addr()
	cl, err := Dial(addr, Options{Tenant: "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Write("f", 0, 4096, nil); err != nil {
		t.Fatal(err)
	}

	srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for !cl.Lost() {
		if time.Now().After(deadline) {
			t.Fatal("client did not notice the server going away")
		}
		time.Sleep(time.Millisecond)
	}
	if err := cl.Write("f", 0, 4096, nil); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("write on a lost connection: got %v, want ErrConnClosed", err)
	}

	second := &recEngine{}
	serve(t, netserve.Config{Engine: second, Addr: addr, Window: 4})
	if err := cl.Reconnect(); err != nil {
		t.Fatal(err)
	}
	if cl.Lost() || cl.Window() != 4 {
		t.Fatalf("after reconnect: lost=%v window=%d, want false/4", cl.Lost(), cl.Window())
	}
	if err := cl.Read("f", 0, 4096, nil); err != nil {
		t.Fatal(err)
	}
	want := netserve.TenantName("alpha", "f")
	for _, e := range []*recEngine{first, second} {
		if got := e.seen(); len(got) != 1 || got[0] != want {
			t.Fatalf("engine saw %q, want [%q]", got, want)
		}
	}
}

// parkConn parks the client's writer inside its at-th Write until release
// is closed; the parked write then fails when fail is set (no byte sent)
// and goes through otherwise. It records the size of every Write.
type parkConn struct {
	net.Conn
	at      int32
	fail    bool
	writes  atomic.Int32
	parked  chan struct{}
	release chan struct{}
	once    sync.Once

	mu    sync.Mutex
	sizes []int
}

func (p *parkConn) unpark() { p.once.Do(func() { close(p.release) }) }

func newParkConn(at int32, fail bool) *parkConn {
	return &parkConn{at: at, fail: fail, parked: make(chan struct{}), release: make(chan struct{})}
}

func (p *parkConn) Write(b []byte) (int, error) {
	p.mu.Lock()
	p.sizes = append(p.sizes, len(b))
	p.mu.Unlock()
	if p.writes.Add(1) == p.at {
		close(p.parked)
		<-p.release
		if p.fail {
			return 0, errors.New("injected write failure")
		}
	}
	return p.Conn.Write(b)
}

func (p *parkConn) writeSizes() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]int(nil), p.sizes...)
}

// dialParked dials srv with every client write going through park. Write
// 1 is the HELLO, so at 2 parks the first request's write.
func dialParked(t *testing.T, srv *netserve.Server, park *parkConn) *Client {
	t.Helper()
	cl, err := Dial(srv.Addr(), Options{Tenant: "t", WrapConn: func(c net.Conn, _ int) net.Conn {
		park.Conn = c
		return park
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		park.unpark()
		cl.Close()
	})
	return cl
}

// TestWriterBatchesQueuedFrames: frames issued while the writer is inside
// a write leave together in its next single Write.
func TestWriterBatchesQueuedFrames(t *testing.T) {
	const n = 6
	srv := serve(t, netserve.Config{Engine: &recEngine{}})
	park := newParkConn(2, false)
	cl := dialParked(t, srv, park)

	first := cl.Go(netserve.OpWrite, "f", 0, 4096, nil, nil)
	<-park.parked
	calls := []*Call{first}
	for i := 1; i <= n; i++ {
		calls = append(calls, cl.Go(netserve.OpWrite, "f", int64(i)*4096, 4096, nil, nil))
	}
	park.unpark()
	for _, c := range calls {
		<-c.Done
		if c.Err != nil {
			t.Fatalf("call: %v", c.Err)
		}
	}
	frame := netserve.ReqHdrLen + len("f")
	if sizes := park.writeSizes(); len(sizes) != 3 || sizes[1] != frame || sizes[2] != n*frame {
		t.Fatalf("write sizes %v, want [hello %d %d]", sizes, frame, n*frame)
	}
}

// TestFailedWriteFailsQueuedCalls: a write that fails takes the
// connection down, failing the call it carried and every call queued
// behind it with ErrConnClosed and returning all their credits, so later
// calls fail fast instead of blocking on credit.
func TestFailedWriteFailsQueuedCalls(t *testing.T) {
	srv := serve(t, netserve.Config{Engine: &recEngine{}, Window: 8})
	park := newParkConn(2, true)
	cl := dialParked(t, srv, park)

	calls := []*Call{cl.Go(netserve.OpWrite, "f", 0, 4096, nil, nil)}
	<-park.parked
	for i := 1; i < cl.Window(); i++ {
		calls = append(calls, cl.Go(netserve.OpRead, "f", 0, 4096, nil, nil))
	}
	park.unpark()
	for _, c := range calls {
		<-c.Done
		if !errors.Is(c.Err, ErrConnClosed) {
			t.Fatalf("call behind a failed write: got %v, want ErrConnClosed", c.Err)
		}
	}
	if !cl.Lost() {
		t.Fatal("failed write did not mark the connection lost")
	}
	if got := len(cl.credits); got != cl.Window() {
		t.Fatalf("%d of %d credits returned", got, cl.Window())
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2*cl.Window(); i++ {
			if err := cl.Write("f", 0, 4096, nil); !errors.Is(err, ErrConnClosed) {
				t.Errorf("write on the failed connection: got %v, want ErrConnClosed", err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("calls after a failed write blocked")
	}
}

// clientLoops counts the goroutines running a Client's reader or writer.
func clientLoops() int {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	return strings.Count(stacks, "netclient.(*Client).readLoop(") + strings.Count(stacks, "netclient.(*Client).writeLoop(")
}

// waitUntil polls cond for up to 5 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not reached in 5s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseAndReconnectStopGoroutines: each connection generation runs
// one reader and one writer; Reconnect retires the old pair and Close the
// last, leaving the goroutine count where it started.
func TestCloseAndReconnectStopGoroutines(t *testing.T) {
	srv := serve(t, netserve.Config{Engine: &recEngine{}})
	base := runtime.NumGoroutine()
	cl, err := Dial(srv.Addr(), Options{Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Write("f", 0, 4096, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := cl.Reconnect(); err != nil {
			t.Fatal(err)
		}
		if err := cl.Write("f", 0, 4096, nil); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "old generation's reader and writer exit", func() bool { return clientLoops() == 2 })
	}
	cl.Close()
	waitUntil(t, "reader and writer exit on Close", func() bool { return clientLoops() == 0 })
	waitUntil(t, "goroutine count back to its start", func() bool { return runtime.NumGoroutine() <= base })
}
