package netserve_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s4dcache/internal/netclient"
	"s4dcache/internal/netserve"
)

// stubEngine is an in-memory Engine: writes copy their payload at call
// time (the zero-copy contract — the server recycles the frame buffer
// once done fires), reads fill the caller's buffer at call time, and
// completions are delivered asynchronously, optionally gated so tests can
// hold requests in flight.
type stubEngine struct {
	mu       sync.Mutex
	files    map[string][]byte
	gate     chan struct{} // non-nil: completions wait for a token
	gateOnly string        // non-empty: only this (namespaced) file is gated
	delay    time.Duration
}

func newStubEngine() *stubEngine { return &stubEngine{files: make(map[string][]byte)} }

func (e *stubEngine) extend(file string, off, size int64) []byte {
	b := e.files[file]
	if int64(len(b)) < off+size {
		nb := make([]byte, off+size)
		copy(nb, b)
		b = nb
		e.files[file] = b
	}
	return b
}

func (e *stubEngine) complete(file string, done func(error)) {
	gate := e.gate
	if e.gateOnly != "" && file != e.gateOnly {
		gate = nil
	}
	delay := e.delay
	go func() {
		if gate != nil {
			<-gate
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		done(nil)
	}()
}

func (e *stubEngine) Write(rank int, file string, off, size int64, data []byte, done func(error)) error {
	if off < 0 || size <= 0 {
		return fmt.Errorf("stub: bad range")
	}
	e.mu.Lock()
	b := e.extend(file, off, size)
	if data != nil {
		copy(b[off:off+size], data)
	}
	e.mu.Unlock()
	e.complete(file, done)
	return nil
}

func (e *stubEngine) Read(rank int, file string, off, size int64, buf []byte, done func(error)) error {
	if off < 0 || size <= 0 {
		return fmt.Errorf("stub: bad range")
	}
	e.mu.Lock()
	b := e.extend(file, off, size)
	if buf != nil {
		copy(buf, b[off:off+size])
	}
	e.mu.Unlock()
	e.complete(file, done)
	return nil
}

func (e *stubEngine) bytesOf(file string) []byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]byte(nil), e.files[file]...)
}

func startServer(t *testing.T, cfg netserve.Config) *netserve.Server {
	t.Helper()
	srv, err := netserve.Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func dial(t *testing.T, srv *netserve.Server, opts netclient.Options) *netclient.Client {
	t.Helper()
	cl, err := netclient.Dial(srv.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// TestWriteReadRoundTrip checks payload-mode data integrity end to end and
// that file names reach the engine namespaced as "tenant|name".
func TestWriteReadRoundTrip(t *testing.T) {
	eng := newStubEngine()
	srv := startServer(t, netserve.Config{Engine: eng, Payload: true})
	cl := dial(t, srv, netclient.Options{Tenant: "acme"})
	if !cl.PayloadMode() {
		t.Fatal("client did not learn payload mode from hello")
	}

	data := bytes.Repeat([]byte("s4d!"), 1024)
	if err := cl.Write("data.bin", 128, int64(len(data)), data); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, len(data))
	if err := cl.Read("data.bin", 128, int64(len(data)), buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("read bytes differ from written bytes")
	}
	if got := eng.bytesOf(netserve.TenantName("acme", "data.bin")); len(got) == 0 {
		t.Fatal("engine saw no tenant-namespaced file")
	}
	if got := eng.bytesOf("data.bin"); len(got) != 0 {
		t.Fatal("engine saw an un-namespaced file name")
	}
}

// TestTenantIsolation writes the same file name under two tenants and
// checks each reads back its own bytes.
func TestTenantIsolation(t *testing.T) {
	eng := newStubEngine()
	srv := startServer(t, netserve.Config{Engine: eng, Payload: true})
	a := dial(t, srv, netclient.Options{Tenant: "a"})
	b := dial(t, srv, netclient.Options{Tenant: "b"})

	da := bytes.Repeat([]byte{0xaa}, 4096)
	db := bytes.Repeat([]byte{0xbb}, 4096)
	if err := a.Write("shared", 0, 4096, da); err != nil {
		t.Fatal(err)
	}
	if err := b.Write("shared", 0, 4096, db); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if err := a.Read("shared", 0, 4096, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, da) {
		t.Fatal("tenant a read tenant b's bytes")
	}
	if err := b.Read("shared", 0, 4096, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, db) {
		t.Fatal("tenant b read tenant a's bytes")
	}
}

// TestPipelinedOutOfOrder issues a slow request then a fast one on the
// same connection and checks the fast one completes first — completions
// are matched by id, not order.
func TestPipelinedOutOfOrder(t *testing.T) {
	eng := newStubEngine()
	eng.gate = make(chan struct{}, 2)
	// Gate only the slow request: a shared token could be claimed by
	// either completion goroutine depending on scheduling.
	eng.gateOnly = netserve.TenantName("t", "f")
	srv := startServer(t, netserve.Config{Engine: eng})
	cl := dial(t, srv, netclient.Options{Tenant: "t"})

	slow := cl.Go(netserve.OpWrite, "f", 0, 1024, nil, nil)
	fast := cl.Go(netserve.OpWrite, "g", 0, 1024, nil, nil)
	select {
	case <-fast.Done:
	case <-slow.Done:
		t.Fatal("slow request completed before its gate token")
	case <-time.After(5 * time.Second):
		t.Fatal("fast request never completed")
	}
	if fast.Err != nil {
		t.Fatalf("fast: %v", fast.Err)
	}
	eng.gate <- struct{}{}
	<-slow.Done
	if slow.Err != nil {
		t.Fatalf("slow: %v", slow.Err)
	}
}

// TestBusyWindow floods a window-2 server from a credit-less client and
// checks overflow requests are answered BUSY without queuing, while the
// in-flight ones still complete.
func TestBusyWindow(t *testing.T) {
	eng := newStubEngine()
	eng.gate = make(chan struct{}, 16)
	srv := startServer(t, netserve.Config{Engine: eng, Window: 2})
	cl := dial(t, srv, netclient.Options{Tenant: "t", Credits: -1})

	var calls []*netclient.Call
	for i := 0; i < 6; i++ {
		calls = append(calls, cl.Go(netserve.OpWrite, "f", int64(i)*4096, 4096, nil, nil))
	}
	// The overflow responses arrive while the first two stay gated.
	busy := 0
	deadline := time.After(5 * time.Second)
	for _, c := range calls[2:] {
		select {
		case <-c.Done:
			if errors.Is(c.Err, netclient.ErrBusy) {
				busy++
			} else {
				t.Fatalf("overflow call: got %v, want ErrBusy", c.Err)
			}
		case <-deadline:
			t.Fatal("overflow calls not answered while window full")
		}
	}
	if busy != 4 {
		t.Fatalf("busy=%d, want 4", busy)
	}
	for i := 0; i < 2; i++ {
		eng.gate <- struct{}{}
	}
	for _, c := range calls[:2] {
		<-c.Done
		if c.Err != nil {
			t.Fatalf("in-flight call: %v", c.Err)
		}
	}
	if st := srv.Stats(); st.Busy != 4 {
		t.Fatalf("server busy counter %d, want 4", st.Busy)
	}
}

// TestGlobalBudget checks the server-wide MaxInFlight admission cap across
// connections.
func TestGlobalBudget(t *testing.T) {
	eng := newStubEngine()
	eng.gate = make(chan struct{}, 16)
	srv := startServer(t, netserve.Config{Engine: eng, Window: 8, MaxInFlight: 1})
	a := dial(t, srv, netclient.Options{Tenant: "a", Credits: -1})
	b := dial(t, srv, netclient.Options{Tenant: "b", Credits: -1})

	first := a.Go(netserve.OpWrite, "f", 0, 4096, nil, nil)
	// Wait until the server holds the budget before the second request.
	waitFor(t, func() bool { return srv.Stats().InFlight == 1 })
	second := b.Go(netserve.OpWrite, "f", 0, 4096, nil, nil)
	<-second.Done
	if !errors.Is(second.Err, netclient.ErrBusy) {
		t.Fatalf("second conn: got %v, want ErrBusy", second.Err)
	}
	eng.gate <- struct{}{}
	<-first.Done
	if first.Err != nil {
		t.Fatalf("first: %v", first.Err)
	}
}

// TestDrain holds a request in flight, drains the server, and checks: the
// in-flight request completes OK, a request issued during the drain gets
// ErrDraining, and new connections are refused.
func TestDrain(t *testing.T) {
	eng := newStubEngine()
	eng.gate = make(chan struct{}, 16)
	srv, err := netserve.Serve(netserve.Config{Engine: eng, Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	cl := dial(t, srv, netclient.Options{Tenant: "t"})

	inflight := cl.Go(netserve.OpWrite, "f", 0, 4096, nil, nil)
	waitFor(t, func() bool { return srv.Stats().InFlight == 1 })

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(context.Background()) }()
	// The drain flag flips before the listener closes, so once a fresh
	// dial is refused the flag is guaranteed visible — only then is a
	// probe request deterministically rejected (probing earlier could
	// get admitted and parked on the gated engine forever).
	waitFor(t, func() bool {
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			return true
		}
		nc.Close()
		return false
	})
	rejected := cl.Go(netserve.OpWrite, "g", 0, 4096, nil, nil)
	<-rejected.Done
	if !errors.Is(rejected.Err, netclient.ErrDraining) {
		t.Fatalf("during drain: got %v, want ErrDraining", rejected.Err)
	}

	eng.gate <- struct{}{}
	<-inflight.Done
	if inflight.Err != nil {
		t.Fatalf("in-flight during drain: %v", inflight.Err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := netclient.Dial(srv.Addr(), netclient.Options{Tenant: "t", DialTimeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("dial succeeded after drain")
	}
}

// TestServerCloseFailsPending checks an abrupt server close surfaces
// ErrConnClosed on pending calls, and Reconnect restores service once a
// new server listens on the same address.
func TestServerCloseFailsPending(t *testing.T) {
	eng := newStubEngine()
	eng.gate = make(chan struct{}, 16)
	srv, err := netserve.Serve(netserve.Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cl, err := netclient.Dial(addr, netclient.Options{Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	pending := cl.Go(netserve.OpWrite, "f", 0, 4096, nil, nil)
	waitFor(t, func() bool { return srv.Stats().InFlight == 1 })
	// Close with the completion still gated so the response cannot race
	// ahead of the socket teardown; Close blocks on the writer draining
	// the in-flight request, so it runs concurrently and the gate opens
	// only once the client has seen the connection die.
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	<-pending.Done
	eng.gate <- struct{}{} // let the engine completion fire into the dying server
	<-closed
	if !errors.Is(pending.Err, netclient.ErrConnClosed) {
		t.Fatalf("pending after crash: got %v, want ErrConnClosed", pending.Err)
	}
	if err := cl.Write("f", 0, 4096, nil); !errors.Is(err, netclient.ErrConnClosed) {
		t.Fatalf("write while lost: got %v, want ErrConnClosed", err)
	}

	// Restart on the same address and re-handshake.
	eng2 := newStubEngine()
	var srv2 *netserve.Server
	waitFor(t, func() bool {
		srv2, err = netserve.Serve(netserve.Config{Engine: eng2, Addr: addr})
		return err == nil
	})
	t.Cleanup(srv2.Close)
	if err := cl.Reconnect(); err != nil {
		t.Fatalf("reconnect: %v", err)
	}
	if err := cl.Write("f", 0, 4096, nil); err != nil {
		t.Fatalf("write after reconnect: %v", err)
	}
	if got := eng2.bytesOf(netserve.TenantName("t", "f")); len(got) != 4096 {
		t.Fatal("reconnect did not re-handshake the tenant namespace")
	}
}

// TestHelloRequired checks a request before HELLO is rejected and the
// connection closed.
func TestHelloRequired(t *testing.T) {
	srv := startServer(t, netserve.Config{Engine: newStubEngine()})
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var b [netserve.ReqHdrLen + 1]byte
	netserve.PutReqHeader(b[:], netserve.ReqHeader{ID: 1, Op: netserve.OpWrite, NameLen: 1, Size: 4096})
	b[netserve.ReqHdrLen] = 'f'
	if _, err := nc.Write(b[:]); err != nil {
		t.Fatal(err)
	}
	var resp [netserve.RespHdrLen]byte
	if _, err := io.ReadFull(nc, resp[:]); err != nil {
		t.Fatal(err)
	}
	if h := netserve.ParseRespHeader(resp[:]); h.Status != netserve.StatusBadRequest {
		t.Fatalf("status %s, want BAD_REQUEST", netserve.StatusString(h.Status))
	}
	// The connection must then close (protocol error is fatal).
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(nc, resp[:1]); err != io.EOF {
		t.Fatalf("conn still open after protocol error: %v", err)
	}
}

// TestBadFrame checks size/name validation answers BAD_REQUEST.
func TestBadFrame(t *testing.T) {
	srv := startServer(t, netserve.Config{Engine: newStubEngine()})
	cl := dial(t, srv, netclient.Options{Tenant: "t"})
	// Client-side validation rejects locally.
	if err := cl.Write("f", -1, 4096, nil); err == nil || errors.Is(err, netclient.ErrConnClosed) {
		t.Fatalf("negative offset: %v", err)
	}
	if err := cl.Write("", 0, 4096, nil); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := cl.Write("f", 0, netserve.MaxPayload+1, nil); err == nil {
		t.Fatal("oversized request accepted")
	}
	// And a raw oversized frame is rejected by the server.
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	hello := make([]byte, netserve.ReqHdrLen+1)
	netserve.PutReqHeader(hello, netserve.ReqHeader{Op: netserve.OpHello, NameLen: 1, Off: netserve.ProtoMagic, Size: netserve.ProtoVersion})
	hello[netserve.ReqHdrLen] = 't'
	if _, err := nc.Write(hello); err != nil {
		t.Fatal(err)
	}
	var resp [netserve.RespHdrLen]byte
	if _, err := io.ReadFull(nc, resp[:]); err != nil {
		t.Fatal(err)
	}
	bad := make([]byte, netserve.ReqHdrLen+1)
	netserve.PutReqHeader(bad, netserve.ReqHeader{ID: 9, Op: netserve.OpRead, NameLen: 1, Size: netserve.MaxPayload + 1})
	bad[netserve.ReqHdrLen] = 'f'
	if _, err := nc.Write(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(nc, resp[:]); err != nil {
		t.Fatal(err)
	}
	if h := netserve.ParseRespHeader(resp[:]); h.Status != netserve.StatusBadRequest || h.ID != 9 {
		t.Fatalf("got id=%d status=%s, want id=9 BAD_REQUEST", h.ID, netserve.StatusString(h.Status))
	}
}

// TestCreditTracking checks a cooperative client (credits = granted
// window) never draws BUSY even when oversubscribed by callers.
func TestCreditTracking(t *testing.T) {
	eng := newStubEngine()
	eng.delay = 100 * time.Microsecond
	srv := startServer(t, netserve.Config{Engine: eng, Window: 4})
	cl := dial(t, srv, netclient.Options{Tenant: "t"})
	if cl.Window() != 4 {
		t.Fatalf("granted window %d, want 4", cl.Window())
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := cl.Write("f", int64(g*25+i)*4096, 4096, nil); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := srv.Stats(); st.Busy != 0 {
		t.Fatalf("cooperative client drew %d BUSY responses", st.Busy)
	}
}

// parkConn parks the server's writer inside its at-th Write, after the
// bytes reached the socket, until release is closed.
type parkConn struct {
	net.Conn
	at      int32
	writes  atomic.Int32
	parked  chan struct{}
	release chan struct{}
}

func (p *parkConn) Write(b []byte) (int, error) {
	n, err := p.Conn.Write(b)
	if p.writes.Add(1) == p.at {
		close(p.parked)
		<-p.release
	}
	return n, err
}

// TestCreditReleasedBeforeResponse pins the window-slot ordering without
// relying on the scheduler: the server's writer is parked inside Write
// just after a response reached the socket, and the client — its one
// credit back — sends the next request at once. The server must admit
// it, not answer BUSY for a slot the client was already told is free.
func TestCreditReleasedBeforeResponse(t *testing.T) {
	eng := newStubEngine()
	// Write 1 answers HELLO; write 2 is the first request's response.
	park := &parkConn{at: 2, parked: make(chan struct{}), release: make(chan struct{})}
	srv := startServer(t, netserve.Config{Engine: eng, Window: 1, WrapConn: func(c net.Conn, _ int) net.Conn {
		park.Conn = c
		return park
	}})
	var once sync.Once
	unpark := func() { once.Do(func() { close(park.release) }) }
	t.Cleanup(unpark) // before the server's Close, which waits for the writer
	cl := dial(t, srv, netclient.Options{Tenant: "t"})
	if err := cl.Write("f", 0, 4096, nil); err != nil {
		t.Fatal(err)
	}
	<-park.parked
	call := cl.Go(netserve.OpWrite, "f", 4096, 4096, nil, nil)
	// The reader decides while the writer is still parked: either the
	// engine received the request or the server answered BUSY.
	waitFor(t, func() bool { return srv.Stats().Busy > 0 || len(eng.bytesOf("t|f")) >= 8192 })
	unpark()
	<-call.Done
	if call.Err != nil {
		t.Fatalf("request after reclaimed credit: %v", call.Err)
	}
	if st := srv.Stats(); st.Busy != 0 {
		t.Fatalf("cooperative client drew %d BUSY responses", st.Busy)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
