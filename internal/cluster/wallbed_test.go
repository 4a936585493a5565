package cluster

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s4dcache/internal/netclient"
	"s4dcache/internal/netserve"
)

// Network-layer crash/drain tortures over the wall-clock testbed: the
// failure semantics a remote client is promised — typed errors when the
// server process dies mid-pipeline, session re-handshake on reconnect,
// graceful drain letting in-flight work finish. These run under -race in
// CI (×3).

func dialWall(t *testing.T, tb *WallTestbed, tenant string) *netclient.Client {
	t.Helper()
	cl, err := netclient.Dial(tb.Addr(), netclient.Options{Tenant: tenant})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	return cl
}

// reconnectWall retries Reconnect while the server side is still coming
// back up after a restart.
func reconnectWall(t *testing.T, cl *netclient.Client) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := cl.Reconnect()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("reconnect: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWallRestartMidPipeline: a server crash-restart with a pipeline in
// flight surfaces typed ErrConnClosed on the affected calls (never a hang,
// never a silent success), the reconnected session re-handshakes its
// tenant namespace, and data written before the crash is served after a
// warm restart.
func TestWallRestartMidPipeline(t *testing.T) {
	tb, err := NewWallS4D(WallParams{PersistMeta: true, Payload: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	cl := dialWall(t, tb, "alpha")
	defer cl.Close()

	const reqSize = 16 << 10
	payload := bytes.Repeat([]byte{0xa5}, reqSize)
	// Durable prelude: data the warm restart must still serve.
	for i := 0; i < 4; i++ {
		if err := cl.Write("pre", int64(i)*reqSize, reqSize, payload); err != nil {
			t.Fatalf("prelude write %d: %v", i, err)
		}
	}

	// Pipeline a stream of writes while the server crash-restarts.
	var calls []*netclient.Call
	stop := make(chan struct{})
	var issued atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			calls = append(calls, cl.Go(netserve.OpWrite, "stream", int64(i%64)*reqSize, reqSize, payload, nil))
			issued.Add(1)
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Let the pipeline get going, then pull the rug.
	for issued.Load() < 16 {
		time.Sleep(time.Millisecond)
	}
	if err := tb.RestartS4D(WallRestartOptions{Warm: true}); err != nil {
		t.Fatalf("restart: %v", err)
	}
	for issued.Load() < 32 { // keep issuing into the dead conn
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	okOps, failedOps := 0, 0
	for _, call := range calls {
		<-call.Done
		switch {
		case call.Err == nil:
			okOps++
		case errors.Is(call.Err, netclient.ErrConnClosed):
			failedOps++
		default:
			t.Fatalf("unexpected pipeline error: %v", call.Err)
		}
	}
	if okOps == 0 {
		t.Fatal("no pipelined op completed before the crash")
	}
	if failedOps == 0 {
		t.Fatal("crash failed no pipelined op — restart happened outside the pipeline window")
	}
	if !cl.Lost() {
		t.Fatal("client should have observed the lost connection")
	}

	// Reconnect re-handshakes the tenant; the prelude data survives the
	// warm restart byte-for-byte.
	reconnectWall(t, cl)
	buf := make([]byte, reqSize)
	for i := 0; i < 4; i++ {
		if err := cl.Read("pre", int64(i)*reqSize, reqSize, buf); err != nil {
			t.Fatalf("post-restart read %d: %v", i, err)
		}
		if !bytes.Equal(buf, payload) {
			t.Fatalf("post-restart read %d returned wrong bytes", i)
		}
	}
	t.Logf("pipeline: %d ok, %d failed typed", okOps, failedOps)
}

// TestWallRestartColdIsolation: after a cold restart the cache is empty
// but the PFS data survives; a second tenant dialing the restarted server
// cannot see the first tenant's files.
func TestWallRestartColdIsolation(t *testing.T) {
	tb, err := NewWallS4D(WallParams{PersistMeta: true, Payload: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	cl := dialWall(t, tb, "alpha")
	defer cl.Close()

	const reqSize = 4 << 10
	payload := bytes.Repeat([]byte{0x5a}, reqSize)
	if err := cl.Write("secret", 0, reqSize, payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := tb.RestartS4D(WallRestartOptions{}); err != nil {
		t.Fatalf("cold restart: %v", err)
	}
	reconnectWall(t, cl)
	buf := make([]byte, reqSize)
	if err := cl.Read("secret", 0, reqSize, buf); err != nil {
		t.Fatalf("post-restart read: %v", err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("cold restart lost PFS data")
	}

	other := dialWall(t, tb, "beta")
	defer other.Close()
	if err := other.Read("secret", 0, reqSize, buf); err != nil {
		t.Fatalf("cross-tenant read: %v", err)
	}
	if bytes.Equal(buf, payload) {
		t.Fatal("tenant beta read tenant alpha's bytes")
	}
}

// TestWallDrainUnderLoad: graceful drain lets every accepted request
// complete while rejecting new work with typed ErrDraining.
func TestWallDrainUnderLoad(t *testing.T) {
	tb, err := NewWallS4D(WallParams{})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	const clients = 4
	var wg sync.WaitGroup
	var okOps, drained atomic.Int64
	stop := make(chan struct{})
	for c := 0; c < clients; c++ {
		cl := dialWall(t, tb, "load")
		defer cl.Close()
		wg.Add(1)
		go func(cl *netclient.Client, c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				err := cl.Write("f", int64(i%256)<<14, 16<<10, nil)
				switch {
				case err == nil:
					okOps.Add(1)
				case errors.Is(err, netclient.ErrDraining):
					drained.Add(1)
					return
				case errors.Is(err, netclient.ErrConnClosed):
					return // conn torn down post-drain
				default:
					panic(err)
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(cl, c)
	}

	for okOps.Load() < 64 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tb.Server.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(stop)
	wg.Wait()

	if drained.Load() == 0 {
		t.Log("no client observed DRAINING (all were between ops); drain still completed clean")
	}
	stats := tb.Server.Stats()
	if stats.IOErrors != 0 || stats.BadRequests != 0 {
		t.Fatalf("drain caused errors: %+v", stats)
	}
	if _, err := netclient.Dial(tb.Addr(), netclient.Options{Tenant: "late"}); err == nil {
		t.Fatal("dial succeeded after drain closed the listener")
	}
}

// stuckConn stands for a client that stopped reading its socket: from its
// second response on (the first answers HELLO), the server's writer
// blocks in Write until release is closed.
type stuckConn struct {
	net.Conn
	writes  atomic.Int32
	stuck   chan struct{}
	release chan struct{}
}

func (c *stuckConn) Write(b []byte) (int, error) {
	if c.writes.Add(1) == 2 {
		close(c.stuck)
		<-c.release
	}
	return c.Conn.Write(b)
}

// TestWallStalledClientIsolation: a client that floods past its window and
// never reads its responses stalls only itself. Its requests share the
// WallFS servers with every other connection's and the Rebuilder's, and
// their completions must not wait for its socket: another tenant's
// requests on the same servers keep completing, and a Rebuilder drain
// finishes.
func TestWallStalledClientIsolation(t *testing.T) {
	const (
		window  = 4
		flood   = 64
		reqSize = int64(128 << 10) // eight 16 KiB stripes: every server
	)
	stuck := &stuckConn{stuck: make(chan struct{}), release: make(chan struct{})}
	tb, err := NewWallS4D(WallParams{
		// Slow servers, so the BUSY answers to the flood back up long
		// before its admitted requests complete.
		PerOpSSD: 2 * time.Millisecond,
		PerOpHDD: 2 * time.Millisecond,
		Window:   window,
		WrapConn: func(c net.Conn, id int) net.Conn {
			if id != 0 {
				return c
			}
			stuck.Conn = c
			return stuck
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	var once sync.Once
	defer once.Do(func() { close(stuck.release) })

	flooder, err := netclient.Dial(tb.Addr(), netclient.Options{Tenant: "flood", Credits: -1})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer flooder.Close()
	for i := 0; i < window+flood; i++ {
		flooder.Go(netserve.OpWrite, "f", int64(i)*reqSize, reqSize, nil, nil)
	}
	select {
	case <-stuck.stuck:
	case <-time.After(5 * time.Second):
		t.Fatal("the flooding connection's writer never blocked")
	}

	cl := dialWall(t, tb, "other")
	defer cl.Close()
	finished := make(chan error, 1)
	go func() {
		for i := int64(0); i < 8; i++ {
			if err := cl.Write("g", i*reqSize, reqSize, nil); err != nil {
				finished <- err
				return
			}
			if err := cl.Read("g", i*reqSize, reqSize, nil); err != nil {
				finished <- err
				return
			}
		}
		drained := make(chan struct{})
		tb.Eng.DrainRebuild(func() { close(drained) })
		<-drained
		finished <- nil
	}()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatalf("other tenant: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a client that never reads stalled another tenant's requests or the Rebuilder")
	}
}
