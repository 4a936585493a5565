package netclient

import (
	"errors"
	"sync"
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
