package pfs

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"s4dcache/internal/sim"
)

func newWallTestFS(t *testing.T, functional bool) *WallFS {
	t.Helper()
	w, err := NewWallFS(WallConfig{
		Label:       "wall",
		Layout:      Layout{Servers: 4, StripeSize: 4 << 10},
		Clock:       sim.NewWallClock(),
		Functional:  functional,
		PerOp:       2 * time.Microsecond,
		BytesPerSec: 1 << 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWallFSFunctionalRoundTrip writes seeded data from several goroutines
// to disjoint files and reads it back through the striped payload path.
func TestWallFSFunctionalRoundTrip(t *testing.T) {
	w := newWallTestFS(t, true)
	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			file := string(rune('a' + c))
			for i := 0; i < 40; i++ {
				off := rng.Int63n(64 << 10)
				size := 1 + rng.Int63n(20<<10)
				data := make([]byte, size)
				rng.Read(data)
				done := make(chan error, 1)
				if err := w.Write(file, off, size, sim.PriorityHigh, data, func(err error) { done <- err }); err != nil {
					t.Error(err)
					return
				}
				if err := <-done; err != nil {
					t.Error(err)
					return
				}
				buf := make([]byte, size)
				if err := w.Read(file, off, size, sim.PriorityHigh, buf, func(err error) { done <- err }); err != nil {
					t.Error(err)
					return
				}
				if err := <-done; err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(buf, data) {
					t.Errorf("client %d op %d: read-back mismatch at off=%d size=%d", c, i, off, size)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if st := w.Stats(); st.Aborts != 0 || st.Requests == 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

// TestWallFSDownServer checks asynchronous refusal while down, RangeDown
// routing, the state hook, and recovery after restart.
func TestWallFSDownServer(t *testing.T) {
	w := newWallTestFS(t, false)
	var hookMu sync.Mutex
	var hooks []int
	w.SetStateHook(func(server int, down, restarts bool) {
		hookMu.Lock()
		hooks = append(hooks, server)
		hookMu.Unlock()
	})
	w.SetServerDown(1, true, true)
	if !w.ServerIsDown(1) || w.ServerIsDown(0) || !w.AnyServerDown() {
		t.Fatal("down state not reflected")
	}
	// Stripe 1 lives on server 1; stripe 0 does not.
	if !w.RangeDown(4<<10, 4<<10) {
		t.Fatal("RangeDown missed the crashed server")
	}
	if w.RangeDown(0, 4<<10) {
		t.Fatal("RangeDown flagged a healthy range")
	}
	done := make(chan error, 1)
	if err := w.Write("f", 0, 16<<10, sim.PriorityHigh, nil, func(err error) { done <- err }); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrServerDown) {
		t.Fatalf("write across down server: err=%v, want ErrServerDown", err)
	}
	w.SetServerDown(1, false, true)
	if err := w.Write("f", 0, 16<<10, sim.PriorityHigh, nil, func(err error) { done <- err }); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("write after restart: %v", err)
	}
	hookMu.Lock()
	defer hookMu.Unlock()
	if len(hooks) != 2 || hooks[0] != 1 || hooks[1] != 1 {
		t.Fatalf("state hook calls = %v, want [1 1]", hooks)
	}
	if w.FileSize("f") != 16<<10 {
		t.Fatalf("FileSize=%d, want %d", w.FileSize("f"), 16<<10)
	}
}

// TestWallFSServiceTime checks that the busy-horizon reservation actually
// delays completions: with one server and a large PerOp, N serialized ops
// take at least N*PerOp of wall time.
func TestWallFSServiceTime(t *testing.T) {
	w, err := NewWallFS(WallConfig{
		Label:  "wall",
		Layout: Layout{Servers: 1, StripeSize: 4 << 10},
		Clock:  sim.NewWallClock(),
		PerOp:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	const ops = 5
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < ops; i++ {
		wg.Add(1)
		if err := w.Write("f", int64(i)*(4<<10), 4<<10, sim.PriorityHigh, nil, func(error) { wg.Done() }); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if el := time.Since(start); el < ops*2*time.Millisecond {
		t.Fatalf("5 serialized 2ms ops finished in %v; service time not charged", el)
	}
}

// newWallServerFS builds a one-server performance-mode WallFS, so every
// request queues on the same server.
func newWallServerFS(t *testing.T, perOp time.Duration, bytesPerSec int64) *WallFS {
	t.Helper()
	w, err := NewWallFS(WallConfig{
		Label:       "wall",
		Layout:      Layout{Servers: 1, StripeSize: 4 << 10},
		Clock:       sim.NewWallClock(),
		PerOp:       perOp,
		BytesPerSec: bytesPerSec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// returnProbe is a completion that fails unless it runs after the issuing
// call returned: it waits for the issuer's signal, which a completion run
// inside the call would never see.
type returnProbe struct {
	returned chan struct{}
	result   chan error
}

var errRanInside = errors.New("done ran inside the issuing call")

func newReturnProbe() *returnProbe {
	return &returnProbe{returned: make(chan struct{}), result: make(chan error, 1)}
}

func (p *returnProbe) done(err error) {
	select {
	case <-p.returned:
		p.result <- err
	case <-time.After(2 * time.Second):
		p.result <- errRanInside
	}
}

// TestWallFSDoneNeverInsideCall pins the asynchrony invariant on the paths
// that finish a request inside the issuing call: a zero-size request, and
// a request whose every sub-request is refused by a down server.
func TestWallFSDoneNeverInsideCall(t *testing.T) {
	w := newWallTestFS(t, false)
	w.SetServerDown(1, true, true)
	cases := []struct {
		name      string
		off, size int64
		want      error
	}{
		{"zero-size", 0, 0, nil},
		{"refused by a down server", 4 << 10, 4 << 10, ErrServerDown},
		{"partly refused", 0, 16 << 10, ErrServerDown},
	}
	for _, c := range cases {
		for _, write := range []bool{false, true} {
			p := newReturnProbe()
			var err error
			if write {
				err = w.Write("f", c.off, c.size, sim.PriorityHigh, nil, p.done)
			} else {
				err = w.Read("f", c.off, c.size, sim.PriorityHigh, nil, p.done)
			}
			if err != nil {
				t.Fatal(err)
			}
			close(p.returned)
			if got := <-p.result; !errors.Is(got, c.want) {
				t.Fatalf("%s (write=%v): done(%v), want %v", c.name, write, got, c.want)
			}
		}
	}
}

// TestWallFSCompletesNoEarlierThanDue checks that no request on one
// server completes before its reserved due time: after its own arrival
// plus one service time, and after every request queued ahead of it has
// been served. Completions of different requests are not ordered. With a
// 20µs service time the later requests wait long enough to sleep, not
// yield.
func TestWallFSCompletesNoEarlierThanDue(t *testing.T) {
	const (
		ops   = 300
		size  = 4 << 10
		perOp = 20 * time.Microsecond
	)
	w := newWallServerFS(t, perOp, 1<<33)
	hold := perOp + time.Duration(float64(size)/w.bytesPerNs)
	clock := w.clock
	issued := make([]time.Duration, ops)
	at := make([]time.Duration, ops)
	var wg sync.WaitGroup
	wg.Add(ops)
	for i := 0; i < ops; i++ {
		issued[i] = clock.Now()
		if err := w.Write("f", int64(i)*size, size, sim.PriorityHigh, nil, func(err error) {
			at[i] = clock.Now()
			if err != nil {
				t.Error(err)
			}
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for i := range at {
		if early := issued[i] + hold - at[i]; early > 0 {
			t.Fatalf("request %d completed %v before its own service time ended", i, early)
		}
		if early := issued[0] + time.Duration(i+1)*hold - at[i]; early > 0 {
			t.Fatalf("request %d completed %v before the %d requests ahead of it were served", i, early, i)
		}
	}
}

// TestWallFSBlockedDoneDelaysNoOtherRequest checks that a done that blocks
// holds up only its own request: a later request on the same server, at
// either priority, still completes while the first request's done waits.
func TestWallFSBlockedDoneDelaysNoOtherRequest(t *testing.T) {
	for _, pri := range []sim.Priority{sim.PriorityHigh, sim.PriorityLow} {
		w := newWallServerFS(t, 2*time.Microsecond, 1<<33)
		release := make(chan struct{})
		blocked := make(chan struct{})
		if err := w.Write("f", 0, 4<<10, pri, nil, func(error) {
			close(blocked)
			<-release
		}); err != nil {
			t.Fatal(err)
		}
		<-blocked
		later := make(chan error, 1)
		if err := w.Read("f", 0, 4<<10, pri, nil, func(err error) { later <- err }); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-later:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("priority %v: a blocked done held up a later request on its server", pri)
		}
		close(release)
	}
}

// TestWallFSQueuedSubAbortsOnCrash checks that a sub-request already
// queued when its server goes down completes, at its due time, with
// ErrServerDown.
func TestWallFSQueuedSubAbortsOnCrash(t *testing.T) {
	const perOp = 30 * time.Millisecond
	w := newWallServerFS(t, perOp, 0)
	done := make(chan error, 1)
	start := time.Now()
	if err := w.Write("f", 0, 4<<10, sim.PriorityHigh, nil, func(err error) { done <- err }); err != nil {
		t.Fatal(err)
	}
	w.SetServerDown(0, true, true)
	if err := <-done; !errors.Is(err, ErrServerDown) {
		t.Fatalf("queued write across a crash: err=%v, want ErrServerDown", err)
	}
	if el := time.Since(start); el < perOp {
		t.Fatalf("aborted after %v, before its %v due time", el, perOp)
	}
	if st := w.Stats(); st.Aborts != 1 || st.SubRequests != 0 {
		t.Fatalf("stats after the abort: %+v", st)
	}
}
