package core

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"s4dcache/internal/sim"
)

// heldWrites is an OPFS wrapper that parks every Write while held: the
// write neither lands nor completes until release, the shape of a client
// write still in flight on the DServers.
type heldWrites struct {
	Backend
	mu     sync.Mutex
	hold   bool
	parked []func()
}

func (h *heldWrites) Write(file string, off, size int64, pri sim.Priority, data []byte, done func(error)) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.hold {
		h.parked = append(h.parked, func() {
			if err := h.Backend.Write(file, off, size, pri, data, done); err != nil {
				done(err)
			}
		})
		return nil
	}
	return h.Backend.Write(file, off, size, pri, data, done)
}

func (h *heldWrites) setHold(hold bool) {
	h.mu.Lock()
	h.hold = hold
	h.mu.Unlock()
}

// release lets every parked write proceed and stops holding new ones.
func (h *heldWrites) release() int {
	h.mu.Lock()
	parked := h.parked
	h.parked, h.hold = nil, false
	h.mu.Unlock()
	for _, w := range parked {
		w()
	}
	return len(parked)
}

// TestFetchSkipsFileWithWriteInFlight reproduces the stale fetch: a lazy
// fetch of a critical range must not cache DServer bytes that a client
// write already in flight is about to replace. The write started before
// the fetch captured the file's epoch, so the epoch check cannot see it;
// the fetch has to skip the file while its writes are in flight, as the
// flush does, and retry on a later cycle.
func TestFetchSkipsFileWithWriteInFlight(t *testing.T) {
	var opfs *heldWrites
	tb := newConcTestbedCfg(t, 2, true, false, func(cfg *ConcurrentConfig) {
		opfs = &heldWrites{Backend: cfg.OPFS}
		cfg.OPFS = opfs
	})
	const (
		file = "stale.dat"
		span = int64(4 << 20)
		off  = int64(1 << 20)
		size = int64(4 << 10)
	)
	old := bytes.Repeat([]byte{0xAA}, int(span))
	fresh := bytes.Repeat([]byte{0x55}, int(span))
	await(t, func(done func(error)) error {
		return tb.opfs.Write(file, 0, span, sim.PriorityHigh, old, done)
	})

	// A small random read miss is critical: the CDT flags it for a fetch.
	buf := make([]byte, size)
	await(t, func(done func(error)) error {
		return tb.eng.Read(0, file, off, size, buf, done)
	})
	if !bytes.Equal(buf, old[off:off+size]) {
		t.Fatal("read miss did not return the DServer bytes")
	}
	if !tb.eng.CDT().HasPending() {
		t.Fatal("critical read miss left no pending fetch")
	}

	// A large sequential write over the whole file is not critical and goes
	// to the DServers, where it stays in flight.
	opfs.setHold(true)
	written := make(chan error, 1)
	if err := tb.eng.Write(1, file, 0, span, fresh, func(err error) { written <- err }); err != nil {
		t.Fatal(err)
	}
	if hits, _ := dmtLookup(tb.eng, file, 0, span); len(hits) > 0 {
		t.Fatal("the large write was cached; it must go to the DServers")
	}

	cycle := make(chan struct{})
	tb.eng.RebuildNow(func() { close(cycle) })
	<-cycle
	if n := opfs.release(); n == 0 {
		t.Fatal("no write was held in flight")
	}
	if err := <-written; err != nil {
		t.Fatal(err)
	}
	await(t, func(done func(error)) error {
		return tb.eng.Read(0, file, off, size, buf, done)
	})
	if !bytes.Equal(buf, fresh[off:off+size]) {
		t.Fatalf("read after the write returned byte %#x, want %#x: the fetch cached stale DServer bytes", buf[0], fresh[0])
	}
	if tb.eng.Stats().FetchRetries == 0 {
		t.Fatal("the fetch of a file with a write in flight was not counted as a retry")
	}

	// With the write landed, the next cycle fetches the current bytes.
	drained := make(chan struct{})
	tb.eng.DrainRebuild(func() { close(drained) })
	<-drained
	if !dmtCovers(tb.eng, file, off, size) {
		t.Fatal("the retried fetch did not cache the range")
	}
	await(t, func(done func(error)) error {
		return tb.eng.Read(0, file, off, size, buf, done)
	})
	if !bytes.Equal(buf, fresh[off:off+size]) {
		t.Fatalf("cached read returned byte %#x, want %#x", buf[0], fresh[0])
	}
}

// afterCounter is a Clock that counts the callbacks scheduled through it.
type afterCounter struct {
	sim.Clock
	n atomic.Int64
}

func (a *afterCounter) After(d time.Duration, fn func()) {
	a.n.Add(1)
	a.Clock.After(d, fn)
}

// TestLaneStepsTakeNoClockHop runs a Rebuilder cycle of 16 flushes and
// 16 fetches, each fetch of two gaps, and counts the callbacks it
// schedules on the engine's clock: one per lane it starts and one for its
// waiter. A task continues its lane on the goroutine that completed its
// I/O, or in runLane's loop when it did none, and a fetch's next gap
// starts where the previous one finished — neither takes a clock hop.
func TestLaneStepsTakeNoClockHop(t *testing.T) {
	clock := &afterCounter{Clock: sim.NewWallClock()}
	tb := newConcTestbedCfg(t, 4, true, false, func(c *ConcurrentConfig) { c.Clock = clock })
	const size = int64(4 << 10)
	for i := 0; i < 16; i++ {
		file := fmt.Sprintf("hop%02d", i)
		data := bytes.Repeat([]byte{byte(i + 1)}, int(size))
		await(t, func(done func(error)) error { return tb.eng.Write(0, file, 1<<20, size, data, done) })
		buf := make([]byte, 3*size)
		await(t, func(done func(error)) error { return tb.eng.Read(0, file, 4<<20, 3*size, buf, done) })
		// A cached middle splits the flagged range into two gaps.
		await(t, func(done func(error)) error { return tb.eng.Write(0, file, 4<<20+size, size, data, done) })
	}
	before := tb.eng.Stats()
	clock.n.Store(0)
	fired := make(chan struct{})
	tb.eng.RebuildNow(func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(10 * time.Second):
		t.Fatal("Rebuilder cycle did not finish")
	}
	st := tb.eng.Stats()
	if st.Flushes-before.Flushes < 16 || st.Fetches-before.Fetches < 32 {
		t.Fatalf("cycle moved %d flushes and %d gaps, want 16 and 32",
			st.Flushes-before.Flushes, st.Fetches-before.Fetches)
	}
	if n, most := clock.n.Load(), int64(len(tb.eng.lanes)+1); n > most {
		t.Fatalf("cycle scheduled %d clock callbacks, want at most %d (one per lane and the waiter)", n, most)
	}
}
