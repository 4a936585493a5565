package sim

import (
	"sync/atomic"
	"time"
)

// Clock is the execution backend of time-driven components: the
// deterministic virtual-time Engine implements it for the single-threaded
// simulator, and WallClock implements it over the real monotonic clock for
// concurrent deployments (the sharded core engine, the wall-clock
// throughput harness).
//
// Implementations must deliver After callbacks asynchronously with respect
// to the caller: fn never runs synchronously inside After itself, even for
// a zero delay. Engine satisfies this by queueing fn on the event ring;
// WallClock by running fn on a goroutine of its own (a timer's, when d is
// positive). Callers (the concurrent serve paths) rely on it to issue I/O
// while holding locks that fn itself may need.
type Clock interface {
	// Now returns the time elapsed since the clock's origin.
	Now() time.Duration
	// After schedules fn to run d from now, asynchronously. Negative
	// delays are clamped to zero.
	After(d time.Duration, fn func())
}

var _ Clock = (*Engine)(nil)

// WallClock is the wall-clock execution backend: Now reports real
// monotonic time since construction and After dispatches callbacks on
// timer goroutines. Unlike the Engine it is safe for concurrent use from
// any number of goroutines — callbacks run concurrently with the callers
// and with each other, so everything they touch must be thread-safe.
//
// WallClock trades the simulator's determinism for real parallelism: it is
// the backend of the concurrent S4D engine and the multi-client throughput
// harness, while every experiment table keeps running on the virtual-time
// Engine.
type WallClock struct {
	origin  time.Time
	pending atomic.Int64
}

// NewWallClock returns a wall clock with its origin at the current time.
func NewWallClock() *WallClock {
	return &WallClock{origin: time.Now()}
}

// Now returns the real monotonic time elapsed since construction.
func (w *WallClock) Now() time.Duration { return time.Since(w.origin) }

// After runs fn on a timer goroutine d from now. A non-positive delay
// starts a goroutine instead of arming a timer, so fn still never runs
// synchronously inside After — the asynchrony invariant documented on
// Clock.
func (w *WallClock) After(d time.Duration, fn func()) {
	if fn == nil {
		return
	}
	w.pending.Add(1)
	run := func() {
		defer w.pending.Add(-1)
		fn()
	}
	if d <= 0 {
		go run()
		return
	}
	time.AfterFunc(d, run)
}

// Pending returns the number of scheduled callbacks that have not finished
// running, for shutdown diagnostics. It counts only callbacks passed to
// After: a pfs.WallFS request waiting for its due time on its own
// goroutine, and the completion that goroutine runs, are not clock
// callbacks, so a zero Pending does not mean the wall backend is idle.
func (w *WallClock) Pending() int64 { return w.pending.Load() }
