package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"s4dcache/internal/pfs"
	"s4dcache/internal/sim"
)

var (
	errDoneInside = errors.New("done ran inside the engine call that issued it")
	errDoneLocked = errors.New("done ran under the file's shard mutex")
	errInjected   = errors.New("injected cache read failure")
)

// doneProbe is a request completion that fails unless it runs after the
// engine call returned and without the file's shard mutex held. It waits
// for the issuer's signal first, which a completion run inside the call
// would never see; the test drives no other traffic, so a held shard
// mutex can only be held by the goroutine running done.
type doneProbe struct {
	eng      *Concurrent
	file     string
	returned chan struct{}
	result   chan error
}

func newDoneProbe(eng *Concurrent, file string) *doneProbe {
	return &doneProbe{eng: eng, file: file, returned: make(chan struct{}), result: make(chan error, 1)}
}

func (p *doneProbe) done(err error) {
	select {
	case <-p.returned:
	case <-time.After(2 * time.Second):
		p.result <- errDoneInside
		return
	}
	sh, _ := p.eng.shard(p.file)
	if !sh.mu.TryLock() {
		p.result <- errDoneLocked
		return
	}
	sh.mu.Unlock()
	p.result <- err
}

// probe issues one engine call with a probe completion and returns the
// error done reported.
func probe(t *testing.T, eng *Concurrent, file string, call func(done func(error)) error) error {
	t.Helper()
	p := newDoneProbe(eng, file)
	if err := call(p.done); err != nil {
		t.Fatal(err)
	}
	close(p.returned)
	err := <-p.result
	if errors.Is(err, errDoneInside) || errors.Is(err, errDoneLocked) {
		t.Fatal(err)
	}
	return err
}

// eagerBackend finishes every request before the call that issued it
// returns: the wrapped backend still completes on its own goroutine, but
// the call waits for it. Every segment of an engine request is then done
// before the engine's Read or Write returns.
type eagerBackend struct{ Backend }

func waitFor(issue func(done func(error)) error, done func(error)) error {
	fin := make(chan struct{})
	if err := issue(func(err error) { done(err); close(fin) }); err != nil {
		return err
	}
	<-fin
	return nil
}

func (b eagerBackend) Write(file string, off, size int64, pri sim.Priority, data []byte, done func(error)) error {
	return waitFor(func(cb func(error)) error { return b.Backend.Write(file, off, size, pri, data, cb) }, done)
}

func (b eagerBackend) Read(file string, off, size int64, pri sim.Priority, buf []byte, done func(error)) error {
	return waitFor(func(cb func(error)) error { return b.Backend.Read(file, off, size, pri, buf, cb) }, done)
}

// failingReads completes reads with errInjected while fail is set, from
// the wrapped backend's completion, with no server down.
type failingReads struct {
	Backend
	fail atomic.Bool
}

func (b *failingReads) Read(file string, off, size int64, pri sim.Priority, buf []byte, done func(error)) error {
	return b.Backend.Read(file, off, size, pri, buf, func(err error) {
		if b.fail.Load() {
			err = errInjected
		}
		done(err)
	})
}

// TestConcurrentDoneNeverInsideCallOrUnderLock pins the asynchrony
// invariant of the concurrent engine: a request's done never runs inside
// the Read or Write that issued it, nor under a shard mutex, on every path
// that can finish a request without a backend completion as its last
// step.
func TestConcurrentDoneNeverInsideCallOrUnderLock(t *testing.T) {
	t.Run("zero-size", func(t *testing.T) {
		tb := newConcTestbed(t, 2, false, false)
		for _, write := range []bool{false, true} {
			err := probe(t, tb.eng, "z", func(done func(error)) error {
				if write {
					return tb.eng.Write(0, "z", 0, 0, nil, done)
				}
				return tb.eng.Read(0, "z", 0, 0, nil, done)
			})
			if err != nil {
				t.Fatalf("zero-size (write=%v): %v", write, err)
			}
		}
	})

	t.Run("refused by a down server", func(t *testing.T) {
		tb := newConcTestbedCfg(t, 2, false, false, func(cfg *ConcurrentConfig) { cfg.Policy = PolicyNone })
		// [0, 4 KiB) is one sub-request, on DServer 0.
		tb.opfs.SetServerDown(0, true, true)
		for _, write := range []bool{false, true} {
			err := probe(t, tb.eng, "d", func(done func(error)) error {
				if write {
					return tb.eng.Write(0, "d", 0, 4<<10, nil, done)
				}
				return tb.eng.Read(0, "d", 0, 4<<10, nil, done)
			})
			if !errors.Is(err, pfs.ErrServerDown) {
				t.Fatalf("write=%v across a down DServer: err=%v, want ErrServerDown", write, err)
			}
		}
	})

	t.Run("every segment done before the call returns", func(t *testing.T) {
		tb := newConcTestbedCfg(t, 2, true, false, func(cfg *ConcurrentConfig) {
			cfg.Policy = PolicyAll
			cfg.OPFS = eagerBackend{cfg.OPFS}
			cfg.CPFS = eagerBackend{cfg.CPFS}
		})
		data := make([]byte, 64<<10)
		for i := range data {
			data[i] = byte(i)
		}
		if err := probe(t, tb.eng, "e", func(done func(error)) error {
			return tb.eng.Write(0, "e", 0, 64<<10, data, done)
		}); err != nil {
			t.Fatal(err)
		}
		// Half cache hit, half gap to the DServers.
		buf := make([]byte, 64<<10)
		if err := probe(t, tb.eng, "e", func(done func(error)) error {
			return tb.eng.Read(0, "e", 32<<10, 64<<10, buf, done)
		}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 32<<10; i++ {
			if buf[i] != data[32<<10+i] {
				t.Fatalf("cached byte %d: got %d, want %d", i, buf[i], data[32<<10+i])
			}
		}
		if st := tb.eng.Stats(); st.SegReadsCache != 1 || st.SegReadsDisk != 1 {
			t.Fatalf("read did not split into a hit and a gap: %d cache / %d disk segments", st.SegReadsCache, st.SegReadsDisk)
		}
	})

	t.Run("failed read of a dirty extent on a live server", func(t *testing.T) {
		var cpfs *failingReads
		tb := newConcTestbedCfg(t, 2, false, true, func(cfg *ConcurrentConfig) {
			cfg.Policy = PolicyAll
			cpfs = &failingReads{Backend: cfg.CPFS}
			cfg.CPFS = cpfs
		})
		if err := probe(t, tb.eng, "r", func(done func(error)) error {
			return tb.eng.Write(0, "r", 0, 16<<10, nil, done)
		}); err != nil {
			t.Fatal(err)
		}
		cpfs.fail.Store(true)
		// readFailedConc finds the extent dirty with its server up and
		// fails the segment with the original error, under the mutex.
		err := probe(t, tb.eng, "r", func(done func(error)) error {
			return tb.eng.Read(0, "r", 0, 16<<10, nil, done)
		})
		if !errors.Is(err, errInjected) {
			t.Fatalf("read of a dirty extent whose cache read failed: err=%v, want the injected error", err)
		}
		if st := tb.eng.Stats(); st.Failovers != 1 {
			t.Fatalf("failovers=%d, want 1 (the read did not reach readFailedConc)", st.Failovers)
		}
	})

	t.Run("deferred read flushed on restart", func(t *testing.T) {
		tb := newConcTestbedCfg(t, 2, false, true, func(cfg *ConcurrentConfig) { cfg.Policy = PolicyAll })
		if err := probe(t, tb.eng, "p", func(done func(error)) error {
			return tb.eng.Write(0, "p", 0, 4<<10, nil, done)
		}); err != nil {
			t.Fatal(err)
		}
		hits, _ := tb.eng.DMT().Lookup("p", 0, 4<<10)
		if len(hits) != 1 || !hits[0].Dirty {
			t.Fatalf("write was not absorbed as one dirty extent: %+v", hits)
		}
		l := tb.cpfs.Layout()
		server := int(hits[0].CacheOff / l.StripeSize % int64(l.Servers))
		tb.cpfs.SetServerDown(server, true, true)
		p := newDoneProbe(tb.eng, "p")
		if err := tb.eng.Read(0, "p", 0, 4<<10, nil, p.done); err != nil {
			t.Fatal(err)
		}
		close(p.returned)
		if st := tb.eng.Stats(); st.DeferredReads != 1 {
			t.Fatalf("deferred reads=%d, want 1", st.DeferredReads)
		}
		tb.cpfs.SetServerDown(server, false, true)
		if err := <-p.result; err != nil {
			t.Fatal(err)
		}
	})
}
