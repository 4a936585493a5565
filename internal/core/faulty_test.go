package core

import (
	"bytes"
	"math/rand"
	"testing"
	"time"
)

// TestDegradedModeCrashMidWorkload crashes a CServer in the middle of a
// critical write/read workload and checks the contract of degraded mode:
// every request still completes without a client-visible error, the data
// read back is exactly what a no-cache system would return, and the
// failure counters record the outage.
func TestDegradedModeCrashMidWorkload(t *testing.T) {
	// CServer 1 crashes at 5ms — mid-workload — and restarts 15ms later.
	tb := newFaultyTestbed(t, "crash:cpfs1@5ms+15ms", 1, nil)

	const (
		slots    = 256
		slotSize = int64(16 << 10)
	)
	rng := rand.New(rand.NewSource(11))
	order := rng.Perm(slots)

	var (
		writesDone   bool
		readsPending int
		opErrors     int
	)
	// Chained critical writes, each slot written exactly once; every fourth
	// completion fires an unchained read-back of an already-written slot,
	// verified against the written pattern. Reads that land on a crashed
	// CServer's dirty extents are deferred and complete after the restart.
	var issue func(i int)
	issue = func(i int) {
		if i == slots {
			writesDone = true
			return
		}
		slot := order[i]
		off := critOff + int64(slot)*slotSize
		if err := tb.s4d.Write(0, "f", off, slotSize, pattern(byte(slot), int(slotSize)), func(err error) {
			if err != nil {
				opErrors++
			}
			if i%4 == 3 {
				back := order[rng.Intn(i+1)]
				backOff := critOff + int64(back)*slotSize
				buf := make([]byte, slotSize)
				readsPending++
				if err := tb.s4d.Read(1, "f", backOff, slotSize, buf, func(err error) {
					readsPending--
					if err != nil {
						opErrors++
					}
					if !bytes.Equal(buf, pattern(byte(back), int(slotSize))) {
						t.Errorf("read-back of slot %d returned wrong bytes", back)
					}
				}); err != nil {
					t.Error(err)
					readsPending--
				}
			}
			issue(i + 1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	issue(0)
	tb.eng.RunWhile(func() bool { return !writesDone || readsPending > 0 })
	if !writesDone || readsPending != 0 {
		t.Fatalf("workload stalled: writesDone=%v readsPending=%d", writesDone, readsPending)
	}
	if opErrors != 0 {
		t.Fatalf("%d requests surfaced errors; degraded mode must absorb the crash", opErrors)
	}
	if now := tb.eng.Now(); now < 20*time.Millisecond {
		t.Fatalf("workload finished at %v, before the restart — the crash was not mid-workload", now)
	}

	// Final sweep: every slot must read back exactly as written (the
	// no-cache oracle — the DServers plus surviving cache state agree).
	for slot := 0; slot < slots; slot++ {
		off := critOff + int64(slot)*slotSize
		got := tb.read(t, 2, "f", off, slotSize)
		if !bytes.Equal(got, pattern(byte(slot), int(slotSize))) {
			t.Fatalf("slot %d corrupted after crash/restart", slot)
		}
	}

	st := tb.s4d.Stats()
	if st.Failovers == 0 {
		t.Error("Failovers = 0; the outage should have redirected critical traffic")
	}
	if st.DegradedTime != 15*time.Millisecond {
		t.Errorf("DegradedTime = %v, want exactly the 15ms outage", st.DegradedTime)
	}
	if st.DirtyLost != 0 {
		t.Errorf("DirtyLost = %d after a restarting crash; dirty data must be re-absorbed", st.DirtyLost)
	}
}

// TestDrainRebuildNoProgress pins the Rebuilder's termination contract:
// when every pending fetch fails (the flagged range exceeds the whole
// cache), DrainRebuild must return instead of spinning, leaving the work
// pending for later cycles.
func TestDrainRebuildNoProgress(t *testing.T) {
	tb := newTestbed(t, func(c *Config) { c.CacheCapacity = 16 << 10 })

	// A critical read miss marks a 64KB C_flag range — four times the
	// cache. Every fetch attempt must fail for lack of space.
	tb.read(t, 0, "f", critOff, 64<<10)
	if !tb.s4d.RebuildPending() {
		t.Fatal("no pending fetch; the read was not marked critical")
	}

	drained := false
	tb.s4d.DrainRebuild(func() { drained = true })
	tb.eng.RunWhile(func() bool { return !drained })
	if !drained {
		t.Fatal("DrainRebuild never completed (event queue drained)")
	}
	st := tb.s4d.Stats()
	if st.FetchFailures == 0 {
		t.Error("FetchFailures = 0; the oversized fetch should have failed")
	}
	if st.Fetches != 0 {
		t.Errorf("Fetches = %d, want 0 — nothing can fit", st.Fetches)
	}
	if !tb.s4d.RebuildPending() {
		t.Error("pending fetch was dropped; it must stay queued for later cycles")
	}
}

// TestDrainRebuildOutlastsLostFlush: a client write that lands while a
// file's only dirty extent is being flushed makes the flush lose its epoch
// check. That cycle moved no data but took virtual time, so the drain must
// go on and flush the newer bytes: one DrainRebuild leaves nothing pending.
func TestDrainRebuildOutlastsLostFlush(t *testing.T) {
	for _, d := range []struct {
		name  string
		build func(t *testing.T, b eqSimBed) eqTarget
	}{
		{"S4D", func(t *testing.T, b eqSimBed) eqTarget { return b.s4d(t) }},
		{"Concurrent", func(t *testing.T, b eqSimBed) eqTarget { return b.target(b.concurrent(t, nil)) }},
	} {
		t.Run(d.name, func(t *testing.T) {
			b := newEqSimBed(t)
			tb := d.build(t, b)
			const size = 16 << 10
			tb.await(t, func(done func(error)) error {
				return tb.eng.Write(0, "f", critOff, size, pattern(1, size), done)
			})
			if !tb.eng.RebuildPending() {
				t.Fatal("the critical write left no dirty data")
			}

			drained := false
			tb.eng.DrainRebuild(func() { drained = true })
			// The flush captured the file's epoch when it started; this
			// write lands while the flush's I/O is in flight.
			b.eng.After(time.Microsecond, func() {
				err := tb.eng.Write(0, "f", critOff, size, pattern(2, size), func(err error) {
					if err != nil {
						t.Error(err)
					}
				})
				if err != nil {
					t.Error(err)
				}
			})
			b.eng.RunWhile(func() bool { return !drained })
			if !drained {
				t.Fatal("DrainRebuild never completed")
			}
			if tb.core.flushRetries.Load() == 0 {
				t.Fatal("no flush lost its epoch check; the write did not land mid-flush")
			}
			if tb.eng.RebuildPending() {
				t.Error("dirty data left after a drain whose first flush lost to a newer write")
			}
		})
	}
}

// TestDrainRebuildFetchRetriesAfterSpaceFrees is the companion property:
// a fetch that fails while the cache is wholly dirty succeeds on a later
// cycle of the same drain, once flushes have freed space.
func TestDrainRebuildFetchRetriesAfterSpaceFrees(t *testing.T) {
	tb := newTestbed(t, func(c *Config) { c.CacheCapacity = 32 << 10 })

	// Fill the cache with dirty critical writes (2 × 16KB = capacity).
	tb.write(t, 0, "f", critOff, pattern(1, 16<<10))
	tb.write(t, 0, "f", critOff+64<<20, pattern(2, 16<<10))
	// A critical read miss elsewhere queues a 16KB fetch it has no room for.
	tb.read(t, 0, "g", critOff, 16<<10)
	if !tb.s4d.RebuildPending() {
		t.Fatal("no pending fetch")
	}

	drained := false
	tb.s4d.DrainRebuild(func() { drained = true })
	tb.eng.RunWhile(func() bool { return !drained })
	if !drained {
		t.Fatal("DrainRebuild never completed")
	}
	st := tb.s4d.Stats()
	if st.FetchFailures == 0 {
		t.Error("FetchFailures = 0; the first cycle's fetch should have failed while the cache was dirty")
	}
	if st.Fetches == 0 {
		t.Error("Fetches = 0; the fetch should have succeeded after flushes freed space")
	}
	if tb.s4d.RebuildPending() {
		t.Error("work still pending after a successful drain")
	}
}
