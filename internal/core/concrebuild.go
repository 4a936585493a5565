package core

import (
	"sync"
	"sync/atomic"
	"time"

	"s4dcache/internal/cachespace"
	"s4dcache/internal/cdt"
	"s4dcache/internal/sim"
)

// Concurrent Rebuilder: each cycle's flush/fetch extents fan out to
// RebuildWorkers lanes by file hash, so all data movement for one file
// runs in submission order — the per-file ordering the epoch checks
// assume. A lane runs one task at a time as a chain of clock events: a
// task's completion starts the next through Clock.After(0), never inline
// on the backend's completion stack.

// crTask is one unit of Rebuilder data movement — or, with recover set,
// one file's warm-restart re-admission (concrecovery.go), which rides the
// same per-file lane routing for ordering and carries no cycle.
type crTask struct {
	flush    bool
	recover  bool
	file     string
	off      int64
	length   int64
	cacheOff int64
	cy       *crCycle
}

// rlane is one Rebuilder lane: a FIFO of the tasks dispatched to it and
// whether one of them is running. The queue drops its backing array when
// the lane goes idle.
type rlane struct {
	mu    sync.Mutex
	busy  bool
	queue []crTask
}

// crCycle counts one cycle's outstanding tasks.
type crCycle struct {
	c       *Concurrent
	pending atomic.Int32
}

func (cy *crCycle) taskDone() {
	if cy.pending.Add(-1) == 0 {
		cy.c.finishCycle()
	}
}

// every runs fn each period, on the clock, until Close: the periodic
// Rebuilder, adaptation and snapshot triggers.
func (c *Concurrent) every(period time.Duration, fn func()) {
	c.clock.After(period, func() {
		if !c.closed.Load() {
			fn()
			c.every(period, fn)
		}
	})
}

// RebuildNow runs one Rebuilder cycle, as S4D.RebuildNow but fanned across
// the lanes. Safe from any goroutine; overlapping calls join the
// in-flight cycle.
func (c *Concurrent) RebuildNow(done func()) {
	if c.closed.Load() {
		c.complete(done)
		return
	}
	c.rebuildMu.Lock()
	if done != nil {
		c.rebuildWaiters = append(c.rebuildWaiters, done)
	}
	busy := c.rebuildBusy
	c.rebuildBusy = true
	c.rebuildMu.Unlock()
	if busy {
		return
	}
	c.rebuildCycles.Add(1)

	flushes := c.DMT().DirtyExtents(c.rebuildBatch)
	var fetches []cdt.Fetch
	if !(c.faulty.Load() && c.degradedNow()) && !c.recovering.Load() {
		// No cache population while degraded or still warming up; flushes
		// stay allowed — they only drain recovered dirty data.
		fetches = c.CDT().PendingFetches(c.rebuildBatch)
	}
	total := len(flushes) + len(fetches)
	if total == 0 {
		c.finishCycle()
		return
	}
	cy := &crCycle{c: c}
	cy.pending.Store(int32(total))
	for _, h := range flushes {
		c.dispatch(crTask{flush: true, file: h.File, off: h.Off, length: h.Len, cacheOff: h.CacheOff, cy: cy})
	}
	for _, f := range fetches {
		c.dispatch(crTask{file: f.File, off: f.Off, length: f.Len, cy: cy})
	}
}

// dispatch queues a task on its file's lane and starts the lane if it is
// idle.
func (c *Concurrent) dispatch(t crTask) {
	l := &c.lanes[lane(t.file, len(c.lanes))]
	l.mu.Lock()
	l.queue = append(l.queue, t)
	idle := !l.busy
	l.busy = true
	l.mu.Unlock()
	if idle {
		c.clock.After(0, func() { c.runLane(l) })
	}
}

// runLane starts the lane's head task, or marks the lane idle when its
// queue is empty. The task's completion schedules runLane again.
func (c *Concurrent) runLane(l *rlane) {
	l.mu.Lock()
	if len(l.queue) == 0 {
		l.busy = false
		l.queue = nil
		l.mu.Unlock()
		return
	}
	t := l.queue[0]
	l.queue[0] = crTask{}
	l.queue = l.queue[1:]
	l.mu.Unlock()
	next := func() {
		c.clock.After(0, func() {
			if t.cy != nil {
				t.cy.taskDone()
			}
			c.runLane(l)
		})
	}
	switch {
	case t.recover:
		c.recoverFile(t.file, next)
	case t.flush:
		c.flushOne(t.file, t.off, t.length, t.cacheOff, next)
	default:
		c.fetchOne(t.file, t.off, t.length, next)
	}
}

// finishCycle closes out a cycle: prune epochs, release the busy latch and
// fire the waiters asynchronously.
func (c *Concurrent) finishCycle() {
	c.pruneEpochs()
	c.rebuildMu.Lock()
	c.rebuildBusy = false
	waiters := c.rebuildWaiters
	c.rebuildWaiters = nil
	c.rebuildMu.Unlock()
	for _, w := range waiters {
		c.complete(w)
	}
}

// flushOne writes one dirty cache extent back to the DServers and calls
// next once its I/O chain completes. The file's write epoch is captured
// under the shard mutex before the cache read and re-checked under it at
// the disk-write completion: any client write to the file in between bumps
// the epoch (under the same mutex) and the extent stays dirty for the next
// cycle.
func (c *Concurrent) flushOne(file string, off, length, cacheOff int64, next func()) {
	retry := func() {
		c.flushRetries.Add(1)
		next()
	}
	if c.faulty.Load() && c.cpfs.RangeDown(cacheOff, length) {
		retry()
		return
	}
	sh, shardIdx := c.shard(file)
	fid := c.arena.Intern(file)
	sh.mu.Lock()
	epoch := sh.fileEpoch[fid]
	busy := sh.writing[fid] != nil && sh.writing[fid].Load() > 0
	sh.mu.Unlock()
	if busy {
		// A client write's bytes may not have reached cacheOff yet.
		retry()
		return
	}
	// Dirty space is never reclaimed and dirty mappings only move through
	// this lane (per-file ordering), so cacheOff stays valid for the whole
	// flight unless the epoch check fails.
	buf := c.flushBuf(length)
	err := c.cpfs.Read(CacheFileName, cacheOff, length, sim.PriorityLow, buf, func(rerr error) {
		if rerr != nil {
			retry()
			return
		}
		werr := c.opfs.Write(file, off, length, sim.PriorityLow, buf, func(werr error) {
			sh.mu.Lock()
			switch {
			case werr != nil || sh.fileEpoch[fid] != epoch:
				c.flushRetries.Add(1)
			case !c.space.InRegion(shardIdx, cacheOff, length):
				// A dirty extent a warm restart adopted outside its file's
				// region: clean, it could be evicted under another shard's
				// mutex, so it leaves the cache instead.
				if c.dropFlushed(sh, file, off, length, cacheOff) {
					c.flushes.Add(1)
					c.bytesFlushed.Add(length)
				} else {
					c.flushRetries.Add(1)
				}
			case sh.dmt.SetClean(file, off, length) == nil:
				c.space.MarkClean(cacheOff, length)
				c.flushes.Add(1)
				c.bytesFlushed.Add(length)
			default:
				// The mapping changed shape (e.g. partial invalidation
				// during a crash); retry next cycle.
				c.flushRetries.Add(1)
			}
			sh.mu.Unlock()
			next()
		})
		if werr != nil {
			retry()
		}
	})
	if err != nil {
		retry()
	}
}

// dropFlushed unmaps and frees a flushed dirty extent instead of marking
// it clean. Caller holds the file's shard mutex. It refuses (the flush is
// retried) when the mapping moved since the flush read it, or while a
// read still pins the bytes: freed space may be handed out at once.
func (c *Concurrent) dropFlushed(sh *cshard, file string, off, length, cacheOff int64) bool {
	hits, gaps := sh.dmt.Lookup(file, off, length)
	if len(gaps) > 0 || len(hits) != 1 || hits[0].CacheOff != cacheOff ||
		c.space.Pinned(cacheOff, length) || sh.dmt.Delete(file, off, length) != nil {
		return false
	}
	c.space.FreeRange(cacheOff, length)
	return true
}

// fetchOne reads one C_flag-marked range from the DServers into the
// CServers, gap by gap, and calls next once done. Allocation and the final
// mapping insert run under the shard mutex; the epoch captured at
// allocation is re-checked before the insert so a client write racing the
// fetch wins and the stale disk bytes are dropped.
func (c *Concurrent) fetchOne(file string, off, length int64, next func()) {
	sh, shardIdx := c.shard(file)
	sh.mu.Lock()
	_, gaps := sh.dmt.Lookup(file, off, length)
	if len(gaps) == 0 {
		sh.cdt.ClearCFlag(file, off, length)
		sh.mu.Unlock()
		next()
		return
	}
	sh.mu.Unlock()

	var step func(i int)
	step = func(i int) {
		c.fetchGap(sh, shardIdx, file, gaps[i].Off, gaps[i].Len, func() {
			if i+1 < len(gaps) {
				// The next gap's allocation runs through the clock, off
				// the backend's completion stack.
				c.clock.After(0, func() { step(i + 1) })
				return
			}
			sh.mu.Lock()
			if sh.dmt.Contains(file, off, length) {
				sh.cdt.ClearCFlag(file, off, length)
			}
			sh.mu.Unlock()
			next()
		})
	}
	step(0)
}

// fetchGap moves one unmapped gap from the DServers into the cache and
// calls done once its I/O chain completes.
func (c *Concurrent) fetchGap(sh *cshard, shardIdx int, file string, off, length int64, done func()) {
	sh.mu.Lock()
	// The gap may have been filled (or partially filled) by a client write
	// since the cycle snapshot; only still-unmapped bytes are fetched, and
	// a partially-filled gap is simply skipped until the next cycle.
	if hits, _ := sh.dmt.Lookup(file, off, length); len(hits) > 0 {
		sh.mu.Unlock()
		done()
		return
	}
	fid := c.arena.Intern(file)
	if w := sh.writing[fid]; w != nil && w.Load() > 0 {
		// A client write that started before the epoch capture may not
		// have reached the DServers yet: the read below could cache the
		// bytes it replaces. Retry next cycle, as flushOne does.
		c.fetchRetries.Add(1)
		sh.mu.Unlock()
		done()
		return
	}
	// Eviction victims are unmapped by the cachespace eviction hook, under
	// the region mutex (unmap-before-free, DESIGN.md §12).
	frags, err := c.space.Allocate(nil, shardIdx, length, cachespace.Owner{File: file, FileOff: off}, true)
	if err != nil {
		c.fetchFailures.Add(1)
		sh.mu.Unlock()
		done()
		return
	}
	epoch := sh.fileEpoch[fid]
	sh.mu.Unlock()

	buf := c.flushBuf(length)
	abort := func() {
		for _, fr := range frags {
			c.space.FreeRange(fr.CacheOff, fr.Len)
		}
		done()
	}
	rerr := c.opfs.Read(file, off, length, sim.PriorityLow, buf, func(rerr error) {
		if rerr != nil {
			c.fetchRetries.Add(1)
			abort()
			return
		}
		sub := &segJoin{parent: func(error) {
			c.fetches.Add(1)
			c.bytesFetched.Add(length)
			done()
		}}
		sub.n.Store(int32(len(frags)))
		pos := off
		for _, fr := range frags {
			fr := fr
			segPos := pos
			werr := c.cpfs.Write(CacheFileName, fr.CacheOff, fr.Len, sim.PriorityLow, slice(buf, off, segPos, fr.Len), func(werr error) {
				sh.mu.Lock()
				if werr == nil && sh.fileEpoch[fid] == epoch {
					if sh.dmt.Insert(file, segPos, fr.Len, fr.CacheOff, false) == nil {
						c.space.MarkClean(fr.CacheOff, fr.Len)
					} else {
						c.fetchRetries.Add(1)
						c.space.FreeRange(fr.CacheOff, fr.Len)
					}
				} else {
					c.fetchRetries.Add(1)
					c.space.FreeRange(fr.CacheOff, fr.Len)
				}
				sh.mu.Unlock()
				sub.sub(nil)
			})
			if werr != nil {
				sub.sub(nil)
			}
			pos += fr.Len
		}
	})
	if rerr != nil {
		abort()
	}
}
