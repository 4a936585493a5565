package core

import (
	"sync/atomic"
	"time"

	"s4dcache/internal/cachespace"
	"s4dcache/internal/cdt"
	"s4dcache/internal/sim"
)

// Concurrent Rebuilder: each cycle's flush/fetch extents fan out to a
// fixed pool of worker goroutines. Tasks route to workers by file hash, so
// all data movement for one file runs on one worker in submission order —
// the per-file ordering the epoch checks assume. Workers execute one task
// at a time, blocking on its asynchronous I/O chain before taking the
// next; cross-file parallelism comes from the pool width.

// crTask is one unit of Rebuilder data movement — or, with recover set,
// one file's warm-restart re-admission (concrecovery.go), which rides the
// same per-file worker routing for ordering and carries no cycle.
type crTask struct {
	flush    bool
	recover  bool
	file     string
	off      int64
	length   int64
	cacheOff int64
	cy       *crCycle
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

// armRebuild schedules the next periodic cycle; it re-arms itself until
// Close.
func (c *Concurrent) armRebuild(period time.Duration) {
	c.clock.After(period, func() {
		if c.closed.Load() {
			return
		}
		c.RebuildNow(nil)
		c.armRebuild(period)
	})
}

// RebuildNow runs one Rebuilder cycle, as S4D.RebuildNow but fanned across
// the worker pool. Safe from any goroutine; overlapping calls join the
// in-flight cycle.
func (c *Concurrent) RebuildNow(done func()) {
	if c.closed.Load() {
		c.complete(done)
		return
	}
	c.rebuildMu.Lock()
	if c.rebuildBusy {
		if done != nil {
			c.rebuildWaiters = append(c.rebuildWaiters, done)
		}
		c.rebuildMu.Unlock()
		return
	}
	c.rebuildBusy = true
	if done != nil {
		c.rebuildWaiters = append(c.rebuildWaiters, done)
	}
	c.rebuildMu.Unlock()
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

// dispatch routes a task to its file's worker. Channels are sized for a
// full cycle (2×batch), and cycles never overlap, so the send does not
// block on worker progress.
func (c *Concurrent) dispatch(t crTask) {
	c.workerCh[lane(t.file, len(c.workerCh))] <- t
}

func (c *Concurrent) rebuildWorker(ch chan crTask) {
	for {
		select {
		case <-c.quit:
			return
		case t := <-ch:
			switch {
			case t.recover:
				c.recoverFile(t.file)
			case t.flush:
				c.flushOne(t.file, t.off, t.length, t.cacheOff)
			default:
				c.fetchOne(t.file, t.off, t.length)
			}
			if t.cy != nil {
				t.cy.taskDone()
			}
		}
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

// flushOne writes one dirty cache extent back to the DServers and blocks
// until its I/O chain completes. The file's write epoch is captured under
// the shard mutex before the cache read and re-checked under it at the
// disk-write completion: any client write to the file in between bumps the
// epoch (under the same mutex) and the extent stays dirty for the next
// cycle.
func (c *Concurrent) flushOne(file string, off, length, cacheOff int64) {
	if c.faulty.Load() && c.cpfs.RangeDown(cacheOff, length) {
		c.flushRetries.Add(1)
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
		c.flushRetries.Add(1)
		return
	}
	// Dirty space is never reclaimed and dirty mappings only move through
	// this worker (per-file ordering), so cacheOff stays valid for the
	// whole flight unless the epoch check fails.
	buf := c.flushBuf(length)
	done := make(chan struct{})
	err := c.cpfs.Read(CacheFileName, cacheOff, length, sim.PriorityLow, buf, func(rerr error) {
		if rerr != nil {
			c.flushRetries.Add(1)
			close(done)
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
			close(done)
		})
		if werr != nil {
			c.flushRetries.Add(1)
			close(done)
		}
	})
	if err != nil {
		c.flushRetries.Add(1)
		return
	}
	<-done
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
// CServers, gap by gap, and blocks until done. Allocation and the final
// mapping insert run under the shard mutex; the epoch captured at
// allocation is re-checked before the insert so a client write racing the
// fetch wins and the stale disk bytes are dropped.
func (c *Concurrent) fetchOne(file string, off, length int64) {
	sh, shardIdx := c.shard(file)
	sh.mu.Lock()
	_, gaps := sh.dmt.Lookup(file, off, length)
	if len(gaps) == 0 {
		sh.cdt.ClearCFlag(file, off, length)
		sh.mu.Unlock()
		return
	}
	todo := make([]struct{ off, length int64 }, len(gaps))
	for i, g := range gaps {
		todo[i] = struct{ off, length int64 }{g.Off, g.Len}
	}
	sh.mu.Unlock()

	for _, g := range todo {
		c.fetchGap(sh, shardIdx, file, g.off, g.length)
	}

	sh.mu.Lock()
	if sh.dmt.Contains(file, off, length) {
		sh.cdt.ClearCFlag(file, off, length)
	}
	sh.mu.Unlock()
}

// fetchGap moves one unmapped gap from the DServers into the cache and
// blocks until its I/O chain completes.
func (c *Concurrent) fetchGap(sh *cshard, shardIdx int, file string, off, length int64) {
	sh.mu.Lock()
	// The gap may have been filled (or partially filled) by a client write
	// since the cycle snapshot; only still-unmapped bytes are fetched, and
	// a partially-filled gap is simply skipped until the next cycle.
	if hits, _ := sh.dmt.Lookup(file, off, length); len(hits) > 0 {
		sh.mu.Unlock()
		return
	}
	fid := c.arena.Intern(file)
	if w := sh.writing[fid]; w != nil && w.Load() > 0 {
		// A client write that started before the epoch capture may not
		// have reached the DServers yet: the read below could cache the
		// bytes it replaces. Retry next cycle, as flushOne does.
		c.fetchRetries.Add(1)
		sh.mu.Unlock()
		return
	}
	// Eviction victims are unmapped by the cachespace eviction hook, under
	// the region mutex (unmap-before-free, DESIGN.md §12).
	frags, err := c.space.Allocate(nil, shardIdx, length, cachespace.Owner{File: file, FileOff: off}, true)
	if err != nil {
		c.fetchFailures.Add(1)
		sh.mu.Unlock()
		return
	}
	epoch := sh.fileEpoch[fid]
	sh.mu.Unlock()

	buf := c.flushBuf(length)
	done := make(chan struct{})
	abort := func() {
		for _, fr := range frags {
			c.space.FreeRange(fr.CacheOff, fr.Len)
		}
		close(done)
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
			close(done)
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
	<-done
}
