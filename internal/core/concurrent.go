package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"s4dcache/internal/cachespace"
	"s4dcache/internal/costmodel"
	"s4dcache/internal/dmt"
	"s4dcache/internal/extent"
	"s4dcache/internal/kvstore"
	"s4dcache/internal/pfs"
	"s4dcache/internal/sim"
)

// Backend is the PFS surface the concurrent engine drives. Both the
// virtual-time *pfs.FS and the wall-clock *pfs.WallFS satisfy it; the
// concurrent engine only requires that Write/Read never run their
// completion synchronously (the sim.Clock invariant) and that all methods
// are safe for the callers the instance is built for. In turn, a done
// passed to Write/Read must not block: a backend may run it where other
// completions wait for it (pfs.FS runs it on the virtual-time event
// loop; WallFS runs it on the request's own goroutine), so it may take
// briefly held locks but must never wait for another completion or a
// peer.
type Backend interface {
	Write(file string, off, size int64, pri sim.Priority, data []byte, done func(error)) error
	Read(file string, off, size int64, pri sim.Priority, buf []byte, done func(error)) error
	RangeDown(off, size int64) bool
	Layout() pfs.Layout
}

var (
	_ Backend = (*pfs.FS)(nil)
	_ Backend = (*pfs.WallFS)(nil)
)

// payloadStorer is the optional Backend capability *pfs.FS and
// *pfs.WallFS report: whether payload bytes are kept at all.
type payloadStorer interface {
	StoresPayload() bool
}

// storesPayload reports whether b keeps payload bytes. A backend that
// does not say is assumed to.
func storesPayload(b Backend) bool {
	p, ok := b.(payloadStorer)
	return !ok || p.StoresPayload()
}

// ConcurrentConfig assembles a Concurrent engine.
type ConcurrentConfig struct {
	// Clock supplies time and timers; sim.NewWallClock for real
	// multi-goroutine execution.
	Clock sim.Clock
	// OPFS and CPFS are the two goroutine-safe PFS backends.
	OPFS, CPFS Backend
	// Model is the calibrated cost model.
	Model costmodel.Params
	// CacheCapacity is total cache space, divided evenly across shards.
	CacheCapacity int64
	// CDTMaxBytes bounds the critical data table; 0 means unbounded.
	CDTMaxBytes int64
	// RebuildPeriod triggers the Rebuilder every period; 0 disables it.
	RebuildPeriod time.Duration
	// RebuildBatch caps extents flushed and fetched per cycle; 0 means 64.
	RebuildBatch int
	// RebuildWorkers is the Rebuilder's lane count: at most this many
	// flush/fetch tasks are in flight, one per lane; 0 means 4.
	RebuildWorkers int
	// MetaStore, if non-nil, persists the DMT through this store (each
	// shard's table logs into the same store). The engine recovers the
	// cache residency the store records at construction (DESIGN.md §14):
	// dirty extents re-admit synchronously, clean extents incrementally on
	// the Rebuilder lanes while the engine serves degraded
	// (read-around). A fresh store starts cold.
	MetaStore *kvstore.Store
	// MetaBudget bounds the DMT's resident metadata bytes across all
	// shards (DESIGN.md §16): over budget, cold clean files spill to
	// sealed MetaStore records and fault back in on demand. 0 means
	// unbounded. Requires MetaStore.
	MetaBudget int64
	// SpillRead, if set, observes every spill-record read before it is
	// decoded on fault-in — the fault injector's corruption hook.
	SpillRead func(name string, data []byte) []byte
	// Policy selects the admission policy; zero value = PolicyBenefit.
	Policy AdmissionPolicy
	// Concurrency is the shard count — the number of independent serve
	// lanes. 0 means 8. Files hash onto shards; clients may call from any
	// number of goroutines regardless of this value.
	Concurrency int
	// Faulty enables the degraded-mode checks on the serve path from the
	// start (required when servers may crash before the first failure).
	Faulty bool
	// CachePolicy selects the cache-space eviction/admission policy by
	// name (cachespace.PolicyNames), applied to every shard region.
	// Empty means the clean-LRU default.
	CachePolicy string
	// AdaptivePeriod enables the online workload characterizer: every
	// period the engine snapshots the windowed access profile and may
	// swap the cache policy of all regions, retune the criticality
	// threshold and cap the CDT live (DESIGN.md §13.4). Zero disables
	// adaptation. Only meaningful under PolicyBenefit.
	AdaptivePeriod time.Duration
	// SnapshotPeriod streams residency and CDT state into MetaStore every
	// period, riding the DMT's copy-on-write compaction (DESIGN.md §14).
	// Zero disables snapshotting. Requires MetaStore.
	SnapshotPeriod time.Duration
	// RecoverBatch caps clean extents re-admitted per shard-mutex hold
	// during recovery; 0 means 256.
	RecoverBatch int
}

// Concurrent is the sharded, goroutine-safe driver of the shared engine
// (the "concurrent redirection engine"). It implements the same
// Algorithm-1 routing as S4D but routes every request by file hash onto
// one of Concurrency shards, each with its own mutex, cost-model tracker,
// file epochs, cache-space region and DMT/CDT tables holding exactly its
// files. The Rebuilder fans flush/fetch work across RebuildWorkers lanes
// with per-file ordering. Every timed or deferred action, Rebuilder and
// warm-restart work included, is a Clock.After callback, so the engine
// starts no goroutine of its own: on sim.Engine it runs in virtual time,
// on the wall clock its callbacks run on the clock's goroutines.
//
// The engine is always lazy-fetch (the paper's behaviour) and never
// charges metadata I/O; those ablations stay on the deterministic S4D
// driver.
//
// Every read and write runs under its shard mutex, identify included, and
// that mutex guards the shard's tables. Lock order (DESIGN.md §12): core
// shard mutex → cachespace region mutex → kvstore shard mutex. Leaf
// mutexes (deferred-read list, degraded map, join error slots) are taken
// below all of these. No path holds two region mutexes at once; only the
// snapshot's DMT compaction holds more than one shard mutex (all, in
// index order). The eviction hook unmaps a victim under region r's mutex
// with no lock of its own: Allocate in region r runs under shard r's
// mutex, and every clean unit in region r belongs to a file of shard r.
type Concurrent struct {
	engine

	// Rebuilder cycle state (concrebuild.go).
	rebuildMu      sync.Mutex
	rebuildBusy    bool
	rebuildWaiters []func()
	lanes          []rlane
	closed         atomic.Bool

	// recoverLeft counts files still queued on the lanes during a warm
	// restart (concrecovery.go).
	recoverLeft atomic.Int32
}

// NewConcurrent builds a Concurrent engine.
func NewConcurrent(cfg ConcurrentConfig) (*Concurrent, error) {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.RebuildWorkers <= 0 {
		cfg.RebuildWorkers = 4
	}
	c := &Concurrent{lanes: make([]rlane, cfg.RebuildWorkers)}
	err := c.init(engineConfig{
		clock:        cfg.Clock,
		opfs:         cfg.OPFS,
		cpfs:         cfg.CPFS,
		model:        cfg.Model,
		capacity:     cfg.CacheCapacity,
		cdtMax:       cfg.CDTMaxBytes,
		shards:       cfg.Concurrency,
		policy:       cfg.Policy,
		cachePolicy:  cfg.CachePolicy,
		rebuildBatch: cfg.RebuildBatch,
		metaStore:    cfg.MetaStore,
		metaBudget:   cfg.MetaBudget,
		spillRead:    cfg.SpillRead,
		adaptive:     cfg.AdaptivePeriod > 0,
		snapshot:     cfg.SnapshotPeriod > 0,
		recoverBatch: cfg.RecoverBatch,
		faulty:       cfg.Faulty,
	}, c)
	if err != nil {
		return nil, err
	}
	if cfg.MetaStore != nil {
		// Before any ticker: the synchronous dirty installs must finish
		// before other goroutines touch the engine.
		if err := c.beginRecovery(); err != nil {
			c.Close()
			return nil, err
		}
	}
	if cfg.RebuildPeriod > 0 {
		c.every(cfg.RebuildPeriod, func() { c.RebuildNow(nil) })
	}
	if cfg.AdaptivePeriod > 0 {
		c.every(cfg.AdaptivePeriod, c.adaptTick)
	}
	if cfg.SnapshotPeriod > 0 {
		c.every(cfg.SnapshotPeriod, c.snapshotTick)
	}
	return c, nil
}

// Close stops the periodic Rebuilder, adaptation and snapshot triggers;
// a later RebuildNow completes at once without running a cycle. Tasks
// already queued on the lanes, an in-flight cycle's included, run to
// completion, so that cycle's callbacks still fire.
func (c *Concurrent) Close() {
	c.closed.Store(true)
}

// countdown is a join's outstanding-reference count and first error.
type countdown struct {
	n   atomic.Int32
	mu  sync.Mutex
	err error
}

// drop releases one reference, recording err, and reports whether it was
// the last. The atomic decrement orders every recorded error before the
// last reference's read of err.
func (c *countdown) drop(err error) bool {
	if err != nil {
		c.mu.Lock()
		if c.err == nil {
			c.err = err
		}
		c.mu.Unlock()
	}
	return c.n.Add(-1) == 0
}

// conJoin joins one request's cache/disk segments. Segment completions
// (sub) may run on any goroutine. n counts the segments plus one
// reference Read/Write holds until it has issued them all (release), so
// the join can only finish in one of two places: on the last backend
// completion, which runs done inline (backends complete on a goroutine
// that holds no engine lock), or in release, inside the issuing call —
// under the shard mutex for a Write, after it for a Read — which defers
// done through the clock. A Write abandoned on an error path never
// releases, so its join never completes.
type conJoin struct {
	countdown
	c       *Concurrent
	done    func(error)
	writing *atomic.Int32 // a write's in-flight count, dropped at completion
}

func newConJoin(c *Concurrent, segments int, done func(error), writing *atomic.Int32) *conJoin {
	j := &conJoin{c: c, done: done, writing: writing}
	j.n.Store(int32(segments) + 1)
	return j
}

// finish drops a write's in-flight count and reports whether there is a
// done to run.
func (j *conJoin) finish() bool {
	if j.writing != nil {
		j.writing.Add(-1)
	}
	return j.done != nil
}

// sub is a segment completion.
func (j *conJoin) sub(err error) {
	if j.drop(err) && j.finish() {
		j.done(j.err)
	}
}

// release drops the issuing call's reference.
func (j *conJoin) release() {
	if j.drop(nil) && j.finish() {
		done, err := j.done, j.err
		j.c.clock.After(0, func() { done(err) })
	}
}

// segJoin joins the fragments of one miss segment into a single parent
// completion (a conJoin.sub). Unlike conJoin it fires the parent directly:
// sub is safe to call from any goroutine. A caller that may complete
// fragments under a shard mutex counts itself in n and releases after
// unlocking (releaseVia).
type segJoin struct {
	countdown
	parent func(error)
}

func (j *segJoin) sub(err error) {
	if j.drop(err) {
		j.parent(j.err)
	}
}

// releaseVia drops the caller's reference; if every fragment already
// finished, the parent runs through the clock, not in the caller.
func (j *segJoin) releaseVia(clock sim.Clock) {
	if j.drop(nil) {
		err := j.err
		clock.After(0, func() { j.parent(err) })
	}
}

// Write intercepts an application write of file[off, off+size) by rank.
// Safe to call from any goroutine; done runs asynchronously when all
// segments complete, with the first segment error. done must not block:
// it may run where other completions wait for it (see Backend).
func (c *Concurrent) Write(rank int, file string, off, size int64, data []byte, done func(error)) error {
	if err := checkRange(off, size, data); err != nil {
		return err
	}
	if size == 0 {
		c.completeErr(done)
		return nil
	}
	sh, shardIdx := c.shard(file)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.stats.writes.Add(1)
	sh.stats.bytesWritten.Add(size)
	fid := c.arena.Intern(file)
	sh.fileEpoch[fid]++
	writing := sh.writing[fid]
	if writing == nil {
		writing = new(atomic.Int32)
		sh.writing[fid] = writing
	}
	if c.recovering.Load() {
		// The write's bytes supersede any still-queued recovered extents
		// it overlaps (durably, so a crash mid-recovery cannot resurrect
		// them); membership is guarded by the shard mutex held here.
		c.supersede(sh, file, off, size)
	}

	benefit, _ := c.identify(sh, rank, file, off, size, true)

	sh.hitsBuf, sh.gapsBuf = sh.dmt.AppendLookup(sh.hitsBuf[:0], sh.gapsBuf[:0], file, off, size)
	hits, gaps := sh.hitsBuf, sh.gapsBuf
	j := newConJoin(c, len(hits)+len(gaps), done, writing)
	writing.Add(1)

	faulty := c.faulty.Load()
	for _, h := range hits {
		if faulty && c.cpfs.RangeDown(h.CacheOff, h.Len) {
			// Cached copy sits on a crashed CServer; the write supersedes
			// it — unmap and fail the segment over to the DServers.
			sh.stats.failovers.Add(1)
			if err := sh.dmt.Delete(file, h.Off, h.Len); err != nil {
				writing.Add(-1) // abandoned: the join never completes
				return fmt.Errorf("core: failover unmap: %w", err)
			}
			c.space.FreeRange(h.CacheOff, h.Len)
			sh.stats.segWritesDisk.Add(1)
			sh.stats.bytesWriteDisk.Add(h.Len)
			if err := c.opfs.Write(file, h.Off, h.Len, sim.PriorityHigh, slice(data, off, h.Off, h.Len), j.sub); err != nil {
				j.sub(err)
			}
			continue
		}
		sh.stats.segWritesCache.Add(1)
		sh.stats.bytesWriteCache.Add(h.Len)
		// Re-dirty before issuing: dirty space is never reclaimed, so the
		// in-flight destination cannot be evicted by another shard's
		// allocation (regions are per-shard) or this shard's (serialized).
		if err := sh.dmt.SetDirty(file, h.Off, h.Len); err != nil {
			writing.Add(-1) // abandoned: the join never completes
			return fmt.Errorf("core: set dirty: %w", err)
		}
		c.space.MarkDirty(h.CacheOff, h.Len)
		c.space.Touch(h.CacheOff, h.Len)
		seg := slice(data, off, h.Off, h.Len)
		cb := j.sub
		if faulty {
			h := h
			cb = func(err error) {
				if err == nil {
					j.sub(nil)
					return
				}
				c.absorbFailed(file, h.Off, h.Len, h.CacheOff, seg, j.sub)
			}
		}
		if err := c.cpfs.Write(CacheFileName, h.CacheOff, h.Len, sim.PriorityHigh, seg, cb); err != nil {
			j.sub(err)
		}
	}

	for _, g := range gaps {
		if c.admitWrite(sh, file, g.Off, g.Len, benefit) {
			if faulty && c.degradedNow() {
				sh.stats.failovers.Add(1)
			} else {
				c.absorbWrite(sh, shardIdx, file, g.Off, g.Len, slice(data, off, g.Off, g.Len), j, faulty)
				continue
			}
		}
		sh.stats.segWritesDisk.Add(1)
		sh.stats.bytesWriteDisk.Add(g.Len)
		if err := c.opfs.Write(file, g.Off, g.Len, sim.PriorityHigh, slice(data, off, g.Off, g.Len), j.sub); err != nil {
			j.sub(err)
		}
	}
	j.release()
	return nil
}

// Read intercepts an application read of file[off, off+size) by rank. Safe
// to call from any goroutine. The shard mutex covers identify, the DMT
// lookup and the pinning of every cache hit; the pinned hits are issued
// after it drops, and the pins keep reclaim from handing their bytes to
// another owner until each read completes. As for Write, done runs
// asynchronously and must not block.
func (c *Concurrent) Read(rank int, file string, off, size int64, buf []byte, done func(error)) error {
	if err := checkRange(off, size, buf); err != nil {
		return err
	}
	if size == 0 {
		c.completeErr(done)
		return nil
	}
	sh, _ := c.shard(file)
	j := &conJoin{c: c, done: done}
	sh.mu.Lock()
	sh.stats.reads.Add(1)
	sh.stats.bytesRead.Add(size)

	benefit, recorded := c.identify(sh, rank, file, off, size, false)

	// The lookup fills buffers on this call's stack, not the shard's
	// scratch: the hits are issued after the mutex drops.
	var hitBuf [4]dmt.Hit
	var gapBuf [2]extent.Gap
	hits, gaps := sh.dmt.AppendLookup(hitBuf[:0], gapBuf[:0], file, off, size)
	j.n.Store(int32(len(hits)+len(gaps)) + 1)

	pinned := hits[:0]
	faulty := c.faulty.Load()
	for _, h := range hits {
		if faulty && c.cpfs.RangeDown(h.CacheOff, h.Len) {
			// Only up-to-date copy is dirty data on a crashed, restarting
			// CServer: park until the restart.
			c.deferRead(sh, file, h.Off, h.Len, slice(buf, off, h.Off, h.Len), j.sub)
			continue
		}
		sh.stats.segReadsCache.Add(1)
		sh.stats.bytesReadCache.Add(h.Len)
		c.space.TouchPin(h.CacheOff, h.Len)
		pinned = append(pinned, h)
	}
	for _, g := range gaps {
		critical := benefit > c.threshold() || sh.cdt.Contains(file, g.Off, g.Len)
		if critical {
			// Always lazy: mark for the Rebuilder (Algorithm 1, line 18).
			fr := flagRange(recorded, off, size, g)
			sh.cdt.SetCFlag(file, fr.Off, fr.Len)
			sh.stats.lazyMarks.Add(1)
		}
		sh.stats.segReadsDisk.Add(1)
		sh.stats.bytesReadDisk.Add(g.Len)
		if err := c.opfs.Read(file, g.Off, g.Len, sim.PriorityHigh, slice(buf, off, g.Off, g.Len), j.sub); err != nil {
			j.sub(err)
		}
	}
	sh.mu.Unlock()
	for _, h := range pinned {
		c.readPinned(file, off, buf, h, j)
	}
	j.release()
	return nil
}

// readPinned issues one pinned cache hit of the read of file[off, ...)
// into buf, without the shard mutex; its completion unpins the range.
func (c *Concurrent) readPinned(file string, off int64, buf []byte, h dmt.Hit, j *conJoin) {
	seg := slice(buf, off, h.Off, h.Len)
	cb := func(err error) {
		c.space.Unpin(h.CacheOff, h.Len)
		if err == nil || !c.faulty.Load() {
			j.sub(err)
			return
		}
		// A crash raced the in-flight read (faulty may flip after
		// issue): resolve through the degraded-mode rerouter.
		c.readFailed(err, file, h.Off, h.Len, seg, j.sub)
	}
	if err := c.cpfs.Read(CacheFileName, h.CacheOff, h.Len, sim.PriorityHigh, seg, cb); err != nil {
		c.space.Unpin(h.CacheOff, h.Len)
		j.sub(err)
	}
}

// absorbWrite allocates cache space in the shard's region for a critical
// write miss and writes the segment to the CServers. Runs under the shard
// mutex; all eviction victims belong to this shard, so their mapping
// deletions are race-free.
func (c *Concurrent) absorbWrite(sh *cshard, shardIdx int, file string, off, length int64, data []byte, j *conJoin, faulty bool) {
	// Eviction victims have their DMT mappings dropped by the cachespace
	// eviction hook, under the region mutex and before the bytes rejoin
	// the free pool (unmap-before-free, DESIGN.md §12).
	frags, err := c.space.Allocate(sh.fragsBuf[:0], shardIdx, length, cachespace.Owner{File: file, FileOff: off}, true)
	sh.fragsBuf = frags
	if err != nil {
		sh.stats.admitFailures.Add(1)
		sh.stats.segWritesDisk.Add(1)
		sh.stats.bytesWriteDisk.Add(length)
		if werr := c.opfs.Write(file, off, length, sim.PriorityHigh, data, j.sub); werr != nil {
			j.sub(werr)
		}
		return
	}
	sh.stats.admissions.Add(1)
	sh.stats.segWritesCache.Add(1)
	sh.stats.bytesWriteCache.Add(length)
	sh.insertsBuf = sh.insertsBuf[:0]
	pos := off
	for _, fr := range frags {
		sh.insertsBuf = append(sh.insertsBuf, dmt.FragmentInsert{
			Off: pos, Length: fr.Len, CacheOff: fr.CacheOff, Dirty: true,
		})
		pos += fr.Len
	}
	if err := sh.dmt.InsertBatch(file, sh.insertsBuf); err != nil {
		j.sub(fmt.Errorf("core: map fragments: %w", err))
		return
	}
	sub := &segJoin{parent: j.sub}
	sub.n.Store(int32(len(frags)))
	pos = off
	for _, fr := range frags {
		seg := slice(data, off, pos, fr.Len)
		cb := sub.sub
		if faulty {
			fr, pos := fr, pos
			cb = func(err error) {
				if err == nil {
					sub.sub(nil)
					return
				}
				c.absorbFailed(file, pos, fr.Len, fr.CacheOff, seg, sub.sub)
			}
		}
		if err := c.cpfs.Write(CacheFileName, fr.CacheOff, fr.Len, sim.PriorityHigh, seg, cb); err != nil {
			sub.sub(err)
		}
		pos += fr.Len
	}
}
