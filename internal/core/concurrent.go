package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"s4dcache/internal/cachespace"
	"s4dcache/internal/cdt"
	"s4dcache/internal/costmodel"
	"s4dcache/internal/dmt"
	"s4dcache/internal/extent"
	"s4dcache/internal/kvstore"
	"s4dcache/internal/names"
	"s4dcache/internal/pfs"
	"s4dcache/internal/sim"
	"s4dcache/internal/staterec"
)

// Backend is the PFS surface the concurrent engine drives. Both the
// virtual-time *pfs.FS and the wall-clock *pfs.WallFS satisfy it; the
// concurrent engine only requires that Write/Read never run their
// completion synchronously (the sim.Clock invariant) and that all methods
// are safe for the callers the instance is built for. In turn, a done
// passed to Write/Read must not block: a backend may run it on a
// goroutine that completes other requests too (WallFS's per-server
// drainer), so it may take briefly held locks but must never wait for
// another completion or a peer.
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
	// RebuildWorkers sizes the Rebuilder's worker pool; 0 means 4.
	RebuildWorkers int
	// MetaStore, if non-nil, persists the DMT through this store (the
	// sharded engine uses the lock-striped table over the same store).
	MetaStore *kvstore.Store
	// MetaBudget bounds the DMT's resident metadata bytes across all
	// stripes (DESIGN.md §16): over budget, cold clean files spill to
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
	// WarmRestart recovers cache residency from MetaStore at construction:
	// dirty extents re-admit synchronously, clean extents incrementally on
	// the Rebuilder workers while the engine serves degraded (read-around).
	// Requires MetaStore.
	WarmRestart bool
	// RecoverBatch caps clean extents re-admitted per shard-mutex hold
	// during recovery; 0 means 256.
	RecoverBatch int
}

// Concurrent is the sharded, goroutine-safe S4D engine (the PR's
// "concurrent redirection engine"). It implements the same Algorithm-1
// routing as S4D but routes every request by file hash onto one of
// Concurrency shards, each with its own mutex, cost-model tracker, file
// epochs and cache-space region; the metadata tables are the lock-striped
// dmt.Striped/cdt.Striped. The Rebuilder fans flush/fetch work across a
// bounded worker pool with per-file ordering.
//
// The engine is always lazy-fetch (the paper's behaviour) and never
// charges metadata I/O; those ablations stay on the deterministic
// sequential engine.
//
// Every read and write runs under its shard mutex, identify included.
// Lock order (DESIGN.md §12): core shard mutex → cachespace region mutex
// → striped table stripe mutex → kvstore shard mutex. Leaf mutexes
// (deferred-read list, degraded map, join error slots) are taken below
// all of these. No path holds two shard mutexes or two region mutexes at
// once. The region → stripe edge exists only inside the cachespace
// eviction hook, which unmaps a victim's DMT range under the region
// mutex before its bytes rejoin the free pool (unmap-before-free).
type Concurrent struct {
	clock   sim.Clock
	opfs    Backend
	cpfs    Backend
	payload bool // a backend stores payload bytes: the Rebuilder moves them
	model   costmodel.Params
	policy  AdmissionPolicy
	faulty  atomic.Bool

	shards []cshard
	dmt    *dmt.Striped
	cdt    *cdt.Striped
	space  *cachespace.Sharded
	// arena interns every file name once, shared by the DMT, the CDT and
	// the per-shard epoch maps; dmtOpts is the striped-table option set
	// NewConcurrent built, reused by the warm-restart table swap.
	arena        *names.Arena
	dmtOpts      []dmt.Option
	metaFaultIns atomic.Uint64

	// Adaptive policy engine (characterizer.go). admitNanos is the live
	// criticality threshold in nanoseconds: the adaptTick goroutine is its
	// only writer and runs outside every shard mutex, so it is atomic.
	cacheCap                int64
	baseCDTMax              int64
	admitNanos              atomic.Int64
	chz                     *Characterizer
	policySwaps, adaptTicks atomic.Uint64

	// Rebuilder state (concrebuild.go).
	rebuildBatch   int
	rebuildMu      sync.Mutex
	rebuildBusy    bool
	rebuildWaiters []func()
	workerCh       []chan crTask
	quit           chan struct{}
	closed         atomic.Bool

	// Degraded-mode state. downMu is a leaf mutex: never held while taking
	// a shard or region lock.
	downMu        sync.Mutex
	downC         map[int]bool
	downCount     atomic.Int32
	degradedSince time.Duration
	degradedTime  time.Duration

	// deferMu guards the parked-read list; leaf like downMu.
	deferMu  sync.Mutex
	deferred []deferredRead

	// Rebuilder counters (updated from worker goroutines).
	rebuildCycles, flushes, flushRetries atomic.Uint64
	fetches, fetchFailures, fetchRetries atomic.Uint64
	bytesFlushed, bytesFetched           atomic.Int64
	epochsPruned                         atomic.Uint64

	// Warm-restart state (concrecovery.go). recovering gates admissions
	// and Rebuilder fetches until every shard's pending clean extents
	// drained; recoverLeft counts files still queued on the workers.
	// snapMu serializes snapshot ticks and guards snap; the counters
	// mirror the sequential engine's warm-restart stats.
	metaStore    *kvstore.Store
	recovering   atomic.Bool
	recoverBatch int
	recoverStart time.Duration
	recoverLeft  atomic.Int32
	recCrits     []staterec.Critical
	timeToWarm   atomic.Int64
	snapEpoch    atomic.Uint64
	snapMu       sync.Mutex
	snap         snapWriter

	snapshots, snapshotRecords     atomic.Uint64
	recoveredClean, recoveredDirty atomic.Uint64
	recoveredBytes                 atomic.Int64
	quarRecords                    atomic.Uint64
	quarBytes                      atomic.Int64
	superseded                     atomic.Uint64
	residencyDrift                 atomic.Uint64
	cdtRestored                    atomic.Uint64
}

// cshard is one serve lane. Reads, writes and degraded-mode paths
// serialize on mu, which also guards the cost-model tracker and locality
// state identify mutates. The serve counters are atomics so Stats can
// snapshot without quiescing. The trailing padding keeps neighbouring
// shards' mutexes and counters on separate cache lines.
type cshard struct {
	mu       sync.Mutex
	tracker  *costmodel.Tracker
	locality *localityTracker
	// fileEpoch is keyed by the shared arena's dense file id, like the
	// sequential engine's map.
	fileEpoch map[uint32]uint64
	// writing counts each file's client writes in flight, from their
	// epoch bump to the completion of their last segment (conJoin drops
	// the count lock-free). The Rebuilder does not flush a file with
	// writes in flight: wall-clock sub-requests complete in any order, so
	// its cache read could run before a write's bytes land and carry the
	// space's previous owner's bytes to the DServers.
	writing map[uint32]*atomic.Int32
	// pending holds this shard's recovered clean extents awaiting
	// re-admission; non-nil only during warm recovery, mutated only under
	// mu (writer supersedes and the recovery worker's adopts).
	pending map[string][]*pendingExt
	// Serve-path lookup scratch, reused under mu.
	hitsBuf    []dmt.Hit
	gapsBuf    []extent.Gap
	insertsBuf []dmt.FragmentInsert
	stats      cstats
	_          [64]byte
}

// cstats is the per-shard serve counter block: atomic counters, so Stats
// can snapshot without quiescing. Field meanings as core.Stats.
type cstats struct {
	reads, writes           atomic.Uint64
	bytesRead, bytesWritten atomic.Int64

	identified, critical atomic.Uint64

	segReadsCache, segReadsDisk   atomic.Uint64
	segWritesCache, segWritesDisk atomic.Uint64

	bytesReadCache, bytesReadDisk   atomic.Int64
	bytesWriteCache, bytesWriteDisk atomic.Int64

	admissions, admitFailures atomic.Uint64
	lazyMarks                 atomic.Uint64

	failovers, deferredReads atomic.Uint64
	dirtyLost                atomic.Int64
}

// addTo folds a snapshot of the counters into st.
func (s *cstats) addTo(st *Stats) {
	st.Reads += s.reads.Load()
	st.Writes += s.writes.Load()
	st.BytesRead += s.bytesRead.Load()
	st.BytesWritten += s.bytesWritten.Load()
	st.Identified += s.identified.Load()
	st.Critical += s.critical.Load()
	st.SegReadsCache += s.segReadsCache.Load()
	st.SegReadsDisk += s.segReadsDisk.Load()
	st.SegWritesCache += s.segWritesCache.Load()
	st.SegWritesDisk += s.segWritesDisk.Load()
	st.BytesReadCache += s.bytesReadCache.Load()
	st.BytesReadDisk += s.bytesReadDisk.Load()
	st.BytesWriteCache += s.bytesWriteCache.Load()
	st.BytesWriteDisk += s.bytesWriteDisk.Load()
	st.Admissions += s.admissions.Load()
	st.AdmitFailures += s.admitFailures.Load()
	st.LazyMarks += s.lazyMarks.Load()
	st.Failovers += s.failovers.Load()
	st.DeferredReads += s.deferredReads.Load()
	st.DirtyLost += s.dirtyLost.Load()
}

// NewConcurrent builds a Concurrent engine.
func NewConcurrent(cfg ConcurrentConfig) (*Concurrent, error) {
	if cfg.Clock == nil {
		return nil, fmt.Errorf("core: clock is required")
	}
	if cfg.OPFS == nil || cfg.CPFS == nil {
		return nil, fmt.Errorf("core: OPFS and CPFS are required")
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.CacheCapacity <= 0 {
		return nil, fmt.Errorf("core: cache capacity must be positive, got %d", cfg.CacheCapacity)
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.RebuildBatch <= 0 {
		cfg.RebuildBatch = 64
	}
	if cfg.RebuildWorkers <= 0 {
		cfg.RebuildWorkers = 4
	}
	if cfg.RecoverBatch <= 0 {
		cfg.RecoverBatch = defaultRecoverBatch
	}
	if (cfg.WarmRestart || cfg.SnapshotPeriod > 0) && cfg.MetaStore == nil {
		return nil, fmt.Errorf("core: WarmRestart/SnapshotPeriod require MetaStore")
	}
	if cfg.MetaBudget > 0 && cfg.MetaStore == nil {
		return nil, fmt.Errorf("core: MetaBudget requires MetaStore")
	}
	if cfg.Policy == 0 {
		cfg.Policy = PolicyBenefit
	}
	var newPolicy func(regionCapacity int64) cachespace.Policy
	if cfg.CachePolicy != "" {
		// Validate the name once up front; the per-region factory then
		// cannot fail.
		if _, err := cachespace.NewPolicy(cfg.CachePolicy, cfg.CacheCapacity); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		name := cfg.CachePolicy
		newPolicy = func(regionCapacity int64) cachespace.Policy {
			p, _ := cachespace.NewPolicy(name, regionCapacity)
			return p
		}
	}
	space, err := cachespace.NewShardedPolicy(cfg.CacheCapacity, cfg.Concurrency, newPolicy)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	arena := names.NewArena()
	c := &Concurrent{
		clock:        cfg.Clock,
		opfs:         cfg.OPFS,
		cpfs:         cfg.CPFS,
		payload:      storesPayload(cfg.OPFS) || storesPayload(cfg.CPFS),
		model:        cfg.Model,
		policy:       cfg.Policy,
		shards:       make([]cshard, cfg.Concurrency),
		cdt:          cdt.NewStriped(cfg.CDTMaxBytes, cdt.WithArena(arena)),
		space:        space,
		arena:        arena,
		cacheCap:     cfg.CacheCapacity,
		baseCDTMax:   cfg.CDTMaxBytes,
		rebuildBatch: cfg.RebuildBatch,
		downC:        make(map[int]bool),
		quit:         make(chan struct{}),
		metaStore:    cfg.MetaStore,
		recoverBatch: cfg.RecoverBatch,
	}
	c.dmtOpts = []dmt.Option{
		dmt.WithArena(arena),
		// The concurrent engine never charges metadata I/O (wall-clock
		// costs are real); the hook only counts fault-ins for Stats.
		dmt.WithFaultIO(func(int) { c.metaFaultIns.Add(1) }),
	}
	if cfg.MetaBudget > 0 {
		c.dmtOpts = append(c.dmtOpts, dmt.WithMetaBudget(cfg.MetaBudget))
	}
	if cfg.SpillRead != nil {
		c.dmtOpts = append(c.dmtOpts, dmt.WithSpillRead(cfg.SpillRead))
	}
	table := dmt.NewStriped(c.dmtOpts...)
	if cfg.MetaStore != nil && !cfg.WarmRestart {
		// With WarmRestart the log replays through the recovery path below
		// instead, installing only verified extents.
		table, err = dmt.OpenStriped(cfg.MetaStore, c.dmtOpts...)
		if err != nil {
			return nil, fmt.Errorf("core: open DMT: %w", err)
		}
	}
	c.dmt = table
	c.admitNanos.Store(int64(cfg.Model.CriticalThreshold))
	c.faulty.Store(cfg.Faulty)
	// Unmap-before-free: every eviction drops its DMT mapping under the
	// region mutex, before the bytes rejoin the free pool, so no lookup
	// can return a mapping to space another owner has been given.
	space.SetEvictHook(func(owner cachespace.Owner, cacheOff, length int64) bool {
		return c.dmt.Delete(owner.File, owner.FileOff, length) == nil
	})
	for i := range c.shards {
		sh := &c.shards[i]
		sh.tracker = costmodel.NewTracker()
		sh.fileEpoch = make(map[uint32]uint64)
		sh.writing = make(map[uint32]*atomic.Int32)
		if cfg.Policy == PolicyLocality {
			sh.locality = newLocalityTracker(0, 0)
		}
	}
	c.workerCh = make([]chan crTask, cfg.RebuildWorkers)
	for i := range c.workerCh {
		c.workerCh[i] = make(chan crTask, 2*cfg.RebuildBatch)
		go c.rebuildWorker(c.workerCh[i])
	}
	if cfg.WarmRestart {
		// After the workers: clean-extent re-admission rides their
		// channels. Before any ticker: the synchronous dirty installs must
		// finish before other goroutines touch the engine.
		if err := c.beginRecoveryConc(); err != nil {
			c.Close()
			return nil, err
		}
	}
	if cfg.RebuildPeriod > 0 {
		c.armRebuild(cfg.RebuildPeriod)
	}
	if cfg.AdaptivePeriod > 0 {
		c.chz = NewCharacterizer()
		c.armAdapt(cfg.AdaptivePeriod)
	}
	if cfg.SnapshotPeriod > 0 {
		c.armSnapshot(cfg.SnapshotPeriod)
	}
	return c, nil
}

// armAdapt schedules the next adaptation step; self-rearming like
// armRebuild, stopped by Close.
func (c *Concurrent) armAdapt(period time.Duration) {
	c.clock.After(period, func() {
		if c.closed.Load() {
			return
		}
		c.adaptTick()
		c.armAdapt(period)
	})
}

// adaptTick is one adaptation step of the concurrent engine: the
// sharded twin of S4D.adaptTick. Policy swaps go through
// Sharded.SetPolicy (per-region locks, live under traffic — the swap
// torture test's path); the threshold is published through admitNanos,
// which serve paths load under their shard mutex.
func (c *Concurrent) adaptTick() {
	c.adaptTicks.Add(1)
	prof := c.chz.SnapshotReset()
	if prof.Total() == 0 {
		return
	}
	if name := ChoosePolicy(prof, c.cacheCap, c.space.PolicyName()); name != "" && name != c.space.PolicyName() {
		switch name {
		case cachespace.PolicyCleanLRU:
			c.space.SetPolicy(nil)
		default:
			c.space.SetPolicy(func(regionCapacity int64) cachespace.Policy {
				p, _ := cachespace.NewPolicy(name, regionCapacity)
				return p
			})
		}
		c.policySwaps.Add(1)
	}
	if thrashing(prof, c.cacheCap) {
		c.admitNanos.Store(int64(c.model.CriticalThreshold + prof.MeanBenefit))
		c.cdt.SetMaxBytes(c.cacheCap)
	} else {
		c.admitNanos.Store(int64(c.model.CriticalThreshold))
		c.cdt.SetMaxBytes(c.baseCDTMax)
	}
}

// threshold returns the live criticality threshold (lock-free).
func (c *Concurrent) threshold() time.Duration { return time.Duration(c.admitNanos.Load()) }

// Close stops the periodic Rebuilder trigger and the worker pool. Call
// after draining (DrainRebuild): tasks of an in-flight cycle may be
// dropped once workers exit, leaving that cycle's callbacks unfired.
func (c *Concurrent) Close() {
	if c.closed.CompareAndSwap(false, true) {
		close(c.quit)
	}
}

// DMT exposes the lock-striped mapping table.
func (c *Concurrent) DMT() *dmt.Striped { return c.dmt }

// CDT exposes the lock-striped critical data table.
func (c *Concurrent) CDT() *cdt.Striped { return c.cdt }

// Space exposes the sharded cache-space manager.
func (c *Concurrent) Space() *cachespace.Sharded { return c.space }

// shard routes a file to its serve lane by FNV-1a hash.
func (c *Concurrent) shard(file string) (*cshard, int) {
	h := uint32(2166136261)
	for i := 0; i < len(file); i++ {
		h ^= uint32(file[i])
		h *= 16777619
	}
	idx := int(h % uint32(len(c.shards)))
	return &c.shards[idx], idx
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
// that holds no engine lock), or in release, inside the issuing call
// under the shard mutex, which defers done through the clock. A Write
// abandoned on an error path never releases, so its join never completes.
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

// completeErr reports a zero-work request done asynchronously.
func (c *Concurrent) completeErr(done func(error)) {
	if done != nil {
		c.clock.After(0, func() { done(nil) })
	}
}

func (c *Concurrent) complete(done func()) {
	if done != nil {
		c.clock.After(0, done)
	}
}

// degradedNow reports whether any CServer is down (lock-free fast path).
func (c *Concurrent) degradedNow() bool { return c.downCount.Load() > 0 }

// Write intercepts an application write of file[off, off+size) by rank.
// Safe to call from any goroutine; done runs asynchronously when all
// segments complete, with the first segment error. done must not block:
// it may run on a backend goroutine that completes other requests too
// (see Backend).
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
		c.supersedeConc(sh, file, off, size)
	}

	benefit := c.identify(sh, rank, file, off, size, true)

	sh.hitsBuf, sh.gapsBuf = c.dmt.AppendLookup(sh.hitsBuf[:0], sh.gapsBuf[:0], file, off, size)
	hits, gaps := sh.hitsBuf, sh.gapsBuf
	j := newConJoin(c, len(hits)+len(gaps), done, writing)
	writing.Add(1)

	faulty := c.faulty.Load()
	for _, h := range hits {
		if faulty && c.cpfs.RangeDown(h.CacheOff, h.Len) {
			// Cached copy sits on a crashed CServer; the write supersedes
			// it — unmap and fail the segment over to the DServers.
			sh.stats.failovers.Add(1)
			if err := c.dmt.Delete(file, h.Off, h.Len); err != nil {
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
		if err := c.dmt.SetDirty(file, h.Off, h.Len); err != nil {
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
				c.absorbFailedConc(file, h.Off, h.Len, h.CacheOff, seg, j.sub)
			}
		}
		if err := c.cpfs.Write(CacheFileName, h.CacheOff, h.Len, sim.PriorityHigh, seg, cb); err != nil {
			j.sub(err)
		}
	}

	for _, g := range gaps {
		if c.admitWriteConc(sh, file, g.Off, g.Len, benefit) {
			if faulty && c.degradedNow() {
				sh.stats.failovers.Add(1)
			} else {
				c.absorbWriteConc(sh, shardIdx, file, g.Off, g.Len, slice(data, off, g.Off, g.Len), j, faulty)
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
// to call from any goroutine. In-flight cache hits pin their ranges so
// reclaim cannot hand the bytes to another owner mid-read. As for Write,
// done runs asynchronously and must not block.
func (c *Concurrent) Read(rank int, file string, off, size int64, buf []byte, done func(error)) error {
	if err := checkRange(off, size, buf); err != nil {
		return err
	}
	if size == 0 {
		c.completeErr(done)
		return nil
	}
	sh, _ := c.shard(file)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.stats.reads.Add(1)
	sh.stats.bytesRead.Add(size)

	benefit := c.identify(sh, rank, file, off, size, false)

	sh.hitsBuf, sh.gapsBuf = c.dmt.AppendLookup(sh.hitsBuf[:0], sh.gapsBuf[:0], file, off, size)
	hits, gaps := sh.hitsBuf, sh.gapsBuf
	j := newConJoin(c, len(hits)+len(gaps), done, nil)

	faulty := c.faulty.Load()
	for _, h := range hits {
		seg := slice(buf, off, h.Off, h.Len)
		if faulty && c.cpfs.RangeDown(h.CacheOff, h.Len) {
			// Only up-to-date copy is dirty data on a crashed, restarting
			// CServer: park until the restart.
			c.deferReadConc(sh, file, h.Off, h.Len, seg, j.sub)
			continue
		}
		sh.stats.segReadsCache.Add(1)
		sh.stats.bytesReadCache.Add(h.Len)
		c.space.Touch(h.CacheOff, h.Len)
		c.space.Pin(h.CacheOff, h.Len)
		h := h
		cb := func(err error) {
			c.space.Unpin(h.CacheOff, h.Len)
			if err == nil || !c.faulty.Load() {
				j.sub(err)
				return
			}
			// A crash raced the in-flight read (faulty may flip after
			// issue): resolve through the degraded-mode rerouter.
			c.readFailedConc(err, file, h.Off, h.Len, seg, j.sub)
		}
		if err := c.cpfs.Read(CacheFileName, h.CacheOff, h.Len, sim.PriorityHigh, seg, cb); err != nil {
			c.space.Unpin(h.CacheOff, h.Len)
			j.sub(err)
		}
	}
	for _, g := range gaps {
		critical := benefit > c.threshold() || c.cdt.Contains(file, g.Off, g.Len)
		if critical {
			// Always lazy: mark for the Rebuilder (Algorithm 1, line 18).
			c.cdt.SetCFlag(file, g.Off, g.Len)
			sh.stats.lazyMarks.Add(1)
		}
		sh.stats.segReadsDisk.Add(1)
		sh.stats.bytesReadDisk.Add(g.Len)
		if err := c.opfs.Read(file, g.Off, g.Len, sim.PriorityHigh, slice(buf, off, g.Off, g.Len), j.sub); err != nil {
			j.sub(err)
		}
	}
	j.release()
	return nil
}

// identify runs the Data Identifier on the shard's tracker. Cost-model
// state is keyed by (file, rank) and files map to exactly one shard, so
// per-shard trackers produce the same decisions as one global tracker.
// Caller holds the shard mutex, which guards the tracker; the CDT Add
// serializes on the target stripe's own mutex below it.
func (c *Concurrent) identify(sh *cshard, rank int, file string, off, size int64, write bool) time.Duration {
	sh.stats.identified.Add(1)
	if c.policy == PolicyLocality {
		if sh.locality.Touch(file, off, size) {
			sh.stats.critical.Add(1)
			c.cdt.Add(file, off, size, 0)
			return time.Nanosecond
		}
		return 0
	}
	dist := sh.tracker.Observe(costmodel.StreamKey{File: file, Rank: rank}, off, size)
	benefit := c.model.Benefit(costmodel.Request{Offset: off, Size: size, Distance: dist})
	if c.chz != nil {
		// Atomic accumulation: shards note concurrently.
		c.chz.Note(write, dist, file, off, size, benefit)
	}
	if benefit > c.threshold() {
		sh.stats.critical.Add(1)
		if c.policy != PolicyNone {
			c.cdt.Add(file, off, size, benefit)
		}
	}
	return benefit
}

func (c *Concurrent) admitWriteConc(sh *cshard, file string, off, length int64, benefit time.Duration) bool {
	if c.recovering.Load() {
		// Degraded until warm: pending recovered extents still own their
		// cache ranges, so nothing new is admitted.
		return false
	}
	switch c.policy {
	case PolicyNone:
		return false
	case PolicyAll:
		return true
	default:
		return benefit > c.threshold() || c.cdt.Contains(file, off, length)
	}
}

// absorbWriteConc allocates cache space in the shard's region for a
// critical write miss and writes the segment to the CServers. Runs under
// the shard mutex; all eviction victims belong to this shard, so their
// mapping deletions are race-free.
func (c *Concurrent) absorbWriteConc(sh *cshard, shardIdx int, file string, off, length int64, data []byte, j *conJoin, faulty bool) {
	// Eviction victims have their DMT mappings dropped by the cachespace
	// eviction hook, under the region mutex and before the bytes rejoin
	// the free pool (unmap-before-free, DESIGN.md §12).
	frags, _, err := c.space.Allocate(shardIdx, length, cachespace.Owner{File: file, FileOff: off}, true)
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
	if err := c.dmt.InsertBatch(file, sh.insertsBuf); err != nil {
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
				c.absorbFailedConc(file, pos, fr.Len, fr.CacheOff, seg, sub.sub)
			}
		}
		if err := c.cpfs.Write(CacheFileName, fr.CacheOff, fr.Len, sim.PriorityHigh, seg, cb); err != nil {
			sub.sub(err)
		}
		pos += fr.Len
	}
}

// Stats aggregates per-shard serve counters, Rebuilder atomics and the
// degraded-time accumulator into one snapshot. The per-shard counters are
// atomics, so no shard lock is taken; the snapshot is not a single
// instant — fine for reports and tests that quiesce first.
func (c *Concurrent) Stats() Stats {
	var st Stats
	for i := range c.shards {
		c.shards[i].stats.addTo(&st)
	}
	st.RebuildCycles = c.rebuildCycles.Load()
	st.Flushes = c.flushes.Load()
	st.FlushRetries = c.flushRetries.Load()
	st.Fetches = c.fetches.Load()
	st.FetchFailures = c.fetchFailures.Load()
	st.FetchRetries = c.fetchRetries.Load()
	st.BytesFlushed = c.bytesFlushed.Load()
	st.BytesFetched = c.bytesFetched.Load()
	st.EpochsPruned = c.epochsPruned.Load()
	c.downMu.Lock()
	st.DegradedTime = c.degradedTime
	if len(c.downC) > 0 {
		st.DegradedTime += c.clock.Now() - c.degradedSince
	}
	c.downMu.Unlock()
	st.CachePolicy = c.space.PolicyName()
	st.CacheTouches = c.space.Touches()
	st.CacheEvictions = c.space.Evictions()
	st.PolicyAdmitRejected = c.space.AdmitRejected()
	pc := c.space.PolicyCounters()
	st.PolicyGhostHits = pc.GhostHits
	st.PolicyPromotions = pc.Promotions
	st.PolicySwaps = c.policySwaps.Load()
	st.AdaptTicks = c.adaptTicks.Load()
	st.PolicyQueueLen = c.space.PolicyQueueLen()
	st.Snapshots = c.snapshots.Load()
	st.SnapshotRecords = c.snapshotRecords.Load()
	st.RecoveredDirty = c.recoveredDirty.Load()
	st.RecoveredClean = c.recoveredClean.Load()
	st.RecoveredBytes = c.recoveredBytes.Load()
	st.QuarantinedRecords = c.quarRecords.Load()
	st.QuarantinedBytes = c.quarBytes.Load()
	st.RecoverySuperseded = c.superseded.Load()
	st.ResidencyDrift = c.residencyDrift.Load()
	st.CDTRestored = c.cdtRestored.Load()
	st.Recovering = c.recovering.Load()
	st.TimeToWarm = time.Duration(c.timeToWarm.Load())
	st.MetaFaultIns = c.metaFaultIns.Load()
	ds := c.dmt.Stats()
	st.MetaResidentBytes = ds.ResidentBytes
	st.MetaMemoryBytes = ds.MemoryBytes
	st.MetaSpilledFiles = ds.SpilledFiles
	st.MetaSpills = ds.Spills
	st.MetaFaultInsTable = ds.FaultIns
	st.MetaSpillQuarantined = ds.SpillQuarantined
	if c.metaStore != nil {
		ms := c.metaStore.Stats()
		st.WALReplays = uint64(ms.RecoveredRecords)
		st.MetaGroupCommits = ms.GroupCommits
		st.MetaGroupedRecords = ms.GroupedRecords
		st.MetaTornWALBytes = ms.TornWALBytes
		st.MetaSnapQuarantined = ms.SnapQuarantined
	}
	return st
}
