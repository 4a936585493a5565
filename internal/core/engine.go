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
	"s4dcache/internal/sim"
	"s4dcache/internal/staterec"
)

// engine is the state and the table-side rules both drivers share: one
// Data Identifier, the Redirector's admission and degraded-mode rules and
// the Rebuilder's bookkeeping over shard-owned DMT/CDT tables and one
// sharded cache space (paper §III, Fig. 3). S4D drives it with one shard
// in virtual time, Concurrent with many shards on any clock; each keeps
// only the code that fixes its event order or its lock scope — the serve
// fan-out, the request joins, the Rebuilder cycle and the recovery
// pacing (DESIGN.md §11).
//
// Lock discipline is Concurrent's (DESIGN.md §12). Rules documented as
// "caller holds sh.mu" take no lock themselves; the others lock each
// shard they visit. S4D calls them from one goroutine and never holds a
// shard mutex, so the locks it takes are uncontended.
type engine struct {
	clock   sim.Clock
	opfs    Backend
	cpfs    Backend
	payload bool // a backend stores payload bytes: the Rebuilder moves them
	model   costmodel.Params
	policy  AdmissionPolicy
	faulty  atomic.Bool
	drv     driver

	shards []cshard
	space  *cachespace.Sharded
	// arena interns every file name once, shared by every shard's DMT and
	// CDT and the per-shard epoch maps; dmtOpts is the DMT option set init
	// built, reused by the warm-restart table swap.
	arena        *names.Arena
	dmtOpts      []dmt.Option
	metaFaultIns atomic.Uint64

	// Adaptive policy engine (characterizer.go). admitNanos is the live
	// criticality threshold in nanoseconds: adaptTick is its only writer
	// and runs outside every shard mutex, so it is atomic. cacheCap and
	// baseCDTMax remember the configured sizes the engine adapts around.
	cacheCap                int64
	baseCDTMax              int64
	admitNanos              atomic.Int64
	chz                     *Characterizer
	policySwaps, adaptTicks atomic.Uint64

	// Rebuilder counters (updated from the drivers' cycles).
	rebuildBatch                         int
	rebuildCycles, flushes, flushRetries atomic.Uint64
	fetches, fetchFailures, fetchRetries atomic.Uint64
	bytesFlushed, bytesFetched           atomic.Int64
	epochsPruned                         atomic.Uint64

	// Degraded-mode state (faulty.go). downMu is a leaf mutex: never held
	// while taking a shard or region lock.
	downMu        sync.Mutex
	downC         map[int]bool
	downCount     atomic.Int32
	degradedSince time.Duration
	degradedTime  time.Duration

	// deferMu guards the parked-read list; leaf like downMu.
	deferMu  sync.Mutex
	deferred []deferredRead

	// Warm-restart state (recovery.go). recovering gates admissions and
	// Rebuilder fetches until every pending clean extent is re-admitted.
	// snapMu serializes snapshot ticks and guards snap.
	metaStore    *kvstore.Store
	recovering   atomic.Bool
	recoverBatch int
	recoverStart time.Duration
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

// driver is what the shared rules call back into: the Rebuilder cycle,
// the re-issue of a parked read, and the metadata I/O charges. S4D
// charges DMT commits and fault-ins as CPFS I/O; Concurrent's charges are
// no-ops (its wall-clock costs are real).
type driver interface {
	// RebuildNow runs one Rebuilder cycle; DrainRebuild repeats it.
	RebuildNow(done func())
	// readSegment routes one file-space read segment through the DMT, as
	// a read's hit/gap fan-out does; parked reads re-issue through it.
	readSegment(file string, off, length int64, buf []byte, cb func(error))
	// chargeMetaIO charges one DMT commit the shared rules made (an
	// eviction's or a crash invalidation's unmap).
	chargeMetaIO()
	// chargeMetaFaultIn charges a DMT fault-in of n spilled extent records.
	chargeMetaFaultIn(n int)
}

// cshard is one serve lane. Reads, writes and degraded-mode paths
// serialize on mu, which also guards the shard's tables, the cost-model
// tracker and the locality state identify mutates. The serve counters are
// atomics so Stats can snapshot without quiescing. The trailing padding
// keeps neighbouring shards' mutexes and counters on separate cache lines.
type cshard struct {
	mu sync.Mutex
	// dmt and cdt hold the mappings and critical ranges of exactly the
	// files that route to this shard.
	dmt      *dmt.Table
	cdt      *cdt.Table
	tracker  *costmodel.Tracker
	locality *localityTracker
	// fileEpoch is keyed by the shared arena's dense file id — the same
	// interning the DMT and CDT use — so per-file bookkeeping never
	// duplicates name bytes.
	fileEpoch map[uint32]uint64
	// writing counts each file's client writes in flight, from their
	// epoch bump to the completion of their last segment (conJoin drops
	// the count lock-free). Concurrent's Rebuilder does not flush a file
	// with writes in flight: wall-clock sub-requests complete in any
	// order, so its cache read could run before a write's bytes land and
	// carry the space's previous owner's bytes to the DServers. S4D, whose
	// Rebuilder rechecks the epoch at completion, leaves it empty.
	writing map[uint32]*atomic.Int32
	// pending holds this shard's recovered clean extents awaiting
	// re-admission, per file in replay order; non-nil only during warm
	// recovery, mutated only under mu (writer supersedes and adopts).
	pending map[string][]*pendingExt
	// Write-path lookup and allocation scratch, reused under mu.
	hitsBuf    []dmt.Hit
	gapsBuf    []extent.Gap
	insertsBuf []dmt.FragmentInsert
	fragsBuf   []cachespace.Fragment
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

// engineConfig is what Config and ConcurrentConfig have in common.
type engineConfig struct {
	clock        sim.Clock
	opfs, cpfs   Backend
	model        costmodel.Params
	capacity     int64
	cdtMax       int64
	shards       int
	policy       AdmissionPolicy
	cachePolicy  string
	rebuildBatch int
	metaStore    *kvstore.Store
	metaBudget   int64
	spillRead    func(name string, data []byte) []byte
	adaptive     bool
	snapshot     bool
	recoverBatch int
	faulty       bool
}

// init validates cfg and builds the shared state in place: the cache
// space, the name arena, the DMT options and tables, the shards and the
// unmap-before-free eviction hook. drv must be fully built: the hooks
// call it. With a MetaStore the caller then stages recovery
// (stageRecovery), whose pacing is the driver's: it attaches the tables
// to the store and re-admits whatever the store holds.
func (e *engine) init(cfg engineConfig, drv driver) error {
	if cfg.clock == nil {
		return fmt.Errorf("core: clock is required")
	}
	if cfg.opfs == nil || cfg.cpfs == nil {
		return fmt.Errorf("core: OPFS and CPFS are required")
	}
	if err := cfg.model.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if cfg.capacity <= 0 {
		return fmt.Errorf("core: cache capacity must be positive, got %d", cfg.capacity)
	}
	if cfg.snapshot && cfg.metaStore == nil {
		return fmt.Errorf("core: SnapshotPeriod requires MetaStore")
	}
	if cfg.metaBudget > 0 && cfg.metaStore == nil {
		return fmt.Errorf("core: MetaBudget requires MetaStore")
	}
	if cfg.policy == 0 {
		cfg.policy = PolicyBenefit
	}
	if cfg.rebuildBatch <= 0 {
		cfg.rebuildBatch = 64
	}
	if cfg.recoverBatch <= 0 {
		cfg.recoverBatch = defaultRecoverBatch
	}
	space, err := cachespace.NewSharded(cfg.capacity, cfg.shards, cfg.cachePolicy)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	e.clock = cfg.clock
	e.opfs, e.cpfs = cfg.opfs, cfg.cpfs
	e.payload = storesPayload(cfg.opfs) || storesPayload(cfg.cpfs)
	e.model = cfg.model
	e.policy = cfg.policy
	e.drv = drv
	e.shards = make([]cshard, cfg.shards)
	e.space = space
	e.arena = names.NewArena()
	e.cacheCap = cfg.capacity
	e.baseCDTMax = cfg.cdtMax
	e.rebuildBatch = cfg.rebuildBatch
	e.downC = make(map[int]bool)
	e.metaStore = cfg.metaStore
	e.recoverBatch = cfg.recoverBatch
	e.admitNanos.Store(int64(cfg.model.CriticalThreshold))
	e.faulty.Store(cfg.faulty)
	if cfg.adaptive {
		e.chz = NewCharacterizer()
	}
	e.dmtOpts = []dmt.Option{
		dmt.WithArena(e.arena),
		dmt.WithFaultIO(func(n int) {
			e.metaFaultIns.Add(1)
			e.drv.chargeMetaFaultIn(n)
		}),
	}
	if cfg.metaBudget > 0 {
		e.dmtOpts = append(e.dmtOpts, dmt.WithMetaBudget(ceilShare(cfg.metaBudget, cfg.shards)))
	}
	if cfg.spillRead != nil {
		e.dmtOpts = append(e.dmtOpts, dmt.WithSpillRead(cfg.spillRead))
	}
	tables := dmt.NewShards(cfg.shards, e.dmtOpts...)
	// Unmap-before-free: every eviction drops its DMT mapping under the
	// region mutex, before the bytes rejoin the free pool, so no lookup
	// can return a mapping to space another owner has been given. The
	// victim's file belongs to the allocating shard, whose mutex the
	// caller of Allocate holds.
	space.SetEvictHook(func(owner cachespace.Owner, cacheOff, length int64) bool {
		sh, _ := e.shard(owner.File)
		if sh.dmt.Delete(owner.File, owner.FileOff, length) != nil {
			return false
		}
		e.drv.chargeMetaIO()
		return true
	})
	cdtMax := ceilShare(cfg.cdtMax, cfg.shards)
	for i := range e.shards {
		sh := &e.shards[i]
		sh.dmt = tables[i]
		sh.cdt = cdt.New(cdtMax, cdt.WithArena(e.arena))
		sh.tracker = costmodel.NewTracker()
		sh.fileEpoch = make(map[uint32]uint64)
		sh.writing = make(map[uint32]*atomic.Int32)
		if cfg.policy == PolicyLocality {
			sh.locality = newLocalityTracker(0, 0)
		}
	}
	return nil
}

// ceilShare splits a table bound (the CDT's bytes, the DMT's resident
// budget) across n shards, rounding up so the aggregate bound is at least
// total; total <= 0 (unbounded) passes through.
func ceilShare(total int64, n int) int64 {
	if total <= 0 {
		return total
	}
	return (total + int64(n) - 1) / int64(n)
}

// lane picks which of n lanes owns file, by FNV-1a hash: the serve shard
// (with its tables and cache region) and the Rebuilder lane both route
// through it.
func lane(file string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(file); i++ {
		h ^= uint32(file[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// shard routes a file to its serve lane.
func (e *engine) shard(file string) (*cshard, int) {
	if len(e.shards) == 1 {
		return &e.shards[0], 0
	}
	idx := lane(file, len(e.shards))
	return &e.shards[idx], idx
}

// threshold returns the live criticality threshold (lock-free).
func (e *engine) threshold() time.Duration { return time.Duration(e.admitNanos.Load()) }

// Space exposes the cache-space manager.
func (e *engine) Space() *cachespace.Sharded { return e.space }

// Model returns the cost model in use.
func (e *engine) Model() costmodel.Params { return e.model }

// complete runs done asynchronously (in virtual time on the simulator).
func (e *engine) complete(done func()) {
	if done != nil {
		e.clock.After(0, done)
	}
}

// completeErr reports a zero-work request done asynchronously.
func (e *engine) completeErr(done func(error)) {
	if done != nil {
		e.clock.After(0, func() { done(nil) })
	}
}

// identify runs the Data Identifier: compute the benefit (Eq. 8) and
// record critical requests in the CDT. Under PolicyLocality the
// criterion is temporal locality instead of the cost model. Returns the
// benefit (zero when the policy replaces the model) and whether the
// request was recorded in the CDT. write feeds the adaptive
// characterizer's read/write mix; it does not change routing.
// Cost-model state is keyed by (file, rank) and files map to exactly one
// shard, so per-shard trackers produce the same decisions as one global
// tracker. Caller holds sh.mu.
func (e *engine) identify(sh *cshard, rank int, file string, off, size int64, write bool) (time.Duration, bool) {
	sh.stats.identified.Add(1)
	if e.policy == PolicyLocality {
		if sh.locality.Touch(file, off, size) {
			sh.stats.critical.Add(1)
			sh.cdt.Add(file, off, size)
			return time.Nanosecond, true // admissible marker
		}
		return 0, false
	}
	dist := sh.tracker.Observe(costmodel.StreamKey{File: file, Rank: rank}, off, size)
	benefit := e.model.Benefit(costmodel.Request{Offset: off, Size: size, Distance: dist})
	if e.chz != nil {
		// Atomic accumulation: shards note concurrently.
		e.chz.Note(write, dist, file, off, size, benefit)
	}
	if benefit > e.threshold() {
		sh.stats.critical.Add(1)
		if e.policy != PolicyNone {
			sh.cdt.Add(file, off, size)
			return benefit, true
		}
	}
	return benefit, false
}

// flagRange is the range a critical read miss segment g marks for lazy
// fetching: the whole request when identify recorded it in the CDT
// (Algorithm 1 marks req), else the segment alone.
func flagRange(recorded bool, off, size int64, g extent.Gap) extent.Gap {
	if recorded {
		return extent.Gap{Off: off, Len: size}
	}
	return g
}

// admitWrite decides whether a write miss segment is absorbed by the
// CServers (Algorithm 1, line 3). Caller holds sh.mu.
func (e *engine) admitWrite(sh *cshard, file string, off, length int64, benefit time.Duration) bool {
	if e.recovering.Load() {
		// Degraded until warm: pending recovered extents still own their
		// cache ranges, so nothing new is admitted.
		return false
	}
	switch e.policy {
	case PolicyNone:
		return false
	case PolicyAll:
		return true
	default:
		// PolicyBenefit and PolicyLocality: the identifier has already
		// encoded its verdict in benefit/CDT membership.
		return benefit > e.threshold() || sh.cdt.Contains(file, off, length)
	}
}

// adaptTick is one adaptation step: snapshot the characterizer window,
// swap the cache policy of every region if the profile calls for a
// different one, and retune the criticality threshold and CDT bound
// (DESIGN.md §13.4). Policy swaps go through Sharded.SetPolicy (per-region
// locks, live under traffic); the threshold is published through
// admitNanos, which serve paths load under their shard mutex.
func (e *engine) adaptTick() {
	e.adaptTicks.Add(1)
	prof := e.chz.SnapshotReset()
	if prof.Total() == 0 {
		return
	}
	current := e.space.Stats().Policy
	if name := ChoosePolicy(prof, e.cacheCap, current); name != "" && name != current && e.space.SetPolicy(name) == nil {
		e.policySwaps.Add(1)
	}
	cdtMax := e.baseCDTMax
	if thrashing(prof, e.cacheCap) {
		// Cache-defeating scan: only clearly above-typical requests stay
		// critical, and the CDT is capped so scan extents cannot crowd
		// out the resident hot set's records.
		e.admitNanos.Store(int64(e.model.CriticalThreshold + prof.MeanBenefit))
		cdtMax = e.cacheCap
	} else {
		e.admitNanos.Store(int64(e.model.CriticalThreshold))
	}
	per := ceilShare(cdtMax, len(e.shards))
	e.eachShard(func(_ int, sh *cshard) bool {
		sh.cdt.SetMaxBytes(per)
		return true
	})
}

// pruneEpochs drops write-epoch counters for files no longer referenced by
// the DMT or the CDT, shard by shard. Without this the epoch maps grow
// with every file ever written, even after its cache residency is long
// gone. It runs at Rebuilder cycle boundaries, when no flush or fetch
// holds a captured epoch; a pruned file that is written again simply
// restarts at epoch 1, which at worst makes a later data movement retry
// conservatively.
func (e *engine) pruneEpochs() {
	e.eachShard(func(_ int, sh *cshard) bool {
		for id := range sh.fileEpoch {
			file := e.arena.Name(id)
			if sh.dmt.FileMapped(file) || sh.cdt.FileTracked(file) {
				continue
			}
			delete(sh.fileEpoch, id)
			e.epochsPruned.Add(1)
		}
		for id, w := range sh.writing {
			if w.Load() == 0 {
				// No write holds it: new ones start under mu.
				delete(sh.writing, id)
			}
		}
		return true
	})
}

// TrackedEpochs returns the number of files with a live write-epoch
// counter (tests and reports).
func (e *engine) TrackedEpochs() int {
	return sumShards(e, func(sh *cshard) int { return len(sh.fileEpoch) })
}

// RebuildPending reports whether dirty data or pending fetches remain. It
// reads the tables' incremental byte counters — O(1) per shard and
// allocation-free (pinned by TestRebuildPendingZeroAllocs) — because the
// periodic ticker polls it every cycle.
func (e *engine) RebuildPending() bool {
	return DMTView{e}.HasDirty() || CDTView{e}.HasPending()
}

// DrainRebuild runs Rebuilder cycles until no dirty data or pending
// fetches remain, then calls done. Used between benchmark phases (e.g.
// before the "second run" read measurements) and at shutdown. If a cycle
// completes without moving any data (e.g. every pending fetch fails for
// lack of reclaimable space), the drain stops rather than spinning; the
// leftover work retries on later cycles.
func (e *engine) DrainRebuild(done func()) {
	if !e.RebuildPending() {
		e.complete(done)
		return
	}
	before := e.flushes.Load() + e.fetches.Load()
	e.drv.RebuildNow(func() {
		if e.RebuildPending() && e.flushes.Load()+e.fetches.Load() > before {
			e.DrainRebuild(done)
			return
		}
		e.complete(done)
	})
}

// flushBuf returns a payload buffer for Rebuilder data movement when a
// backend stores real bytes (functional mode), nil otherwise: the PFS
// accepts nil payloads, and a buffer would only be gathered and
// scattered for nothing.
func (e *engine) flushBuf(length int64) []byte {
	if !e.payload {
		return nil
	}
	return payloadBuf(length)
}

// payloadBuf returns a length-byte Rebuilder payload buffer, or nil past
// 16 MiB: metadata-only runs use multi-GB extents rarely, functional tests
// use small ones, and a buffer that large would only waste memory.
func payloadBuf(length int64) []byte {
	const maxBuf = 16 << 20
	if length <= 0 || length > maxBuf {
		return nil
	}
	return make([]byte, length)
}

// Stats aggregates per-shard serve counters, the Rebuilder and recovery
// counters and the degraded-time accumulator into one snapshot. The
// counters are atomics, so no shard lock is held across the whole
// snapshot; it is not a single instant — fine for reports and tests that
// quiesce first.
func (e *engine) Stats() Stats {
	var st Stats
	for i := range e.shards {
		e.shards[i].stats.addTo(&st)
	}
	st.RebuildCycles = e.rebuildCycles.Load()
	st.Flushes = e.flushes.Load()
	st.FlushRetries = e.flushRetries.Load()
	st.Fetches = e.fetches.Load()
	st.FetchFailures = e.fetchFailures.Load()
	st.FetchRetries = e.fetchRetries.Load()
	st.BytesFlushed = e.bytesFlushed.Load()
	st.BytesFetched = e.bytesFetched.Load()
	st.EpochsPruned = e.epochsPruned.Load()
	e.downMu.Lock()
	st.DegradedTime = e.degradedTime
	if len(e.downC) > 0 {
		st.DegradedTime += e.clock.Now() - e.degradedSince
	}
	e.downMu.Unlock()
	sp := e.space.Stats()
	st.CachePolicy = sp.Policy
	st.CacheTouches = sp.Touches
	st.CacheEvictions = sp.Evictions
	st.PolicyAdmitRejected = sp.AdmitRejected
	st.PolicyGhostHits = sp.PolicyCounters.GhostHits
	st.PolicyPromotions = sp.PolicyCounters.Promotions
	st.PolicySwaps = e.policySwaps.Load()
	st.AdaptTicks = e.adaptTicks.Load()
	st.PolicyQueueLen = sp.PolicyQueueLen
	st.Snapshots = e.snapshots.Load()
	st.SnapshotRecords = e.snapshotRecords.Load()
	st.RecoveredDirty = e.recoveredDirty.Load()
	st.RecoveredClean = e.recoveredClean.Load()
	st.RecoveredBytes = e.recoveredBytes.Load()
	st.QuarantinedRecords = e.quarRecords.Load()
	st.QuarantinedBytes = e.quarBytes.Load()
	st.RecoverySuperseded = e.superseded.Load()
	st.ResidencyDrift = e.residencyDrift.Load()
	st.CDTRestored = e.cdtRestored.Load()
	st.Recovering = e.recovering.Load()
	st.TimeToWarm = time.Duration(e.timeToWarm.Load())
	st.MetaFaultIns = e.metaFaultIns.Load()
	e.eachShard(func(_ int, sh *cshard) bool {
		ds := sh.dmt.Stats()
		st.MetaResidentBytes += ds.ResidentBytes
		st.MetaMemoryBytes += ds.MemoryBytes
		st.MetaSpilledFiles += ds.SpilledFiles
		st.MetaSpills += ds.Spills
		st.MetaFaultInsTable += ds.FaultIns
		st.MetaSpillQuarantined += ds.SpillQuarantined
		return true
	})
	if e.metaStore != nil {
		ms := e.metaStore.Stats()
		st.WALReplays = uint64(ms.RecoveredRecords)
		st.MetaGroupCommits = ms.GroupCommits
		st.MetaGroupedRecords = ms.GroupedRecords
		st.MetaTornWALBytes = ms.TornWALBytes
		st.MetaSnapQuarantined = ms.SnapQuarantined
	}
	return st
}
