// Package core implements S4D-Cache itself: the Data Identifier, the
// Redirector and the Rebuilder (paper §III, Fig. 3), wired over two
// parallel file system instances — the original PFS (OPFS) on HDD-backed
// DServers and the cache PFS (CPFS) on SSD-backed CServers.
//
// Every application request is intercepted (the MPI-IO layer calls Read/
// Write here), evaluated with the cost model, split against the Data
// Mapping Table into cached and uncached segments, and routed per
// Algorithm 1:
//
//   - DMT hit      → served by the CServers (writes re-dirty the mapping).
//   - write miss   → if critical (CDT) and space is available (free first,
//     then clean-LRU reclaim), absorbed by the CServers;
//     otherwise sent to the DServers.
//   - read miss    → served by the DServers; if critical, the CDT C_flag
//     is set so the Rebuilder fetches it lazily.
//
// The Rebuilder periodically writes dirty cache data back to the DServers
// and fetches C_flag-marked data into the CServers, using low-priority
// I/O so it yields to foreground requests.
package core

import (
	"fmt"
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

// CacheFileName is the shared cache file on the CPFS. The paper creates
// one cache file per original file; a single shared cache file with a
// shared extent allocator is equivalent and keeps cache-space accounting
// global (documented in DESIGN.md).
const CacheFileName = "__s4d_cache__"

// MetaFileName is the CPFS file that absorbs DMT persistence I/O when
// metadata charging is enabled (the paper stores the DMT "to an
// addressable file in CServers", §III.D).
const MetaFileName = "__s4d_dmt__"

// AdmissionPolicy selects how write misses are admitted to the cache.
type AdmissionPolicy int

const (
	// PolicyBenefit admits requests whose modeled benefit is positive —
	// the paper's selective policy.
	PolicyBenefit AdmissionPolicy = iota + 1
	// PolicyAll admits every request (cache-everything ablation).
	PolicyAll
	// PolicyNone admits nothing; the cache only serves prior mappings
	// (used by the Fig. 11 overhead experiment: the full identification
	// and lookup path runs, but every request misses).
	PolicyNone
	// PolicyLocality admits on temporal locality (second touch of a
	// region) instead of the cost model — the conventional Hystor-style
	// baseline the paper argues against (§I, §II.C).
	PolicyLocality
)

// Config assembles an S4D instance.
type Config struct {
	// Engine is the shared virtual clock.
	Engine *sim.Engine
	// OPFS is the original parallel file system (HDD DServers).
	OPFS *pfs.FS
	// CPFS is the cache parallel file system (SSD CServers).
	CPFS *pfs.FS
	// Model is the calibrated cost model.
	Model costmodel.Params
	// CacheCapacity is the usable cache space in bytes (the paper sets it
	// to 20% of the application data size).
	CacheCapacity int64
	// CDTMaxBytes bounds the critical data table; 0 means unbounded.
	CDTMaxBytes int64
	// RebuildPeriod triggers the Rebuilder every period; 0 disables the
	// automatic trigger (RebuildNow can still be called).
	RebuildPeriod time.Duration
	// RebuildBatch caps the extents flushed and fetched per cycle; 0
	// means 64.
	RebuildBatch int
	// MetaStore, if non-nil, persists the DMT through this store.
	MetaStore *kvstore.Store
	// ChargeMetaIO, when true (and MetaStore is set), issues a CPFS write
	// for every DMT commit so metadata persistence consumes simulated
	// I/O time.
	ChargeMetaIO bool
	// MetaBudget bounds the DMT's resident metadata bytes (DESIGN.md §16).
	// Over budget, cold clean files spill to sealed MetaStore records and
	// fault back in on demand; fault-in reads are charged as CPFS I/O when
	// ChargeMetaIO is set. 0 means unbounded (every file stays resident).
	// Requires MetaStore.
	MetaBudget int64
	// SpillRead, if set, observes every spill-record read before it is
	// decoded on fault-in — the fault injector's corruption hook.
	SpillRead func(name string, data []byte) []byte
	// Policy selects the admission policy; zero value = PolicyBenefit.
	Policy AdmissionPolicy
	// LazyFetch controls read-miss handling: when true (the paper's
	// behaviour), critical read misses only set the C_flag and the
	// Rebuilder fetches them later; when false, read misses are cached
	// eagerly in the request path (ablation).
	LazyFetch bool
	// Concurrency selects the engine build. Values <= 1 (the default)
	// build the deterministic single-threaded simulator engine here;
	// values > 1 request the sharded concurrent engine, which runs on a
	// wall clock and goroutine-safe backends — use NewConcurrent with a
	// ConcurrentConfig for that. New rejects Concurrency > 1 so the
	// virtual-time experiment tables can never silently pick up a
	// nondeterministic serve path.
	Concurrency int
	// CachePolicy selects the cache-space eviction/admission policy by
	// name (cachespace.PolicyNames). Empty means the clean-LRU default.
	CachePolicy string
	// AdaptivePeriod enables the online workload characterizer: every
	// period the engine snapshots the windowed access profile and may
	// swap the cache policy, retune the criticality threshold and cap
	// the CDT live (DESIGN.md §13.4). Zero disables adaptation. Only
	// meaningful under PolicyBenefit — the other admission policies
	// bypass the cost model the characterizer feeds on.
	AdaptivePeriod time.Duration
	// SnapshotPeriod streams the residency and CDT state into MetaStore
	// every period and rides the DMT's copy-on-write compaction, so a
	// restarted engine comes back warm (DESIGN.md §14). Zero disables
	// snapshotting. Requires MetaStore.
	SnapshotPeriod time.Duration
	// WarmRestart recovers cache residency from MetaStore at construction:
	// dirty extents re-admit synchronously, clean extents incrementally in
	// the background while the engine serves degraded (read-around).
	// Requires MetaStore.
	WarmRestart bool
	// RecoverBatch caps clean extents re-admitted per recovery step; 0
	// means 256.
	RecoverBatch int
}

// S4D is one S4D-Cache instance.
type S4D struct {
	eng     *sim.Engine
	opfs    *pfs.FS
	cpfs    *pfs.FS
	model   costmodel.Params
	policy  AdmissionPolicy
	lazy    bool
	tracker *costmodel.Tracker
	cdt     *cdt.Table
	dmt     *dmt.Table
	space   *cachespace.Manager

	// Adaptive policy engine (characterizer.go). admitThreshold is the
	// live criticality threshold: initialized from the model's
	// CriticalThreshold and retuned each adaptTick when adaptation is
	// on. cacheCap and baseCDTMax remember the configured sizes the
	// engine adapts around.
	cacheCap       int64
	baseCDTMax     int64
	admitThreshold time.Duration
	chz            *Characterizer
	adaptTicker    *sim.Ticker

	rebuildBatch   int
	ticker         *sim.Ticker
	rebuildBusy    bool
	rebuildWaiters []func()
	// fileEpoch is keyed by the shared arena's dense file id — the same
	// interning the DMT and CDT use — so per-file bookkeeping never
	// duplicates name bytes (16B string headers become 4B ids).
	fileEpoch map[uint32]uint64
	arena     *names.Arena
	// dmtOpts is the table option set New built (arena, budget, hooks);
	// beginRecovery reuses it when it swaps in the post-replay table.
	dmtOpts       []dmt.Option
	locality      *localityTracker
	metaOff       int64
	chargeMeta    bool
	inFlightFetch map[string]bool
	metaStore     *kvstore.Store

	// Fault state (see faulty.go). faulty is set at construction when
	// either pfs instance carries a fault plan (sub-requests issued before
	// the first failure must already route through the failover wrappers);
	// healthy testbeds pay one false bool check on the serve path.
	faulty        bool
	downC         map[int]bool
	degradedSince time.Duration
	deferred      []deferredRead

	// Warm-restart state (recovery.go). recovering gates admissions and
	// Rebuilder fetches until the clean-extent queue drains; the pending
	// maps exist only during recovery.
	recovering    bool
	recoverQueue  []*pendingExt
	recoverByFile map[string][]*pendingExt
	recoverBatch  int
	recoverStart  time.Duration
	recCrits      []staterec.Critical
	snapEpoch     uint64
	snap          snapWriter
	snapTicker    *sim.Ticker

	// hitsBuf/gapsBuf are the serve path's reusable DMT lookup buffers.
	// Serve calls never nest (completions run from engine events), so one
	// pair per instance is safe.
	hitsBuf []dmt.Hit
	gapsBuf []extent.Gap
	// insertsBuf is absorbWrite's reusable fragment-mapping scratch
	// (InsertBatch does not retain it).
	insertsBuf []dmt.FragmentInsert
	// joinPool recycles per-request segment countdowns; in-flight joins are
	// simply absent from the pool until their last segment completes.
	joinPool []*reqJoin

	stats Stats
}

// reqJoin is the pooled per-request countdown of the serve path: it joins
// the cache/disk segments of one intercepted request, retaining the first
// segment error. doneFn and fireFn are bound once at allocation, so
// issuing a segment and firing the completion pass reused closures instead
// of allocating per segment.
type reqJoin struct {
	s      *S4D
	n      int
	err    error
	done   func(error)
	doneFn func(error)
	fireFn func()
}

// segDone counts one segment completion; the last one schedules fire,
// which notifies the application in virtual time and recycles the join.
func (j *reqJoin) segDone(err error) {
	if err != nil && j.err == nil {
		j.err = err
	}
	j.n--
	if j.n > 0 {
		return
	}
	if j.done == nil {
		j.err = nil
		j.s.joinPool = append(j.s.joinPool, j)
		return
	}
	j.s.eng.After(0, j.fireFn)
}

func (j *reqJoin) fire() {
	done, err := j.done, j.err
	j.done, j.err = nil, nil
	j.s.joinPool = append(j.s.joinPool, j)
	done(err)
}

func (s *S4D) getJoin(n int, done func(error)) *reqJoin {
	var j *reqJoin
	if k := len(s.joinPool); k > 0 {
		j = s.joinPool[k-1]
		s.joinPool = s.joinPool[:k-1]
	} else {
		j = &reqJoin{s: s}
		j.doneFn = j.segDone
		j.fireFn = j.fire
	}
	j.n, j.done, j.err = n, done, nil
	return j
}

// New builds an S4D instance.
func New(cfg Config) (*S4D, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("core: engine is required")
	}
	if cfg.Concurrency > 1 {
		return nil, fmt.Errorf("core: Concurrency=%d requires the concurrent engine; use NewConcurrent", cfg.Concurrency)
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
	var space *cachespace.Manager
	var err error
	if cfg.CachePolicy != "" {
		pol, perr := cachespace.NewPolicy(cfg.CachePolicy, cfg.CacheCapacity)
		if perr != nil {
			return nil, fmt.Errorf("core: %w", perr)
		}
		space, err = cachespace.NewWithPolicy(cfg.CacheCapacity, pol)
	} else {
		space, err = cachespace.New(cfg.CacheCapacity)
	}
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.Policy == 0 {
		cfg.Policy = PolicyBenefit
	}
	if cfg.RebuildBatch <= 0 {
		cfg.RebuildBatch = 64
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
	// One arena interns every file name once, shared by the DMT, the CDT
	// and the per-file epoch map.
	arena := names.NewArena()
	s := &S4D{
		eng:            cfg.Engine,
		opfs:           cfg.OPFS,
		cpfs:           cfg.CPFS,
		model:          cfg.Model,
		policy:         cfg.Policy,
		lazy:           cfg.LazyFetch,
		tracker:        costmodel.NewTracker(),
		cdt:            cdt.New(cfg.CDTMaxBytes, cdt.WithArena(arena)),
		space:          space,
		cacheCap:       cfg.CacheCapacity,
		baseCDTMax:     cfg.CDTMaxBytes,
		admitThreshold: cfg.Model.CriticalThreshold,
		rebuildBatch:   cfg.RebuildBatch,
		fileEpoch:      make(map[uint32]uint64),
		arena:          arena,
		chargeMeta:     cfg.ChargeMetaIO && cfg.MetaStore != nil,
		inFlightFetch:  make(map[string]bool),
		metaStore:      cfg.MetaStore,
		faulty:         cfg.OPFS.Faulty() || cfg.CPFS.Faulty(),
		downC:          make(map[int]bool),
		recoverBatch:   cfg.RecoverBatch,
	}
	s.dmtOpts = []dmt.Option{
		dmt.WithArena(arena),
		// Fault-in reads are metadata I/O: charge them like commits, in
		// extent-record units (s is fully built before any table op runs).
		dmt.WithFaultIO(func(n int) { s.chargeMetaFaultIn(n) }),
	}
	if cfg.MetaBudget > 0 {
		s.dmtOpts = append(s.dmtOpts, dmt.WithMetaBudget(cfg.MetaBudget))
	}
	if cfg.SpillRead != nil {
		s.dmtOpts = append(s.dmtOpts, dmt.WithSpillRead(cfg.SpillRead))
	}
	table := dmt.New(s.dmtOpts...)
	if cfg.MetaStore != nil && !cfg.WarmRestart {
		// With WarmRestart the log replays through the recovery path below
		// instead, installing only verified extents.
		table, err = dmt.Open(cfg.MetaStore, s.dmtOpts...)
		if err != nil {
			return nil, fmt.Errorf("core: open DMT: %w", err)
		}
	}
	s.dmt = table
	if cfg.Policy == PolicyLocality {
		s.locality = newLocalityTracker(0, 0)
	}
	if cfg.WarmRestart {
		if err := s.beginRecovery(cfg.MetaStore); err != nil {
			return nil, err
		}
	}
	if cfg.RebuildPeriod > 0 {
		s.ticker = cfg.Engine.Every(cfg.RebuildPeriod, func() { s.RebuildNow(nil) })
	}
	if cfg.AdaptivePeriod > 0 {
		s.chz = NewCharacterizer()
		s.adaptTicker = cfg.Engine.Every(cfg.AdaptivePeriod, s.adaptTick)
	}
	if cfg.SnapshotPeriod > 0 {
		s.snapTicker = cfg.Engine.Every(cfg.SnapshotPeriod, s.snapshotTick)
	}
	return s, nil
}

// Close stops the periodic Rebuilder and the adaptive policy ticker.
func (s *S4D) Close() {
	if s.ticker != nil {
		s.ticker.Stop()
		s.ticker = nil
	}
	if s.adaptTicker != nil {
		s.adaptTicker.Stop()
		s.adaptTicker = nil
	}
	if s.snapTicker != nil {
		s.snapTicker.Stop()
		s.snapTicker = nil
	}
}

// adaptTick is one adaptation step: snapshot the characterizer window,
// swap the cache policy if the profile calls for a different one, and
// retune the criticality threshold and CDT bound (DESIGN.md §13.4).
// It runs from the engine ticker in virtual time, so it is serialized
// with the serve path and fully deterministic.
func (s *S4D) adaptTick() {
	s.stats.AdaptTicks++
	prof := s.chz.SnapshotReset()
	if prof.Total() == 0 {
		return
	}
	if name := ChoosePolicy(prof, s.cacheCap, s.space.PolicyName()); name != "" && name != s.space.PolicyName() {
		if pol, err := cachespace.NewPolicy(name, s.cacheCap); err == nil {
			s.space.SetPolicy(pol)
			s.stats.PolicySwaps++
		}
	}
	if thrashing(prof, s.cacheCap) {
		// Cache-defeating scan: only clearly above-typical requests stay
		// critical, and the CDT is capped so scan extents cannot crowd
		// out the resident hot set's records.
		s.admitThreshold = s.model.CriticalThreshold + prof.MeanBenefit
		s.cdt.SetMaxBytes(s.cacheCap)
	} else {
		s.admitThreshold = s.model.CriticalThreshold
		s.cdt.SetMaxBytes(s.baseCDTMax)
	}
}

// DMT exposes the mapping table (read-mostly: reports and tests).
func (s *S4D) DMT() *dmt.Table { return s.dmt }

// CDT exposes the critical data table.
func (s *S4D) CDT() *cdt.Table { return s.cdt }

// Space exposes the cache space manager.
func (s *S4D) Space() *cachespace.Manager { return s.space }

// Model returns the cost model in use.
func (s *S4D) Model() costmodel.Params { return s.model }

// Write intercepts an application write of file[off, off+size) by rank.
// data may be nil in performance mode. done runs in virtual time when all
// segments complete, with the first segment error (nil on success).
func (s *S4D) Write(rank int, file string, off, size int64, data []byte, done func(error)) error {
	if err := checkRange(off, size, data); err != nil {
		return err
	}
	if size == 0 {
		s.completeErr(done)
		return nil
	}
	s.stats.Writes++
	s.stats.BytesWritten += size
	s.fileEpoch[s.arena.Intern(file)]++
	if s.recovering {
		// The write's bytes supersede any still-queued recovered extents it
		// overlaps; dropping them durably keeps a crash mid-recovery from
		// resurrecting the stale cache image over the new data.
		s.supersedePending(file, off, size)
	}

	benefit := s.identify(rank, file, off, size, true)

	s.hitsBuf, s.gapsBuf = s.dmt.AppendLookup(s.hitsBuf[:0], s.gapsBuf[:0], file, off, size)
	hits, gaps := s.hitsBuf, s.gapsBuf
	join := s.getJoin(len(hits)+len(gaps), done)

	// DMT hits: the cache holds the range — write there and re-dirty
	// (Algorithm 1, line 22).
	for _, h := range hits {
		if s.faulty && s.cacheRangeDown(h.CacheOff, h.Len) {
			// The cached copy sits on a crashed CServer. The write
			// supersedes it: drop the mapping and fail the segment over to
			// the DServers.
			s.stats.Failovers++
			if err := s.dmt.Delete(file, h.Off, h.Len); err != nil {
				return fmt.Errorf("core: failover unmap: %w", err)
			}
			s.space.FreeRange(h.CacheOff, h.Len)
			s.chargeMetaIO()
			s.stats.SegWritesDisk++
			s.stats.BytesWriteDisk += h.Len
			if err := s.opfs.Write(file, h.Off, h.Len, sim.PriorityHigh, slice(data, off, h.Off, h.Len), join.doneFn); err != nil {
				return err
			}
			continue
		}
		s.stats.SegWritesCache++
		s.stats.BytesWriteCache += h.Len
		if err := s.dmt.SetDirty(file, h.Off, h.Len); err != nil {
			return fmt.Errorf("core: set dirty: %w", err)
		}
		s.space.MarkDirty(h.CacheOff, h.Len)
		s.space.Touch(h.CacheOff, h.Len)
		s.chargeMetaIO()
		seg := slice(data, off, h.Off, h.Len)
		cb := join.doneFn
		if s.faulty {
			// An aborted cache write leaves a mapping whose bytes never
			// landed; fail the segment over (fault path — allocation fine).
			h := h
			cb = func(err error) {
				if err == nil {
					join.doneFn(nil)
					return
				}
				s.absorbFailed(file, h.Off, h.Len, h.CacheOff, seg, join.doneFn)
			}
		}
		if err := s.cpfs.Write(CacheFileName, h.CacheOff, h.Len, sim.PriorityHigh, seg, cb); err != nil {
			return err
		}
	}

	// Misses: admit critical segments if space allows, else DServers.
	// While degraded (any CServer down) nothing new is admitted — critical
	// traffic fails over to the DServers.
	for _, g := range gaps {
		if s.admitWrite(file, g.Off, g.Len, benefit) {
			if s.faulty && s.degraded() {
				s.stats.Failovers++
			} else {
				if err := s.absorbWrite(file, g.Off, g.Len, slice(data, off, g.Off, g.Len), join); err != nil {
					return err
				}
				continue
			}
		}
		s.stats.SegWritesDisk++
		s.stats.BytesWriteDisk += g.Len
		if err := s.opfs.Write(file, g.Off, g.Len, sim.PriorityHigh, slice(data, off, g.Off, g.Len), join.doneFn); err != nil {
			return err
		}
	}
	return nil
}

// Read intercepts an application read of file[off, off+size) by rank. buf
// may be nil in performance mode; otherwise it is filled by completion.
func (s *S4D) Read(rank int, file string, off, size int64, buf []byte, done func(error)) error {
	if err := checkRange(off, size, buf); err != nil {
		return err
	}
	if size == 0 {
		s.completeErr(done)
		return nil
	}
	s.stats.Reads++
	s.stats.BytesRead += size

	benefit := s.identify(rank, file, off, size, false)

	s.hitsBuf, s.gapsBuf = s.dmt.AppendLookup(s.hitsBuf[:0], s.gapsBuf[:0], file, off, size)
	hits, gaps := s.hitsBuf, s.gapsBuf
	join := s.getJoin(len(hits)+len(gaps), done)

	for _, h := range hits {
		if s.faulty && s.cacheRangeDown(h.CacheOff, h.Len) {
			// The only up-to-date copy is dirty cache data on a crashed
			// CServer that will restart: park the segment until then.
			s.deferRead(file, h.Off, h.Len, slice(buf, off, h.Off, h.Len), join.doneFn)
			continue
		}
		s.stats.SegReadsCache++
		s.stats.BytesReadCache += h.Len
		s.space.Touch(h.CacheOff, h.Len)
		seg := slice(buf, off, h.Off, h.Len)
		cb := join.doneFn
		if s.faulty {
			// A crash mid-read aborts the sub-request; re-resolve through
			// the post-crash mapping (fault path — allocation fine).
			h := h
			cb = func(err error) {
				if err == nil {
					join.doneFn(nil)
					return
				}
				s.readFailed(err, file, h.Off, h.Len, seg, join.doneFn)
			}
		}
		if err := s.cpfs.Read(CacheFileName, h.CacheOff, h.Len, sim.PriorityHigh, seg, cb); err != nil {
			return err
		}
	}
	for _, g := range gaps {
		critical := benefit > s.admitThreshold || s.cdt.Contains(file, g.Off, g.Len)
		if critical && s.lazy {
			// Lazy caching: mark for the Rebuilder (line 18).
			s.cdt.SetCFlag(file, g.Off, g.Len)
			s.stats.LazyMarks++
		}
		s.stats.SegReadsDisk++
		s.stats.BytesReadDisk += g.Len
		payload := slice(buf, off, g.Off, g.Len)
		cb := join.doneFn
		if critical && !s.lazy {
			// Eager caching (ablation): only this path needs a per-segment
			// closure; the paper's lazy mode passes the pooled countdown.
			g := g
			cb = func(err error) {
				if err == nil {
					s.eagerFetch(file, g.Off, g.Len, payload)
				}
				join.doneFn(err)
			}
		}
		if err := s.opfs.Read(file, g.Off, g.Len, sim.PriorityHigh, payload, cb); err != nil {
			return err
		}
	}
	return nil
}

// identify runs the Data Identifier: compute the benefit (Eq. 8) and
// record critical requests in the CDT. Under PolicyLocality the
// criterion is temporal locality instead of the cost model. Returns the
// benefit (zero when the policy replaces the model). write feeds the
// adaptive characterizer's read/write mix; it does not change routing.
func (s *S4D) identify(rank int, file string, off, size int64, write bool) time.Duration {
	s.stats.Identified++
	if s.policy == PolicyLocality {
		if s.locality.Touch(file, off, size) {
			s.stats.Critical++
			s.cdt.Add(file, off, size, 0)
			return time.Nanosecond // admissible marker
		}
		return 0
	}
	dist := s.tracker.Observe(costmodel.StreamKey{File: file, Rank: rank}, off, size)
	benefit := s.model.Benefit(costmodel.Request{Offset: off, Size: size, Distance: dist})
	if s.chz != nil {
		s.chz.Note(write, dist, file, off, size, benefit)
	}
	if benefit > s.admitThreshold {
		s.stats.Critical++
		if s.policy != PolicyNone {
			s.cdt.Add(file, off, size, benefit)
		}
	}
	return benefit
}

// admitWrite decides whether a write miss segment is absorbed by the
// CServers (Algorithm 1, line 3).
func (s *S4D) admitWrite(file string, off, length int64, benefit time.Duration) bool {
	if s.recovering {
		// Degraded until warm: the allocator's map still has holes where
		// pending extents will land, so nothing new is admitted.
		return false
	}
	switch s.policy {
	case PolicyNone:
		return false
	case PolicyAll:
		return true
	default:
		// PolicyBenefit and PolicyLocality: the identifier has already
		// encoded its verdict in benefit/CDT membership.
		return benefit > s.admitThreshold || s.cdt.Contains(file, off, length)
	}
}

// absorbWrite allocates cache space for a critical write miss and writes
// the segment to the CServers (Algorithm 1, lines 4–13). On allocation
// failure the segment falls back to the DServers.
func (s *S4D) absorbWrite(file string, off, length int64, data []byte, join *reqJoin) error {
	frags, evicted, err := s.space.Allocate(length, cachespace.Owner{File: file, FileOff: off}, true)
	// Evicted mappings must be dropped even when the allocation itself
	// failed: with pinned space (concurrent engine) Allocate can evict
	// some fragments and still come up short. Sequentially evicted is
	// always nil on error, so the order change is invisible.
	for _, ev := range evicted {
		if derr := s.dmt.Delete(ev.Owner.File, ev.Owner.FileOff, ev.Len); derr != nil {
			return fmt.Errorf("core: evict mapping: %w", derr)
		}
		s.chargeMetaIO()
	}
	if err != nil {
		// No free or clean space: the request goes to the DServers.
		s.stats.AdmitFailures++
		s.stats.SegWritesDisk++
		s.stats.BytesWriteDisk += length
		return s.opfs.Write(file, off, length, sim.PriorityHigh, data, join.doneFn)
	}
	s.stats.Admissions++
	s.stats.SegWritesCache++
	s.stats.BytesWriteCache += length
	// Map every fragment atomically (one DMT transaction per admitted
	// segment), then issue the cache writes.
	s.insertsBuf = s.insertsBuf[:0]
	pos := off
	for _, fr := range frags {
		s.insertsBuf = append(s.insertsBuf, dmt.FragmentInsert{
			Off: pos, Length: fr.Len, CacheOff: fr.CacheOff, Dirty: true,
		})
		pos += fr.Len
	}
	if err := s.dmt.InsertBatch(file, s.insertsBuf); err != nil {
		return fmt.Errorf("core: map fragments: %w", err)
	}
	s.chargeMetaIO()
	// join expects a single completion for this miss segment.
	sub := sim.NewErrJoin(len(frags), join.doneFn)
	pos = off
	for _, fr := range frags {
		seg := slice(data, off, pos, fr.Len)
		cb := sub.Done
		if s.faulty {
			// Aborted absorb: the fragment's mapping is bogus — fail it
			// over to the DServers (fault path — allocation fine).
			fr, pos := fr, pos
			cb = func(err error) {
				if err == nil {
					sub.Done(nil)
					return
				}
				s.absorbFailed(file, pos, fr.Len, fr.CacheOff, seg, sub.Done)
			}
		}
		if err := s.cpfs.Write(CacheFileName, fr.CacheOff, fr.Len, sim.PriorityHigh, seg, cb); err != nil {
			return err
		}
		pos += fr.Len
	}
	return nil
}

// eagerFetch caches a just-read range in the request path (ablation mode).
// It only proceeds for fully unmapped ranges: partially mapped ranges may
// hold dirty cache data that a disk-sourced insert would clobber.
func (s *S4D) eagerFetch(file string, off, length int64, data []byte) {
	if s.recovering {
		return
	}
	if hits, _ := s.dmt.Lookup(file, off, length); len(hits) > 0 {
		return
	}
	frags, evicted, err := s.space.Allocate(length, cachespace.Owner{File: file, FileOff: off}, false)
	for _, ev := range evicted {
		if s.dmt.Delete(ev.Owner.File, ev.Owner.FileOff, ev.Len) != nil {
			return
		}
	}
	if err != nil {
		return // no space: skip caching
	}
	s.stats.Fetches++
	pos := off
	for _, fr := range frags {
		if s.dmt.Insert(file, pos, fr.Len, fr.CacheOff, false) != nil {
			return
		}
		s.chargeMetaIO()
		// Population write happens off the critical path at low priority.
		_ = s.cpfs.Write(CacheFileName, fr.CacheOff, fr.Len, sim.PriorityLow, slice(data, off, pos, fr.Len), nil)
		pos += fr.Len
	}
}

// pruneEpochs drops write-epoch counters for files no longer referenced by
// the DMT or the CDT. Without this the fileEpoch map grows with every file
// ever written, even after its cache residency is long gone. It runs at
// Rebuilder cycle boundaries, when no flush or fetch holds a captured
// epoch; a pruned file that is written again simply restarts at epoch 1,
// which at worst makes a later data movement retry conservatively.
func (s *S4D) pruneEpochs() {
	for id := range s.fileEpoch {
		file := s.arena.Name(id)
		if s.dmt.FileMapped(file) || s.cdt.FileTracked(file) {
			continue
		}
		delete(s.fileEpoch, id)
		s.stats.EpochsPruned++
	}
}

// TrackedEpochs returns the number of files with a live write-epoch
// counter (tests and reports).
func (s *S4D) TrackedEpochs() int { return len(s.fileEpoch) }

// chargeMetaIO issues a CPFS write for the synchronous DMT commit, so
// metadata persistence consumes simulated CServer time (§III.D).
func (s *S4D) chargeMetaIO() {
	if !s.chargeMeta {
		return
	}
	s.stats.MetaWrites++
	_ = s.cpfs.Write(MetaFileName, s.metaOff, dmt.EntryBytes, sim.PriorityHigh, nil, nil)
	s.metaOff += dmt.EntryBytes
}

// chargeMetaFaultIn issues a CPFS read for a DMT fault-in of n spilled
// extent records, so re-reading spilled metadata consumes simulated
// CServer time like writing it did (DESIGN.md §16).
func (s *S4D) chargeMetaFaultIn(n int) {
	s.stats.MetaFaultIns++
	if !s.chargeMeta {
		return
	}
	s.stats.MetaReads++
	_ = s.cpfs.Read(MetaFileName, 0, int64(n)*dmt.EntryBytes, sim.PriorityHigh, nil, nil)
}

func (s *S4D) complete(done func()) {
	if done != nil {
		s.eng.After(0, done)
	}
}

// completeErr reports a zero-work request done in virtual time.
func (s *S4D) completeErr(done func(error)) {
	if done != nil {
		s.eng.After(0, func() { done(nil) })
	}
}

func checkRange(off, size int64, payload []byte) error {
	if off < 0 {
		return fmt.Errorf("core: negative offset %d", off)
	}
	if size < 0 {
		return fmt.Errorf("core: negative size %d", size)
	}
	if payload != nil && int64(len(payload)) != size {
		return fmt.Errorf("core: payload length %d != size %d", len(payload), size)
	}
	return nil
}

// slice returns the sub-payload of a request payload for segment
// [segOff, segOff+segLen), where the payload covers [reqOff, ...). Returns
// nil for nil payloads (performance mode).
func slice(payload []byte, reqOff, segOff, segLen int64) []byte {
	if payload == nil {
		return nil
	}
	lo := segOff - reqOff
	return payload[lo : lo+segLen]
}
