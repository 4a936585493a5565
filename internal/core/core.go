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
	"s4dcache/internal/kvstore"
	"s4dcache/internal/pfs"
	"s4dcache/internal/sim"
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
	// MetaStore, if non-nil, persists the DMT through this store. The
	// engine recovers the cache residency the store records at
	// construction (a warm restart, DESIGN.md §14): dirty extents re-admit
	// synchronously, clean extents incrementally in the background while
	// the engine serves degraded (read-around). A fresh store starts
	// cold.
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
	// RecoverBatch caps clean extents re-admitted per recovery step; 0
	// means 256.
	RecoverBatch int
}

// S4D is one S4D-Cache instance: the virtual-time driver of the shared
// engine. It owns one shard — the whole DMT, CDT and cost-model state —
// and a one-region cache space, and keeps only the code that fixes the
// deterministic event order of the paper's experiments: the pooled
// request join that fires through the engine, the read fan-out order
// (hits, then gaps, no pins), the whole-cycle Rebuilder with in-flight
// fetch dedup, recovery pacing, metadata I/O charging and eager fetch
// (DESIGN.md §11).
type S4D struct {
	engine
	eng *sim.Engine
	// sh is the one shard (engine.shards[0]).
	sh   *cshard
	lazy bool

	ticker         *sim.Ticker
	adaptTicker    *sim.Ticker
	snapTicker     *sim.Ticker
	rebuildBusy    bool
	rebuildWaiters []func()
	inFlightFetch  map[string]bool

	// Metadata I/O charging: DMT commits and fault-ins issue CPFS I/O
	// when chargeMeta is set (ChargeMetaIO with a MetaStore).
	chargeMeta            bool
	metaOff               int64
	metaWrites, metaReads uint64

	// recoverFiles lists the files with pending recovered clean extents
	// (sh.pending), in replay order; recoverStep drains them in batches.
	recoverFiles []string

	// joinPool recycles per-request segment countdowns; in-flight joins are
	// simply absent from the pool until their last segment completes.
	joinPool []*reqJoin
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
	if cfg.OPFS == nil || cfg.CPFS == nil {
		return nil, fmt.Errorf("core: OPFS and CPFS are required")
	}
	s := &S4D{
		eng:           cfg.Engine,
		lazy:          cfg.LazyFetch,
		chargeMeta:    cfg.ChargeMetaIO && cfg.MetaStore != nil,
		inFlightFetch: make(map[string]bool),
	}
	err := s.init(engineConfig{
		clock:        cfg.Engine,
		opfs:         cfg.OPFS,
		cpfs:         cfg.CPFS,
		model:        cfg.Model,
		capacity:     cfg.CacheCapacity,
		cdtMax:       cfg.CDTMaxBytes,
		shards:       1,
		policy:       cfg.Policy,
		cachePolicy:  cfg.CachePolicy,
		rebuildBatch: cfg.RebuildBatch,
		metaStore:    cfg.MetaStore,
		metaBudget:   cfg.MetaBudget,
		spillRead:    cfg.SpillRead,
		adaptive:     cfg.AdaptivePeriod > 0,
		snapshot:     cfg.SnapshotPeriod > 0,
		recoverBatch: cfg.RecoverBatch,
		// Sub-requests issued before the first failure must already route
		// through the failover wrappers; healthy testbeds pay one false
		// check on the serve path.
		faulty: cfg.OPFS.Faulty() || cfg.CPFS.Faulty(),
	}, s)
	if err != nil {
		return nil, err
	}
	s.sh = &s.shards[0]
	if cfg.MetaStore != nil {
		files, err := s.stageRecovery()
		if err != nil {
			return nil, err
		}
		if len(files) > 0 {
			s.recoverFiles = files
			s.eng.After(recoverStepDelay, s.recoverStep)
		}
	}
	if cfg.RebuildPeriod > 0 {
		s.ticker = cfg.Engine.Every(cfg.RebuildPeriod, func() { s.RebuildNow(nil) })
	}
	if cfg.AdaptivePeriod > 0 {
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

// DMT exposes the mapping table (read-mostly: reports and tests).
func (s *S4D) DMT() *dmt.Table { return s.sh.dmt }

// CDT exposes the critical data table.
func (s *S4D) CDT() *cdt.Table { return s.sh.cdt }

// Stats returns a snapshot of the instance counters: the engine's, the
// charged metadata I/O, and the PFS layers' transient-error retries.
func (s *S4D) Stats() Stats {
	st := s.engine.Stats()
	st.Retries = s.opfs.(*pfs.FS).Stats().Retries + s.cpfs.(*pfs.FS).Stats().Retries
	st.MetaWrites = s.metaWrites
	st.MetaReads = s.metaReads
	return st
}

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
	sh := s.sh
	sh.stats.writes.Add(1)
	sh.stats.bytesWritten.Add(size)
	sh.fileEpoch[s.arena.Intern(file)]++
	if s.recovering.Load() {
		// The write's bytes supersede any still-queued recovered extents it
		// overlaps; dropping them durably keeps a crash mid-recovery from
		// resurrecting the stale cache image over the new data.
		s.supersede(sh, file, off, size)
	}

	benefit, _ := s.identify(sh, rank, file, off, size, true)

	sh.hitsBuf, sh.gapsBuf = sh.dmt.AppendLookup(sh.hitsBuf[:0], sh.gapsBuf[:0], file, off, size)
	hits, gaps := sh.hitsBuf, sh.gapsBuf
	join := s.getJoin(len(hits)+len(gaps), done)

	// DMT hits: the cache holds the range — write there and re-dirty
	// (Algorithm 1, line 22).
	for _, h := range hits {
		if s.faulty.Load() && s.cpfs.RangeDown(h.CacheOff, h.Len) {
			// The cached copy sits on a crashed CServer. The write
			// supersedes it: drop the mapping and fail the segment over to
			// the DServers.
			sh.stats.failovers.Add(1)
			if err := sh.dmt.Delete(file, h.Off, h.Len); err != nil {
				return fmt.Errorf("core: failover unmap: %w", err)
			}
			s.space.FreeRange(h.CacheOff, h.Len)
			s.chargeMetaIO()
			sh.stats.segWritesDisk.Add(1)
			sh.stats.bytesWriteDisk.Add(h.Len)
			if err := s.opfs.Write(file, h.Off, h.Len, sim.PriorityHigh, slice(data, off, h.Off, h.Len), join.doneFn); err != nil {
				return err
			}
			continue
		}
		sh.stats.segWritesCache.Add(1)
		sh.stats.bytesWriteCache.Add(h.Len)
		if err := sh.dmt.SetDirty(file, h.Off, h.Len); err != nil {
			return fmt.Errorf("core: set dirty: %w", err)
		}
		s.space.MarkDirty(h.CacheOff, h.Len)
		s.space.Touch(h.CacheOff, h.Len)
		s.chargeMetaIO()
		seg := slice(data, off, h.Off, h.Len)
		cb := join.doneFn
		if s.faulty.Load() {
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
		if s.admitWrite(sh, file, g.Off, g.Len, benefit) {
			if s.faulty.Load() && s.degradedNow() {
				sh.stats.failovers.Add(1)
			} else {
				if err := s.absorbWrite(file, g.Off, g.Len, slice(data, off, g.Off, g.Len), join); err != nil {
					return err
				}
				continue
			}
		}
		sh.stats.segWritesDisk.Add(1)
		sh.stats.bytesWriteDisk.Add(g.Len)
		if err := s.opfs.Write(file, g.Off, g.Len, sim.PriorityHigh, slice(data, off, g.Off, g.Len), join.doneFn); err != nil {
			return err
		}
	}
	return nil
}

// Read intercepts an application read of file[off, off+size) by rank. buf
// may be nil in performance mode; otherwise it is filled by completion.
// Hits issue before gaps, and no hit is pinned: in virtual time nothing
// can reclaim the space before the read completes.
func (s *S4D) Read(rank int, file string, off, size int64, buf []byte, done func(error)) error {
	if err := checkRange(off, size, buf); err != nil {
		return err
	}
	if size == 0 {
		s.completeErr(done)
		return nil
	}
	sh := s.sh
	sh.stats.reads.Add(1)
	sh.stats.bytesRead.Add(size)

	benefit, recorded := s.identify(sh, rank, file, off, size, false)

	sh.hitsBuf, sh.gapsBuf = sh.dmt.AppendLookup(sh.hitsBuf[:0], sh.gapsBuf[:0], file, off, size)
	hits, gaps := sh.hitsBuf, sh.gapsBuf
	join := s.getJoin(len(hits)+len(gaps), done)

	for _, h := range hits {
		if s.faulty.Load() && s.cpfs.RangeDown(h.CacheOff, h.Len) {
			// The only up-to-date copy is dirty cache data on a crashed
			// CServer that will restart: park the segment until then.
			s.deferRead(sh, file, h.Off, h.Len, slice(buf, off, h.Off, h.Len), join.doneFn)
			continue
		}
		sh.stats.segReadsCache.Add(1)
		sh.stats.bytesReadCache.Add(h.Len)
		s.space.Touch(h.CacheOff, h.Len)
		seg := slice(buf, off, h.Off, h.Len)
		cb := join.doneFn
		if s.faulty.Load() {
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
		critical := benefit > s.threshold() || sh.cdt.Contains(file, g.Off, g.Len)
		if critical && s.lazy {
			// Lazy caching: mark for the Rebuilder (line 18).
			fr := flagRange(recorded, off, size, g)
			sh.cdt.SetCFlag(file, fr.Off, fr.Len)
			sh.stats.lazyMarks.Add(1)
		}
		sh.stats.segReadsDisk.Add(1)
		sh.stats.bytesReadDisk.Add(g.Len)
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

// absorbWrite allocates cache space for a critical write miss and writes
// the segment to the CServers (Algorithm 1, lines 4–13). On allocation
// failure the segment falls back to the DServers. Eviction victims are
// unmapped (and their commits charged) by the space's eviction hook.
func (s *S4D) absorbWrite(file string, off, length int64, data []byte, join *reqJoin) error {
	sh := s.sh
	frags, err := s.space.Allocate(sh.fragsBuf[:0], 0, length, cachespace.Owner{File: file, FileOff: off}, true)
	sh.fragsBuf = frags
	if err != nil {
		// No free or clean space: the request goes to the DServers.
		sh.stats.admitFailures.Add(1)
		sh.stats.segWritesDisk.Add(1)
		sh.stats.bytesWriteDisk.Add(length)
		return s.opfs.Write(file, off, length, sim.PriorityHigh, data, join.doneFn)
	}
	sh.stats.admissions.Add(1)
	sh.stats.segWritesCache.Add(1)
	sh.stats.bytesWriteCache.Add(length)
	// Map every fragment atomically (one DMT transaction per admitted
	// segment), then issue the cache writes.
	sh.insertsBuf = sh.insertsBuf[:0]
	pos := off
	for _, fr := range frags {
		sh.insertsBuf = append(sh.insertsBuf, dmt.FragmentInsert{
			Off: pos, Length: fr.Len, CacheOff: fr.CacheOff, Dirty: true,
		})
		pos += fr.Len
	}
	if err := sh.dmt.InsertBatch(file, sh.insertsBuf); err != nil {
		return fmt.Errorf("core: map fragments: %w", err)
	}
	s.chargeMetaIO()
	// join expects a single completion for this miss segment.
	sub := sim.NewErrJoin(len(frags), join.doneFn)
	pos = off
	for _, fr := range frags {
		seg := slice(data, off, pos, fr.Len)
		cb := sub.Done
		if s.faulty.Load() {
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
	if s.recovering.Load() {
		return
	}
	sh := s.sh
	if hits, _ := sh.dmt.Lookup(file, off, length); len(hits) > 0 {
		return
	}
	frags, err := s.space.Allocate(nil, 0, length, cachespace.Owner{File: file, FileOff: off}, false)
	if err != nil {
		return // no space: skip caching
	}
	s.fetches.Add(1)
	pos := off
	for _, fr := range frags {
		if sh.dmt.Insert(file, pos, fr.Len, fr.CacheOff, false) != nil {
			return
		}
		s.chargeMetaIO()
		// Population write happens off the critical path at low priority.
		_ = s.cpfs.Write(CacheFileName, fr.CacheOff, fr.Len, sim.PriorityLow, slice(data, off, pos, fr.Len), nil)
		pos += fr.Len
	}
}

// chargeMetaIO issues a CPFS write for the synchronous DMT commit, so
// metadata persistence consumes simulated CServer time (§III.D).
func (s *S4D) chargeMetaIO() {
	if !s.chargeMeta {
		return
	}
	s.metaWrites++
	_ = s.cpfs.Write(MetaFileName, s.metaOff, dmt.EntryBytes, sim.PriorityHigh, nil, nil)
	s.metaOff += dmt.EntryBytes
}

// chargeMetaFaultIn issues a CPFS read for a DMT fault-in of n spilled
// extent records, so re-reading spilled metadata consumes simulated
// CServer time like writing it did (DESIGN.md §16).
func (s *S4D) chargeMetaFaultIn(n int) {
	if !s.chargeMeta {
		return
	}
	s.metaReads++
	_ = s.cpfs.Read(MetaFileName, 0, int64(n)*dmt.EntryBytes, sim.PriorityHigh, nil, nil)
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
