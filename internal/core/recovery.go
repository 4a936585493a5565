package core

import (
	"fmt"
	"time"

	"s4dcache/internal/cachespace"
	"s4dcache/internal/dmt"
)

// Warm restart (DESIGN.md §14). On construction with a MetaStore the
// op-log replays into a staging table; dirty extents — whose only
// up-to-date copy is the cache — re-admit synchronously before the first
// request, and clean extents queue for incremental background
// re-admission so the engine serves immediately in degraded (read-around)
// mode. S4D paces re-admission in virtual-time batches (recoverStep);
// Concurrent queues it per file on its Rebuilder lanes
// (concrecovery.go). Any extent that fails verification is quarantined:
// counted, durably unmapped, and treated as a miss from then on — never a
// wrong answer, never a startup failure.

// defaultRecoverBatch is the clean-extent re-admission batch size.
const defaultRecoverBatch = 256

// recoverStepDelay is the virtual pause between re-admission batches: long
// enough that time-to-warm is measurable and foreground requests interleave
// with recovery, short enough that warm-up completes in a few milliseconds
// of virtual time even for large tables.
const recoverStepDelay = 100 * time.Microsecond

// stageRecovery replays the MetaStore's durable state: the op-log into a
// staging table, fresh persisted tables attached to the same log, the
// snapshot image, and the synchronous dirty installs. Every constructor
// given a MetaStore runs it, so every mapping the tables hold owns its
// cache range; an empty store (a cold start) stages nothing. Clean extents
// queue in their shards' pending lists; it returns their files in replay
// order, or nil when nothing is pending (recovery has then finished).
// The driver paces the clean re-admissions. Runs before the engine
// serves, so no other goroutine can race the dirty installs.
func (e *engine) stageRecovery() ([]string, error) {
	staging := dmt.New()
	maxSeq, spillQuar, err := dmt.ReplayState(e.metaStore, func(file string, off, length, cacheOff int64, dirty, insert bool) {
		if insert {
			_ = staging.Insert(file, off, length, cacheOff, dirty)
		} else {
			_ = staging.Delete(file, off, length)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("core: replay DMT state: %w", err)
	}
	live, err := dmt.NewPersistedShards(e.metaStore, maxSeq, len(e.shards), e.dmtOpts...)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	for i := range e.shards {
		e.shards[i].dmt = live[i]
	}

	img := readSnapshot(e.metaStore)
	e.quarRecords.Add(img.quarRecords + uint64(spillQuar))
	if img.hasMeta {
		e.snapEpoch.Store(img.meta.Epoch + 1)
	} else {
		e.snapEpoch.Store(1)
	}
	e.recCrits = img.crits

	// Dirty extents install synchronously: the DServers' copy is stale, so
	// serving before these are resident would return wrong bytes. One
	// outside its file's region is adopted all the same (Concurrent's
	// flushOne unmaps it once flushed).
	for _, h := range staging.DirtyExtents(0) {
		e.noteDrift(img, h, true)
		if err := e.space.Adopt(h.CacheOff, h.Len, cachespace.Owner{File: h.File, FileOff: h.Off}, true); err != nil {
			e.quarantine(h.File, h.Off, h.Len, true)
			continue
		}
		sh, _ := e.shard(h.File)
		sh.dmt.Restore(h.File, h.Off, h.Len, h.CacheOff, true)
		e.recoveredDirty.Add(1)
		e.recoveredBytes.Add(h.Len)
	}

	// Clean extents queue for incremental re-admission: the DServers hold an
	// identical copy, so until an extent's turn the engine reads around it.
	clean := staging.CleanExtents(0)
	if len(clean) == 0 {
		e.finishRecovery()
		return nil, nil
	}
	var files []string
	for _, h := range clean {
		e.noteDrift(img, h, false)
		sh, _ := e.shard(h.File)
		if sh.pending == nil {
			sh.pending = make(map[string][]*pendingExt)
		}
		if _, ok := sh.pending[h.File]; !ok {
			files = append(files, h.File)
		}
		sh.pending[h.File] = append(sh.pending[h.File], &pendingExt{
			file: h.File, off: h.Off, length: h.Len, cacheOff: h.CacheOff,
		})
	}
	e.recovering.Store(true)
	e.recoverStart = e.clock.Now()
	return files, nil
}

// noteDrift compares one replayed extent against the residency snapshot.
// Disagreement is expected — any op after the snapshot moves the log ahead
// of the image — so it is counted as drift, not quarantined.
func (e *engine) noteDrift(img snapImage, h dmt.Hit, dirty bool) {
	if !img.hasMeta {
		return
	}
	if _, ok := img.residency[resKey(h.File, h.Off, h.Len, h.CacheOff, dirty)]; !ok {
		e.residencyDrift.Add(1)
	}
}

// quarantine counts one unrecoverable extent and durably drops its
// mapping, so no future recovery can resurrect it. A quarantined dirty
// extent is lost data (the cache held the only copy); a clean one merely
// costs a re-fetch. Caller holds the file's shard mutex, or runs before
// the engine serves.
func (e *engine) quarantine(file string, off, length int64, dirty bool) {
	e.quarRecords.Add(1)
	e.quarBytes.Add(length)
	sh, _ := e.shard(file)
	if dirty {
		sh.stats.dirtyLost.Add(length)
	}
	_ = sh.dmt.Delete(file, off, length)
}

// adoptPending re-admits one pending clean extent at its recorded cache
// offset. One outside its file's region (the shard count changed) is
// quarantined, not adopted — its bytes are on the DServers (DESIGN.md §12)
// — as is one whose range is no longer free. Caller holds sh.mu.
func (e *engine) adoptPending(sh *cshard, shardIdx int, p *pendingExt) {
	if !e.space.InRegion(shardIdx, p.cacheOff, p.length) ||
		e.space.Adopt(p.cacheOff, p.length, cachespace.Owner{File: p.file, FileOff: p.off}, false) != nil {
		e.quarantine(p.file, p.off, p.length, false)
		return
	}
	sh.dmt.Restore(p.file, p.off, p.length, p.cacheOff, false)
	e.recoveredClean.Add(1)
	e.recoveredBytes.Add(p.length)
}

// supersede drops still-pending clean extents that overlap a write
// arriving mid-recovery: the write's bytes (wherever they land) are newer
// than the recovered cache image. The whole overlapping extent is dropped
// — and durably unmapped, so a crash before the next snapshot cannot bring
// the stale mapping back over the new DServer data. Caller holds sh.mu,
// the mutex re-admission runs under, so an extent is either dropped here
// before its turn or already resident, never both.
func (e *engine) supersede(sh *cshard, file string, off, size int64) {
	for _, p := range sh.pending[file] {
		if p.dropped || p.off >= off+size || off >= p.off+p.length {
			continue
		}
		p.dropped = true
		e.superseded.Add(1)
		_ = sh.dmt.Delete(file, p.off, p.length)
	}
}

// finishRecovery restores the CDT from the snapshot's critical records and
// opens the gates: admissions and Rebuilder fetches resume. Runs once:
// inside stageRecovery when nothing is pending, else when the driver has
// drained every pending extent.
func (e *engine) finishRecovery() {
	for _, cr := range e.recCrits {
		sh, _ := e.shard(cr.File)
		sh.mu.Lock()
		sh.cdt.Restore(cr.File, cr.Off, cr.Len, cr.CFlag)
		sh.mu.Unlock()
		e.cdtRestored.Add(1)
	}
	e.recCrits = nil
	if e.recovering.Load() {
		e.timeToWarm.Store(int64(e.clock.Now() - e.recoverStart))
		e.recovering.Store(false)
	}
}

// recoverStep re-admits one batch of pending clean extents, in replay
// order across files, then yields for recoverStepDelay of virtual time.
func (s *S4D) recoverStep() {
	if !s.recovering.Load() {
		return
	}
	sh := s.sh
	n := 0
	for n < s.recoverBatch && len(s.recoverFiles) > 0 {
		file := s.recoverFiles[0]
		list := sh.pending[file]
		p := list[0]
		if len(list) == 1 {
			delete(sh.pending, file)
			s.recoverFiles = s.recoverFiles[1:]
		} else {
			sh.pending[file] = list[1:]
		}
		if p.dropped {
			continue
		}
		n++
		s.adoptPending(sh, 0, p)
	}
	if len(s.recoverFiles) == 0 {
		s.finishRecovery()
		return
	}
	s.eng.After(recoverStepDelay, s.recoverStep)
}

// snapshotTick streams residency and CDT state into the metadata store
// and compacts the DMT log, so the whole image lands in one
// integrity-framed store snapshot. Skipped while recovering: the tables do
// not yet reflect the durable state. The dumps are per-shard consistent,
// not a global instant — safe because the op-log stays the mapping
// authority and the residency records are verification telemetry; the CDT
// records only carry criticality hints. The compaction holds every shard
// mutex, in index order: dropping the log must not interleave with any
// mutation.
func (e *engine) snapshotTick() {
	if e.recovering.Load() || e.metaStore == nil {
		return
	}
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	n, err := e.snap.write(e.metaStore, DMTView{e}, CDTView{e}, e.snapEpoch.Load(), e.cacheCap)
	if err != nil {
		return
	}
	e.snapEpoch.Add(1)
	e.snapshots.Add(1)
	e.snapshotRecords.Add(uint64(n))
	tables := make([]*dmt.Table, len(e.shards))
	for i := range e.shards {
		e.shards[i].mu.Lock()
		tables[i] = e.shards[i].dmt
	}
	_ = dmt.CompactShards(tables)
	for i := range e.shards {
		e.shards[i].mu.Unlock()
	}
}

// SnapshotNow streams a residency snapshot immediately, outside the
// periodic ticker — drivers and benches use it to checkpoint durable
// state before a planned restart. Safe from any goroutine; no-op without
// a metadata store or while a recovery is still in flight.
func (e *engine) SnapshotNow() { e.snapshotTick() }
