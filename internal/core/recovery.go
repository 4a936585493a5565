package core

import (
	"fmt"
	"time"

	"s4dcache/internal/cachespace"
	"s4dcache/internal/dmt"
	"s4dcache/internal/kvstore"
)

// Warm restart for the sequential engine (DESIGN.md §14). On construction
// with WarmRestart the op-log replays into a staging table; dirty extents —
// whose only up-to-date copy is the cache — re-admit synchronously before
// the first request, and clean extents queue for incremental background
// re-admission so the engine serves immediately in degraded (read-around)
// mode. Any extent that fails verification is quarantined: counted,
// durably unmapped, and treated as a miss from then on — never a wrong
// answer, never a startup failure.

// defaultRecoverBatch is the clean-extent re-admission batch size.
const defaultRecoverBatch = 256

// recoverStepDelay is the virtual pause between re-admission batches: long
// enough that time-to-warm is measurable and foreground requests interleave
// with recovery, short enough that warm-up completes in a few milliseconds
// of virtual time even for large tables.
const recoverStepDelay = 100 * time.Microsecond

// beginRecovery replays the durable state and stages the warm restart.
// Called from New before the first request can arrive; s.dmt is replaced
// with a table attached to the same log but populated only with verified
// extents.
func (s *S4D) beginRecovery(store *kvstore.Store) error {
	staging := dmt.New()
	maxSeq, spillQuar, err := dmt.ReplayState(store, func(file string, off, length, cacheOff int64, dirty, insert bool) {
		if insert {
			_ = staging.Insert(file, off, length, cacheOff, dirty)
		} else {
			_ = staging.Delete(file, off, length)
		}
	})
	if err != nil {
		return fmt.Errorf("core: replay DMT state: %w", err)
	}
	live, err := dmt.NewPersisted(store, maxSeq, s.dmtOpts...)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	s.dmt = live

	img := readSnapshot(store)
	s.stats.QuarantinedRecords += img.quarRecords + uint64(spillQuar)
	if img.hasMeta {
		s.snapEpoch = img.meta.Epoch + 1
	} else {
		s.snapEpoch = 1
	}
	s.recCrits = img.crits

	// Dirty extents install synchronously: the DServers' copy is stale, so
	// serving before these are resident would return wrong bytes.
	for _, h := range staging.DirtyExtents(0) {
		s.noteDrift(img, h, true)
		if err := s.space.Adopt(h.CacheOff, h.Len, cachespace.Owner{File: h.File, FileOff: h.Off}, true); err != nil {
			s.quarantineExtent(h.File, h.Off, h.Len, true)
			continue
		}
		s.dmt.Restore(h.File, h.Off, h.Len, h.CacheOff, true)
		s.stats.RecoveredDirty++
		s.stats.RecoveredBytes += h.Len
	}

	// Clean extents queue for incremental re-admission: the DServers hold an
	// identical copy, so until an extent's turn the engine reads around it.
	clean := staging.CleanExtents(0)
	if len(clean) == 0 {
		s.finishRecovery()
		return nil
	}
	s.recoverQueue = make([]*pendingExt, 0, len(clean))
	s.recoverByFile = make(map[string][]*pendingExt)
	for _, h := range clean {
		s.noteDrift(img, h, false)
		p := &pendingExt{file: h.File, off: h.Off, length: h.Len, cacheOff: h.CacheOff}
		s.recoverQueue = append(s.recoverQueue, p)
		s.recoverByFile[h.File] = append(s.recoverByFile[h.File], p)
	}
	s.recovering = true
	s.recoverStart = s.eng.Now()
	s.eng.After(recoverStepDelay, s.recoverStep)
	return nil
}

// noteDrift compares one replayed extent against the residency snapshot.
// Disagreement is expected — any op after the snapshot moves the log ahead
// of the image — so it is counted as drift, not quarantined.
func (s *S4D) noteDrift(img snapImage, h dmt.Hit, dirty bool) {
	if !img.hasMeta {
		return
	}
	if _, ok := img.residency[resKey(h.File, h.Off, h.Len, h.CacheOff, dirty)]; !ok {
		s.stats.ResidencyDrift++
	}
}

// quarantineExtent counts one unrecoverable extent and durably drops its
// mapping, so no future recovery can resurrect it. A quarantined dirty
// extent is lost data (the cache held the only copy); a clean one merely
// costs a re-fetch.
func (s *S4D) quarantineExtent(file string, off, length int64, dirty bool) {
	s.stats.QuarantinedRecords++
	s.stats.QuarantinedBytes += length
	if dirty {
		s.stats.DirtyLost += length
	}
	_ = s.dmt.Delete(file, off, length)
}

// recoverStep re-admits one batch of pending clean extents, then yields.
func (s *S4D) recoverStep() {
	if !s.recovering {
		return
	}
	n := 0
	for n < s.recoverBatch && len(s.recoverQueue) > 0 {
		p := s.recoverQueue[0]
		s.recoverQueue = s.recoverQueue[1:]
		if p.dropped {
			continue
		}
		n++
		if err := s.space.Adopt(p.cacheOff, p.length, cachespace.Owner{File: p.file, FileOff: p.off}, false); err != nil {
			s.quarantineExtent(p.file, p.off, p.length, false)
			continue
		}
		s.dmt.Restore(p.file, p.off, p.length, p.cacheOff, false)
		s.stats.RecoveredClean++
		s.stats.RecoveredBytes += p.length
	}
	if len(s.recoverQueue) == 0 {
		s.finishRecovery()
		return
	}
	s.eng.After(recoverStepDelay, s.recoverStep)
}

// supersedePending drops queued clean extents that overlap a write arriving
// mid-recovery: the write's bytes (wherever they land) are newer than the
// recovered cache image. The whole overlapping extent is dropped — and
// durably unmapped, so a crash before the next snapshot cannot bring the
// stale mapping back over the new DServer data.
func (s *S4D) supersedePending(file string, off, size int64) {
	for _, p := range s.recoverByFile[file] {
		if p.dropped || p.off >= off+size || off >= p.off+p.length {
			continue
		}
		p.dropped = true
		s.stats.RecoverySuperseded++
		_ = s.dmt.Delete(file, p.off, p.length)
	}
}

// finishRecovery restores the CDT from the snapshot's critical records and
// opens the gates: admissions and Rebuilder fetches resume.
func (s *S4D) finishRecovery() {
	for _, cr := range s.recCrits {
		s.cdt.Restore(cr.File, cr.Off, cr.Len, cr.CFlag)
		s.stats.CDTRestored++
	}
	s.recCrits = nil
	s.recoverQueue = nil
	s.recoverByFile = nil
	if s.recovering {
		s.recovering = false
		s.stats.TimeToWarm = s.eng.Now() - s.recoverStart
	}
}

// snapshotTick streams the current residency and CDT state into the
// metadata store and compacts the DMT log, so the whole image lands in one
// integrity-framed store snapshot. Skipped while recovering: the tables do
// not yet reflect the durable state.
func (s *S4D) snapshotTick() {
	if s.recovering || s.metaStore == nil {
		return
	}
	n, err := s.snap.write(s.metaStore, s.dmt, s.cdt, s.snapEpoch, s.cacheCap)
	if err != nil {
		return
	}
	s.snapEpoch++
	s.stats.Snapshots++
	s.stats.SnapshotRecords += uint64(n)
	_ = s.dmt.Compact()
}

// SnapshotNow streams a residency snapshot immediately, outside the
// periodic ticker — drivers and benches use it to checkpoint durable
// state before a planned restart. No-op without a metadata store or while
// a recovery is still in flight.
func (s *S4D) SnapshotNow() { s.snapshotTick() }
