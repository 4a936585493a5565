package core

import (
	"fmt"
	"time"

	"s4dcache/internal/cachespace"
	"s4dcache/internal/dmt"
)

// Warm restart for the concurrent engine: the same staged recovery as the
// sequential engine (recovery.go), but clean-extent re-admission fans out
// per file through the Rebuilder worker channels, so all recovery for one
// file runs on one worker — serialized, under the file's shard mutex,
// against both writer supersedes and the worker's own adopts. A dedicated
// dispatcher goroutine feeds the channels so construction never blocks on
// their bounded capacity.

// beginRecoveryConc replays the durable state into the already-constructed
// engine. Called from NewConcurrent before the instance is returned, so no
// client goroutine can race the synchronous dirty installs; the incremental
// clean phase that follows is fully concurrent-safe.
func (c *Concurrent) beginRecoveryConc() error {
	staging := dmt.New()
	maxSeq, spillQuar, err := dmt.ReplayState(c.metaStore, func(file string, off, length, cacheOff int64, dirty, insert bool) {
		if insert {
			_ = staging.Insert(file, off, length, cacheOff, dirty)
		} else {
			_ = staging.Delete(file, off, length)
		}
	})
	if err != nil {
		return fmt.Errorf("core: replay DMT state: %w", err)
	}
	live, err := dmt.NewPersistedShards(c.metaStore, maxSeq, len(c.shards), c.dmtOpts...)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	for i := range c.shards {
		c.shards[i].dmt = live[i]
	}

	img := readSnapshot(c.metaStore)
	c.quarRecords.Add(img.quarRecords + uint64(spillQuar))
	if img.hasMeta {
		c.snapEpoch.Store(img.meta.Epoch + 1)
	} else {
		c.snapEpoch.Store(1)
	}
	c.recCrits = img.crits

	// Dirty extents install synchronously: their only up-to-date copy is
	// the cache, so serving before they are resident would be wrong. One
	// outside its file's region is adopted all the same (flushOne unmaps
	// it once flushed). No other goroutine touches the tables yet.
	for _, h := range staging.DirtyExtents(0) {
		c.noteDriftConc(img, h, true)
		if err := c.space.Adopt(h.CacheOff, h.Len, cachespace.Owner{File: h.File, FileOff: h.Off}, true); err != nil {
			c.quarantineExtentConc(h.File, h.Off, h.Len, true)
			continue
		}
		sh, _ := c.shard(h.File)
		sh.dmt.Restore(h.File, h.Off, h.Len, h.CacheOff, true)
		c.recoveredDirty.Add(1)
		c.recoveredBytes.Add(h.Len)
	}

	clean := staging.CleanExtents(0)
	if len(clean) == 0 {
		c.finishRecoveryConc()
		return nil
	}
	// Group pending clean extents per file under their shards; remember the
	// file order for the dispatcher.
	var files []string
	for _, h := range clean {
		c.noteDriftConc(img, h, false)
		sh, _ := c.shard(h.File)
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
	c.recovering.Store(true)
	c.recoverStart = c.clock.Now()
	c.recoverLeft.Store(int32(len(files)))
	// Feed the worker channels off-thread: they are sized for Rebuilder
	// cycles, and a large recovery must not stall construction on their
	// capacity.
	go func() {
		for _, f := range files {
			c.dispatch(crTask{recover: true, file: f})
		}
	}()
	return nil
}

// noteDriftConc compares one replayed extent against the residency
// snapshot; disagreement is post-snapshot movement, counted not punished.
func (c *Concurrent) noteDriftConc(img snapImage, h dmt.Hit, dirty bool) {
	if !img.hasMeta {
		return
	}
	if _, ok := img.residency[resKey(h.File, h.Off, h.Len, h.CacheOff, dirty)]; !ok {
		c.residencyDrift.Add(1)
	}
}

// quarantineExtentConc counts one unrecoverable extent and durably drops
// its mapping. Dirty quarantines are lost data and land in the owning
// shard's DirtyLost counter. Caller holds the file's shard mutex, or runs
// before any other goroutine touches the engine.
func (c *Concurrent) quarantineExtentConc(file string, off, length int64, dirty bool) {
	c.quarRecords.Add(1)
	c.quarBytes.Add(length)
	sh, _ := c.shard(file)
	if dirty {
		sh.stats.dirtyLost.Add(length)
	}
	_ = sh.dmt.Delete(file, off, length)
}

// recoverFileConc re-admits one file's pending clean extents in batches,
// releasing the shard mutex between batches so foreground writers (and
// their supersede checks) interleave. Runs on the file's Rebuilder worker.
// A clean extent outside its file's region (the shard count changed) is
// quarantined, not adopted; its bytes are on the DServers (DESIGN.md §12).
func (c *Concurrent) recoverFileConc(file string) {
	sh, shardIdx := c.shard(file)
	for {
		sh.mu.Lock()
		list := sh.pending[file]
		n := c.recoverBatch
		if n > len(list) {
			n = len(list)
		}
		batch := list[:n]
		sh.pending[file] = list[n:]
		if n == 0 {
			delete(sh.pending, file)
			sh.mu.Unlock()
			break
		}
		for _, p := range batch {
			if p.dropped {
				continue
			}
			if !c.space.InRegion(shardIdx, p.cacheOff, p.length) ||
				c.space.Adopt(p.cacheOff, p.length, cachespace.Owner{File: p.file, FileOff: p.off}, false) != nil {
				c.quarantineExtentConc(p.file, p.off, p.length, false)
				continue
			}
			sh.dmt.Restore(p.file, p.off, p.length, p.cacheOff, false)
			c.recoveredClean.Add(1)
			c.recoveredBytes.Add(p.length)
		}
		sh.mu.Unlock()
	}
	if c.recoverLeft.Add(-1) == 0 {
		c.finishRecoveryConc()
	}
}

// supersedeConc drops still-pending clean extents a write overlaps. Caller
// holds the file's shard mutex — the same mutex the recovery worker adopts
// under — so an extent is either dropped here before its turn or already
// resident, never both.
func (c *Concurrent) supersedeConc(sh *cshard, file string, off, size int64) {
	for _, p := range sh.pending[file] {
		if p.dropped || p.off >= off+size || off >= p.off+p.length {
			continue
		}
		p.dropped = true
		c.superseded.Add(1)
		_ = sh.dmt.Delete(file, p.off, p.length)
	}
}

// finishRecoveryConc restores the CDT from the snapshot's critical records
// and reopens admissions and fetches. Runs exactly once: either inline at
// construction (nothing pending) or on the last worker to drain its files.
func (c *Concurrent) finishRecoveryConc() {
	for _, cr := range c.recCrits {
		sh, _ := c.shard(cr.File)
		sh.mu.Lock()
		sh.cdt.Restore(cr.File, cr.Off, cr.Len, cr.CFlag)
		sh.mu.Unlock()
		c.cdtRestored.Add(1)
	}
	c.recCrits = nil
	c.timeToWarm.Store(int64(c.clock.Now() - c.recoverStart))
	c.recovering.Store(false)
}

// armSnapshot schedules the next snapshot tick; self-rearming like
// armRebuild, stopped by Close.
func (c *Concurrent) armSnapshot(period time.Duration) {
	c.clock.After(period, func() {
		if c.closed.Load() {
			return
		}
		c.snapshotTickConc()
		c.armSnapshot(period)
	})
}

// snapshotTickConc streams residency and CDT state into the metadata store
// and compacts the DMT log. The dumps are per-shard consistent, not a
// global instant — safe because the op-log stays the mapping authority and
// the residency records are verification telemetry; the CDT records only
// carry criticality hints. The compaction holds every shard mutex, in
// index order: dropping the log must not interleave with any mutation.
func (c *Concurrent) snapshotTickConc() {
	if c.recovering.Load() || c.metaStore == nil {
		return
	}
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	n, err := c.snap.write(c.metaStore, c.DMT(), c.CDT(), c.snapEpoch.Load(), c.cacheCap)
	if err != nil {
		return
	}
	c.snapEpoch.Add(1)
	c.snapshots.Add(1)
	c.snapshotRecords.Add(uint64(n))
	tables := make([]*dmt.Table, len(c.shards))
	for i := range c.shards {
		c.shards[i].mu.Lock()
		tables[i] = c.shards[i].dmt
	}
	_ = dmt.CompactShards(tables)
	for i := range c.shards {
		c.shards[i].mu.Unlock()
	}
}

// SnapshotNow streams a residency snapshot immediately, outside the
// periodic ticker; safe from any goroutine. No-op without a metadata
// store or while a recovery is still in flight.
func (c *Concurrent) SnapshotNow() { c.snapshotTickConc() }
