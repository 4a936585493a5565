package core

import "time"

// Warm restart on the concurrent engine: the shared staging
// (stageRecovery), then clean-extent re-admission fanned out per file
// through the Rebuilder worker channels, so all recovery for one file runs
// on one worker — serialized, under the file's shard mutex, against both
// writer supersedes and the worker's own adopts. A dedicated dispatcher
// goroutine feeds the channels so construction never blocks on their
// bounded capacity.

// beginRecovery stages the warm restart and hands the pending files to
// the workers. Called from NewConcurrent after the workers start and
// before the instance is returned, so no client goroutine can race the
// synchronous dirty installs.
func (c *Concurrent) beginRecovery() error {
	files, err := c.stageRecovery()
	if err != nil || len(files) == 0 {
		return err
	}
	c.recoverLeft.Store(int32(len(files)))
	go func() {
		for _, f := range files {
			c.dispatch(crTask{recover: true, file: f})
		}
	}()
	return nil
}

// recoverFile re-admits one file's pending clean extents in batches,
// releasing the shard mutex between batches so foreground writers (and
// their supersede checks) interleave. Runs on the file's Rebuilder worker;
// the last file to drain finishes the recovery.
func (c *Concurrent) recoverFile(file string) {
	sh, shardIdx := c.shard(file)
	for {
		sh.mu.Lock()
		list := sh.pending[file]
		n := min(c.recoverBatch, len(list))
		if n == 0 {
			delete(sh.pending, file)
			sh.mu.Unlock()
			break
		}
		sh.pending[file] = list[n:]
		for _, p := range list[:n] {
			if !p.dropped {
				c.adoptPending(sh, shardIdx, p)
			}
		}
		sh.mu.Unlock()
	}
	if c.recoverLeft.Add(-1) == 0 {
		c.finishRecovery()
	}
}

// armSnapshot schedules the next snapshot tick; self-rearming like
// armRebuild, stopped by Close.
func (c *Concurrent) armSnapshot(period time.Duration) {
	c.clock.After(period, func() {
		if c.closed.Load() {
			return
		}
		c.snapshotTick()
		c.armSnapshot(period)
	})
}
