package core

// Warm restart on the concurrent engine: the shared staging
// (stageRecovery), then clean-extent re-admission as one task per file on
// the Rebuilder lanes, so all recovery for one file runs on one lane —
// serialized, under the file's shard mutex, against both writer supersedes
// and the lane's own adopts.

// beginRecovery stages the warm restart and queues the pending files on
// the lanes. Called from NewConcurrent before the instance is returned, so
// no client goroutine can race the synchronous dirty installs.
func (c *Concurrent) beginRecovery() error {
	files, err := c.stageRecovery()
	if err != nil || len(files) == 0 {
		return err
	}
	c.recoverLeft.Store(int32(len(files)))
	for _, f := range files {
		c.dispatch(crTask{recover: true, file: f})
	}
	return nil
}

// recoverFile re-admits one file's pending clean extents in batches,
// releasing the shard mutex between batches so foreground writers (and
// their supersede checks) interleave, then calls next. Runs on the file's
// Rebuilder lane; the last file to drain finishes the recovery.
func (c *Concurrent) recoverFile(file string, next func()) {
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
	next()
}
