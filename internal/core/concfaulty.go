package core

import (
	"s4dcache/internal/dmt"
	"s4dcache/internal/sim"
)

// Degraded-mode machinery of the concurrent engine. Same fail-stop policy
// as faulty.go, re-derived for the sharded lock order: every mapping
// mutation re-validates under the owning shard's mutex, because between a
// crash snapshot and its resolution another goroutine may have remapped,
// superseded or failed over the extent.

// OnCServerState is the pfs crash/restart hook (wire it as the CPFS
// backend's StateFunc). Safe against concurrent serve traffic; concurrent
// state transitions themselves must be externally serialized (one
// fault-injection driver), matching the single fault plan of the
// sequential engine.
func (c *Concurrent) OnCServerState(server int, down, restarts bool) {
	c.faulty.Store(true)
	if down {
		c.downMu.Lock()
		if len(c.downC) == 0 {
			c.degradedSince = c.clock.Now()
		}
		c.downC[server] = true
		c.downCount.Store(int32(len(c.downC)))
		c.downMu.Unlock()
		c.invalidateServerConc(server, restarts)
		return
	}
	c.downMu.Lock()
	delete(c.downC, server)
	c.downCount.Store(int32(len(c.downC)))
	if len(c.downC) == 0 {
		c.degradedTime += c.clock.Now() - c.degradedSince
	}
	c.downMu.Unlock()
	c.flushDeferredReadsConc()
}

// invalidateServerConc resolves every mapping touching the crashed server:
// clean extents and unrecoverable dirty extents are unmapped; dirty
// extents that will come back with the server are kept (reads defer,
// writes supersede). The table snapshot is taken lock-free, so each extent
// is re-validated under its shard mutex before mutation — an extent that
// moved or changed dirty state since the snapshot belongs to whichever
// path moved it.
func (c *Concurrent) invalidateServerConc(server int, restarts bool) {
	resolve := func(snap []dmt.Hit, dirty bool) {
		for _, h := range snap {
			if !c.conExtentOnServer(h.CacheOff, h.Len, server) {
				continue
			}
			if dirty && restarts {
				continue
			}
			sh, _ := c.shard(h.File)
			sh.mu.Lock()
			hits, _ := c.dmt.Lookup(h.File, h.Off, h.Len)
			for _, hh := range hits {
				if hh.Dirty != dirty {
					continue
				}
				if hh.CacheOff != h.CacheOff+(hh.Off-h.Off) {
					continue // remapped since the snapshot
				}
				if c.dmt.Delete(h.File, hh.Off, hh.Len) != nil {
					continue
				}
				c.space.FreeRange(hh.CacheOff, hh.Len)
				if dirty {
					sh.stats.dirtyLost.Add(hh.Len)
				}
			}
			sh.mu.Unlock()
		}
	}
	resolve(c.dmt.CleanExtents(0), false)
	resolve(c.dmt.DirtyExtents(0), true)
}

// conExtentOnServer reports whether a cache-file extent touches the given
// CServer under the CPFS striping (pure layout math, no locks).
func (c *Concurrent) conExtentOnServer(cacheOff, length int64, server int) bool {
	if length <= 0 {
		return false
	}
	l := c.cpfs.Layout()
	m := int64(l.Servers)
	first := cacheOff / l.StripeSize
	last := (cacheOff + length - 1) / l.StripeSize
	if last-first+1 >= m {
		return true
	}
	for k := first; k <= last; k++ {
		if int(k%m) == server {
			return true
		}
	}
	return false
}

// deferReadConc parks a read segment until its crashed CServer restarts.
// Called under the owning shard's mutex; deferMu is a leaf below it.
func (c *Concurrent) deferReadConc(sh *cshard, file string, off, length int64, buf []byte, cb func(error)) {
	sh.stats.deferredReads.Add(1)
	c.deferMu.Lock()
	c.deferred = append(c.deferred, deferredRead{file: file, off: off, lng: length, buf: buf, cb: cb})
	c.deferMu.Unlock()
}

// flushDeferredReadsConc re-issues every parked read after a restart. The
// list is swapped out under deferMu and replayed without it, so re-parking
// (a different CServer still down) cannot deadlock.
func (c *Concurrent) flushDeferredReadsConc() {
	c.deferMu.Lock()
	parked := c.deferred
	c.deferred = nil
	c.deferMu.Unlock()
	for _, d := range parked {
		c.readSegmentConc(d.file, d.off, d.lng, d.buf, d.cb)
	}
}

// absorbFailedConc handles a cache write whose sub-request aborted (the
// CServer crashed mid-write): the mapping references bytes that never
// landed. Re-validate it under the shard mutex — another failover or
// invalidation may already have dropped or remapped it — then re-issue the
// segment to the DServers with the data still in hand.
func (c *Concurrent) absorbFailedConc(file string, off, length, cacheOff int64, data []byte, cb func(error)) {
	sh, _ := c.shard(file)
	sh.mu.Lock()
	sh.stats.failovers.Add(1)
	hits, _ := c.dmt.Lookup(file, off, length)
	for _, h := range hits {
		if h.CacheOff != cacheOff+(h.Off-off) {
			continue // remapped since the failed write was issued
		}
		if c.dmt.Delete(file, h.Off, h.Len) == nil {
			c.space.FreeRange(h.CacheOff, h.Len)
		}
	}
	sh.stats.segWritesDisk.Add(1)
	sh.stats.bytesWriteDisk.Add(length)
	sh.mu.Unlock()
	if err := c.opfs.Write(file, off, length, sim.PriorityHigh, data, cb); err != nil {
		cb(err)
	}
}

// readFailedConc reroutes a cache-read segment that completed with an
// error, through a fresh lookup under the shard mutex: invalidated clean
// extents read around from the DServers, retained dirty extents defer to
// the restart, dirty bytes on a live server surface the original error.
// That last branch completes under the mutex, so the join counts this
// call until it unlocks and a segment it finishes reaches cb through the
// clock.
func (c *Concurrent) readFailedConc(orig error, file string, off, length int64, buf []byte, cb func(error)) {
	sh, _ := c.shard(file)
	sh.mu.Lock()
	sh.stats.failovers.Add(1)
	hits, gaps := c.dmt.Lookup(file, off, length)
	j := &segJoin{parent: cb}
	j.n.Store(int32(len(hits)+len(gaps)) + 1)
	for _, h := range hits {
		seg := slice(buf, off, h.Off, h.Len)
		switch {
		case c.cpfs.RangeDown(h.CacheOff, h.Len):
			c.deferReadConc(sh, file, h.Off, h.Len, seg, j.sub)
		case h.Dirty:
			j.sub(orig)
		default:
			sh.stats.segReadsDisk.Add(1)
			sh.stats.bytesReadDisk.Add(h.Len)
			if err := c.opfs.Read(file, h.Off, h.Len, sim.PriorityHigh, seg, j.sub); err != nil {
				j.sub(err)
			}
		}
	}
	for _, g := range gaps {
		sh.stats.segReadsDisk.Add(1)
		sh.stats.bytesReadDisk.Add(g.Len)
		if err := c.opfs.Read(file, g.Off, g.Len, sim.PriorityHigh, slice(buf, off, g.Off, g.Len), j.sub); err != nil {
			j.sub(err)
		}
	}
	sh.mu.Unlock()
	j.releaseVia(c.clock)
}

// readSegmentConc routes one file-space read segment through the DMT like
// Read's hit/gap fan-out, from restart events outside the serve path. As
// in readFailedConc, a segment finished under the mutex reaches cb through
// the clock.
func (c *Concurrent) readSegmentConc(file string, off, length int64, buf []byte, cb func(error)) {
	sh, _ := c.shard(file)
	sh.mu.Lock()
	hits, gaps := c.dmt.Lookup(file, off, length)
	j := &segJoin{parent: cb}
	j.n.Store(int32(len(hits)+len(gaps)) + 1)
	for _, h := range hits {
		seg := slice(buf, off, h.Off, h.Len)
		if c.cpfs.RangeDown(h.CacheOff, h.Len) {
			c.deferReadConc(sh, file, h.Off, h.Len, seg, j.sub)
			continue
		}
		sh.stats.segReadsCache.Add(1)
		sh.stats.bytesReadCache.Add(h.Len)
		c.space.Touch(h.CacheOff, h.Len)
		c.space.Pin(h.CacheOff, h.Len)
		h := h
		rcb := func(err error) {
			c.space.Unpin(h.CacheOff, h.Len)
			if err == nil {
				j.sub(nil)
				return
			}
			c.readFailedConc(err, file, h.Off, h.Len, seg, j.sub)
		}
		if err := c.cpfs.Read(CacheFileName, h.CacheOff, h.Len, sim.PriorityHigh, seg, rcb); err != nil {
			c.space.Unpin(h.CacheOff, h.Len)
			j.sub(err)
		}
	}
	for _, g := range gaps {
		sh.stats.segReadsDisk.Add(1)
		sh.stats.bytesReadDisk.Add(g.Len)
		if err := c.opfs.Read(file, g.Off, g.Len, sim.PriorityHigh, slice(buf, off, g.Off, g.Len), j.sub); err != nil {
			j.sub(err)
		}
	}
	sh.mu.Unlock()
	j.releaseVia(c.clock)
}
