package core

import (
	"s4dcache/internal/sim"
)

// Concurrent's fault-path re-issues. The crash/restart bookkeeping is the
// shared engine's (faulty.go); these are the request-side reroutes, which
// join through conJoin/segJoin instead of S4D's pooled virtual-time join.
// Every mapping mutation re-validates under the owning shard's mutex,
// because between a crash and its resolution another goroutine may have
// remapped, superseded or failed over the extent.

// absorbFailed handles a cache write whose sub-request aborted (the
// CServer crashed mid-write): the mapping references bytes that never
// landed. Re-validate it under the shard mutex — another failover or
// invalidation may already have dropped or remapped it — then re-issue the
// segment to the DServers with the data still in hand.
func (c *Concurrent) absorbFailed(file string, off, length, cacheOff int64, data []byte, cb func(error)) {
	sh, _ := c.shard(file)
	sh.mu.Lock()
	sh.stats.failovers.Add(1)
	hits, _ := sh.dmt.Lookup(file, off, length)
	for _, h := range hits {
		if h.CacheOff != cacheOff+(h.Off-off) {
			continue // remapped since the failed write was issued
		}
		if sh.dmt.Delete(file, h.Off, h.Len) == nil {
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

// readFailed reroutes a cache-read segment that completed with an
// error, through a fresh lookup under the shard mutex: invalidated clean
// extents read around from the DServers, retained dirty extents defer to
// the restart, dirty bytes on a live server surface the original error.
// That last branch completes under the mutex, so the join counts this
// call until it unlocks and a segment it finishes reaches cb through the
// clock.
func (c *Concurrent) readFailed(orig error, file string, off, length int64, buf []byte, cb func(error)) {
	sh, _ := c.shard(file)
	sh.mu.Lock()
	sh.stats.failovers.Add(1)
	hits, gaps := sh.dmt.Lookup(file, off, length)
	j := &segJoin{parent: cb}
	j.n.Store(int32(len(hits)+len(gaps)) + 1)
	for _, h := range hits {
		seg := slice(buf, off, h.Off, h.Len)
		switch {
		case c.cpfs.RangeDown(h.CacheOff, h.Len):
			c.deferRead(sh, file, h.Off, h.Len, seg, j.sub)
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

// readSegment routes one file-space read segment through the DMT like
// Read's hit/gap fan-out, from restart events outside the serve path. As
// in readFailed, a segment finished under the mutex reaches cb through
// the clock.
func (c *Concurrent) readSegment(file string, off, length int64, buf []byte, cb func(error)) {
	sh, _ := c.shard(file)
	sh.mu.Lock()
	hits, gaps := sh.dmt.Lookup(file, off, length)
	j := &segJoin{parent: cb}
	j.n.Store(int32(len(hits)+len(gaps)) + 1)
	for _, h := range hits {
		seg := slice(buf, off, h.Off, h.Len)
		if c.cpfs.RangeDown(h.CacheOff, h.Len) {
			c.deferRead(sh, file, h.Off, h.Len, seg, j.sub)
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
			c.readFailed(err, file, h.Off, h.Len, seg, j.sub)
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

// chargeMetaIO is free on the concurrent engine: wall-clock metadata
// costs are real, not charged.
func (c *Concurrent) chargeMetaIO() {}

// chargeMetaFaultIn is free on the concurrent engine; the engine still
// counts fault-ins for Stats.
func (c *Concurrent) chargeMetaFaultIn(int) {}
