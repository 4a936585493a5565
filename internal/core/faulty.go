package core

import (
	"s4dcache/internal/dmt"
	"s4dcache/internal/sim"
)

// This file holds the degraded-mode machinery of the Redirector: what
// happens when a CServer crashes (paper §III.D requires the mapping state
// to survive failures; Algorithm 1's routing must then keep the system
// serving through the DServers).
//
// Fail-stop model. A crashed CServer refuses new sub-requests and loses
// in-flight responses; the bytes on its SSD survive (device contents
// persist across a node crash). Consequences per extent mapped onto the
// dead server:
//
//   - clean extents: the DServers hold the same bytes — the mapping is
//     deleted and the space freed, so reads go around the crash.
//   - dirty extents, server will restart: the only up-to-date copy is on
//     the crashed SSD and comes back with it — the mapping is kept, reads
//     of it are deferred until the restart, writes supersede it (failover
//     to the DServers, mapping deleted).
//   - dirty extents, server is gone for good: the bytes are lost; the
//     mapping is deleted and the loss recorded as DirtyLost.
//
// While any CServer is down the S4D is "degraded": new critical traffic
// is not admitted to the cache (it routes to the DServers, counted as
// Failovers), and the Rebuilder pauses fetches. DegradedTime accumulates
// over the union of outage intervals.

// deferredRead is one read segment parked until a crashed CServer
// restarts. Flushing re-looks the range up (the mapping may have changed
// while parked), so the segment is stored in file space, not cache space.
type deferredRead struct {
	file string
	off  int64
	lng  int64
	buf  []byte
	cb   func(error)
}

// OnCServerState is the pfs crash/restart hook (pfs.StateFunc for the
// CPFS). It runs at the crash or restart instant, before any aborted
// completion is delivered, so the serve paths always observe
// post-transition mapping state. Safe against concurrent serve traffic;
// state transitions themselves must be serialized (one fault-injection
// driver).
func (e *engine) OnCServerState(server int, down, restarts bool) {
	e.faulty.Store(true)
	if down {
		e.downMu.Lock()
		if len(e.downC) == 0 {
			e.degradedSince = e.clock.Now()
		}
		e.downC[server] = true
		e.downCount.Store(int32(len(e.downC)))
		e.downMu.Unlock()
		e.invalidateServer(server, restarts)
		return
	}
	e.downMu.Lock()
	delete(e.downC, server)
	e.downCount.Store(int32(len(e.downC)))
	if len(e.downC) == 0 {
		e.degradedTime += e.clock.Now() - e.degradedSince
	}
	e.downMu.Unlock()
	e.flushDeferredReads()
}

// degradedNow reports whether any CServer is down (lock-free).
func (e *engine) degradedNow() bool { return e.downCount.Load() > 0 }

// invalidateServer resolves every mapping touching the crashed server per
// the fail-stop policy above: clean extents and unrecoverable dirty
// extents are unmapped; dirty extents that will come back with the server
// are kept (reads defer, writes supersede). The table snapshot is taken
// one shard at a time, so each extent is re-validated under its shard
// mutex before mutation — an extent that moved or changed dirty state
// since the snapshot belongs to whichever path moved it.
func (e *engine) invalidateServer(server int, restarts bool) {
	resolve := func(snap []dmt.Hit, dirty bool) {
		for _, h := range snap {
			if !e.extentOnServer(h.CacheOff, h.Len, server) {
				continue
			}
			if dirty && restarts {
				// The dirty bytes come back with the server; keep the
				// mapping and let reads defer / writes fail over.
				continue
			}
			sh, _ := e.shard(h.File)
			sh.mu.Lock()
			hits, _ := sh.dmt.Lookup(h.File, h.Off, h.Len)
			for _, hh := range hits {
				if hh.Dirty != dirty {
					continue
				}
				if hh.CacheOff != h.CacheOff+(hh.Off-h.Off) {
					continue // remapped since the snapshot
				}
				if sh.dmt.Delete(h.File, hh.Off, hh.Len) != nil {
					continue
				}
				e.space.FreeRange(hh.CacheOff, hh.Len)
				e.drv.chargeMetaIO()
				if dirty {
					sh.stats.dirtyLost.Add(hh.Len)
				}
			}
			sh.mu.Unlock()
		}
	}
	resolve(DMTView{e}.CleanExtents(0), false)
	resolve(DMTView{e}.DirtyExtents(0), true)
}

// extentOnServer reports whether the cache-file extent touches the given
// CServer under the CPFS striping (pure layout math, no locks).
func (e *engine) extentOnServer(cacheOff, length int64, server int) bool {
	if length <= 0 {
		return false
	}
	l := e.cpfs.Layout()
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

// deferRead parks a read segment until the crashed server holding its
// (dirty) cache bytes restarts. Only reached for mappings retained by
// invalidateServer, i.e. dirty extents with a scheduled restart — so every
// parked read is eventually flushed. Called under sh.mu in Concurrent;
// deferMu is a leaf below it.
func (e *engine) deferRead(sh *cshard, file string, off, length int64, buf []byte, cb func(error)) {
	sh.stats.deferredReads.Add(1)
	e.deferMu.Lock()
	e.deferred = append(e.deferred, deferredRead{file: file, off: off, lng: length, buf: buf, cb: cb})
	e.deferMu.Unlock()
}

// flushDeferredReads re-issues every parked read after a restart. Each is
// re-looked-up from scratch: the mapping may have been superseded by a
// write (failover) or still hit the cache — and may even defer again if a
// different CServer is down. The list is swapped out under deferMu and
// replayed without it, so re-parking cannot deadlock.
func (e *engine) flushDeferredReads() {
	e.deferMu.Lock()
	parked := e.deferred
	e.deferred = nil
	e.deferMu.Unlock()
	for _, d := range parked {
		e.drv.readSegment(d.file, d.off, d.lng, d.buf, d.cb)
	}
}

// absorbFailed runs when a cache write aborts — the server crashed while
// the write was in flight, or a transient error outlived the retry
// budget. The fresh mapping references bytes that never landed on the
// SSD, so it must go: drop it, free the space, and re-issue the segment
// to the DServers with the data still in hand. The client never sees the
// failure.
func (s *S4D) absorbFailed(file string, off, length, cacheOff int64, data []byte, cb func(error)) {
	sh := s.sh
	sh.stats.failovers.Add(1)
	if sh.dmt.Delete(file, off, length) == nil {
		s.space.FreeRange(cacheOff, length)
		s.chargeMetaIO()
	}
	sh.stats.segWritesDisk.Add(1)
	sh.stats.bytesWriteDisk.Add(length)
	if err := s.opfs.Write(file, off, length, sim.PriorityHigh, data, cb); err != nil {
		cb(err)
	}
}

// readFailed reroutes a cache-read segment that completed with an error.
// The crash hook runs before aborted completions are delivered, so a
// fresh lookup reflects the post-crash policy: invalidated clean extents
// read around from the DServers, retained dirty extents defer to the
// restart. A transient error on a live server falls back to the DServers
// for clean bytes; for dirty bytes the cache holds the only up-to-date
// copy, so the original error surfaces.
func (s *S4D) readFailed(orig error, file string, off, length int64, buf []byte, cb func(error)) {
	sh := s.sh
	sh.stats.failovers.Add(1)
	hits, gaps := sh.dmt.Lookup(file, off, length)
	join := s.getJoin(len(hits)+len(gaps), cb)
	for _, h := range hits {
		seg := slice(buf, off, h.Off, h.Len)
		switch {
		case s.cpfs.RangeDown(h.CacheOff, h.Len):
			s.deferRead(sh, file, h.Off, h.Len, seg, join.doneFn)
		case h.Dirty:
			join.doneFn(orig)
		default:
			sh.stats.segReadsDisk.Add(1)
			sh.stats.bytesReadDisk.Add(h.Len)
			if err := s.opfs.Read(file, h.Off, h.Len, sim.PriorityHigh, seg, join.doneFn); err != nil {
				join.doneFn(err)
			}
		}
	}
	for _, g := range gaps {
		sh.stats.segReadsDisk.Add(1)
		sh.stats.bytesReadDisk.Add(g.Len)
		if err := s.opfs.Read(file, g.Off, g.Len, sim.PriorityHigh, slice(buf, off, g.Off, g.Len), join.doneFn); err != nil {
			join.doneFn(err)
		}
	}
}

// readSegment routes one file-space read segment through the DMT, exactly
// like the hit/gap fan-out of Read but with a private lookup (it runs from
// restart events, outside the serve path, so the shared lookup buffers may
// be in use conceptually; allocation here is fine — it is a fault path).
func (s *S4D) readSegment(file string, off, length int64, buf []byte, cb func(error)) {
	sh := s.sh
	hits, gaps := sh.dmt.Lookup(file, off, length)
	join := s.getJoin(len(hits)+len(gaps), cb)
	for _, h := range hits {
		if s.cpfs.RangeDown(h.CacheOff, h.Len) {
			s.deferRead(sh, file, h.Off, h.Len, slice(buf, off, h.Off, h.Len), join.doneFn)
			continue
		}
		sh.stats.segReadsCache.Add(1)
		sh.stats.bytesReadCache.Add(h.Len)
		s.space.Touch(h.CacheOff, h.Len)
		h := h
		seg := slice(buf, off, h.Off, h.Len)
		cb := func(err error) {
			if err == nil {
				join.doneFn(nil)
				return
			}
			s.readFailed(err, file, h.Off, h.Len, seg, join.doneFn)
		}
		if err := s.cpfs.Read(CacheFileName, h.CacheOff, h.Len, sim.PriorityHigh, seg, cb); err != nil {
			cb(err)
		}
	}
	for _, g := range gaps {
		sh.stats.segReadsDisk.Add(1)
		sh.stats.bytesReadDisk.Add(g.Len)
		if err := s.opfs.Read(file, g.Off, g.Len, sim.PriorityHigh, slice(buf, off, g.Off, g.Len), join.doneFn); err != nil {
			join.doneFn(err)
		}
	}
}
