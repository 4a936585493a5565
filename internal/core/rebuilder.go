package core

import (
	"strconv"

	"s4dcache/internal/cachespace"
	"s4dcache/internal/sim"
)

// RebuildNow runs one Rebuilder cycle (paper §III.F): write up to
// RebuildBatch dirty cache extents back to the DServers, and fetch up to
// RebuildBatch C_flag-marked critical ranges into the CServers. All
// reorganization I/O runs at low priority. done (optional) runs when the
// cycle's data movement completes. If a cycle is already in flight, no new
// work starts and done runs when that cycle finishes — this keeps
// DrainRebuild from spinning at a fixed virtual time while the periodic
// ticker's cycle is outstanding.
func (s *S4D) RebuildNow(done func()) {
	if s.rebuildBusy {
		if done != nil {
			s.rebuildWaiters = append(s.rebuildWaiters, done)
		}
		return
	}
	s.rebuildBusy = true
	s.stats.RebuildCycles++

	flushes := s.dmt.DirtyExtents(s.rebuildBatch)
	fetches := s.cdt.PendingFetches(s.rebuildBatch)
	if (s.faulty && s.degraded()) || s.recovering {
		// While a CServer is down — or recovery still owns unadmitted
		// cache ranges — the Rebuilder does not populate the cache;
		// pending fetches retry once the outage/warm-up ends. Flushing
		// recovered dirty extents stays allowed: it only drains data.
		fetches = nil
	}

	join := sim.NewJoin(len(flushes)+len(fetches), func() {
		s.rebuildBusy = false
		s.pruneEpochs()
		waiters := s.rebuildWaiters
		s.rebuildWaiters = nil
		for _, w := range waiters {
			s.complete(w)
		}
		s.complete(done)
	})

	for _, h := range flushes {
		s.flushExtent(h.File, h.Off, h.Len, h.CacheOff, join)
	}
	for _, f := range fetches {
		s.fetchExtent(f.File, f.Off, f.Len, join)
	}
}

// RebuildPending reports whether dirty data or pending fetches remain. It
// reads the tables' incremental byte counters — O(1) and allocation-free
// (pinned by TestRebuildPendingZeroAllocs) — because the periodic ticker
// polls it every cycle; the old DirtyExtents(1)/PendingFetches(1) probe
// built slices just to check emptiness.
func (s *S4D) RebuildPending() bool {
	return s.dmt.HasDirty() || s.cdt.HasPending()
}

// DrainRebuild runs Rebuilder cycles until no dirty data or pending
// fetches remain, then calls done. Used between benchmark phases (e.g.
// before the "second run" read measurements) and at shutdown. If a cycle
// completes without moving any data (e.g. every pending fetch fails for
// lack of reclaimable space), the drain stops rather than spinning; the
// leftover work retries on later cycles.
func (s *S4D) DrainRebuild(done func()) {
	if !s.RebuildPending() {
		s.complete(done)
		return
	}
	before := s.stats.Flushes + s.stats.Fetches
	s.RebuildNow(func() {
		progressed := s.stats.Flushes+s.stats.Fetches > before
		if s.RebuildPending() && progressed {
			s.DrainRebuild(done)
			return
		}
		s.complete(done)
	})
}

// flushExtent writes one dirty cache extent back to the DServers: read
// from CPFS, write to OPFS, then mark clean — unless the file was written
// again while the flush was in flight (epoch check), in which case the
// extent stays dirty and is retried next cycle.
func (s *S4D) flushExtent(file string, off, length, cacheOff int64, join *sim.Join) {
	if s.faulty && s.cacheRangeDown(cacheOff, length) {
		// The extent's stripes touch a crashed CServer; it stays dirty and
		// retries after the restart.
		s.stats.FlushRetries++
		join.Done()
		return
	}
	fid := s.arena.Intern(file)
	epoch := s.fileEpoch[fid]
	buf := s.flushBuffer(length)
	if err := s.cpfs.Read(CacheFileName, cacheOff, length, sim.PriorityLow, buf, func(rerr error) {
		if rerr != nil {
			// Cache read failed (I/O error or a crash during the read); the
			// extent stays dirty and retries next cycle.
			s.stats.FlushRetries++
			join.Done()
			return
		}
		if err := s.opfs.Write(file, off, length, sim.PriorityLow, buf, func(werr error) {
			if werr == nil && s.fileEpoch[fid] == epoch {
				if err := s.dmt.SetClean(file, off, length); err == nil {
					s.space.MarkClean(cacheOff, length)
					s.stats.Flushes++
					s.stats.BytesFlushed += length
					s.chargeMetaIO()
				}
			} else {
				s.stats.FlushRetries++
			}
			join.Done()
		}); err != nil {
			join.Done()
		}
	}); err != nil {
		join.Done()
	}
}

// flushBuffer returns a payload buffer when the OPFS or CPFS stores real
// bytes (functional mode), nil otherwise: pfs accepts nil payloads, and a
// buffer would only be gathered and scattered for nothing.
func (s *S4D) flushBuffer(length int64) []byte {
	if !s.opfs.StoresPayload() && !s.cpfs.StoresPayload() {
		return nil
	}
	return payloadBuf(length)
}

// payloadBuf returns a length-byte Rebuilder payload buffer, or nil past
// 16 MiB: metadata-only runs use multi-GB extents rarely, functional tests
// use small ones, and a buffer that large would only waste memory.
func payloadBuf(length int64) []byte {
	const maxBuf = 16 << 20
	if length <= 0 || length > maxBuf {
		return nil
	}
	return make([]byte, length)
}

// fetchExtent reads one C_flag-marked range from the DServers into the
// CServers (lazy read caching). Only the still-unmapped gaps of the range
// are fetched: mapped parts may hold dirty data newer than the DServers,
// and must never be overwritten from disk. Each gap is allocated (pinned
// dirty during flight), read from the OPFS, written to the CPFS, mapped
// clean, and finally the C_flag is cleared.
func (s *S4D) fetchExtent(file string, off, length int64, join *sim.Join) {
	key := fetchKey(file, off, length)
	if s.inFlightFetch[key] {
		join.Done()
		return
	}
	_, gaps := s.dmt.Lookup(file, off, length)
	if len(gaps) == 0 {
		// Fully mapped since the flag was set; nothing to fetch.
		s.cdt.ClearCFlag(file, off, length)
		join.Done()
		return
	}
	s.inFlightFetch[key] = true
	sub := sim.NewJoin(len(gaps), func() {
		delete(s.inFlightFetch, key)
		// Clear the flag only if everything is now mapped; failed gaps
		// (no space / epoch conflicts) retry next cycle.
		if s.dmt.Contains(file, off, length) {
			s.cdt.ClearCFlag(file, off, length)
		}
		join.Done()
	})
	for _, g := range gaps {
		s.fetchGap(file, g.Off, g.Len, sub)
	}
}

// fetchGap moves one unmapped gap from the DServers into the cache.
func (s *S4D) fetchGap(file string, off, length int64, join *sim.Join) {
	frags, evicted, err := s.space.Allocate(length, cachespace.Owner{File: file, FileOff: off}, true)
	// Drop evicted mappings before inspecting err: an allocation stalled
	// on pinned space still evicts (nil evicted sequentially, where pins
	// never exist).
	for _, ev := range evicted {
		if err := s.dmt.Delete(ev.Owner.File, ev.Owner.FileOff, ev.Len); err != nil {
			join.Done()
			return
		}
		s.chargeMetaIO()
	}
	if err != nil {
		// No reclaimable space; retry after future flushes free space.
		s.stats.FetchFailures++
		join.Done()
		return
	}
	fid := s.arena.Intern(file)
	epoch := s.fileEpoch[fid]
	buf := s.flushBuffer(length)
	abort := func() {
		for _, fr := range frags {
			s.space.FreeRange(fr.CacheOff, fr.Len)
		}
		join.Done()
	}
	if err := s.opfs.Read(file, off, length, sim.PriorityLow, buf, func(rerr error) {
		if rerr != nil || s.fileEpoch[fid] != epoch {
			// The read failed, or the file was written during the fetch (so
			// the disk bytes may be stale relative to new cache mappings).
			// Drop this fetch; the C_flag retries it next cycle.
			s.stats.FetchRetries++
			abort()
			return
		}
		sub := sim.NewJoin(len(frags), func() {
			s.stats.Fetches++
			s.stats.BytesFetched += length
			join.Done()
		})
		pos := off
		for _, fr := range frags {
			fr := fr
			segPos := pos
			if err := s.cpfs.Write(CacheFileName, fr.CacheOff, fr.Len, sim.PriorityLow, slice(buf, off, segPos, fr.Len), func(werr error) {
				// Map clean and unpin only once the data is in place, and
				// only if the population write landed and no write raced it.
				if werr == nil && s.fileEpoch[fid] == epoch {
					if err := s.dmt.Insert(file, segPos, fr.Len, fr.CacheOff, false); err == nil {
						s.space.MarkClean(fr.CacheOff, fr.Len)
						s.chargeMetaIO()
					}
				} else {
					s.stats.FetchRetries++
					s.space.FreeRange(fr.CacheOff, fr.Len)
				}
				sub.Done()
			}); err != nil {
				sub.Done()
			}
			pos += fr.Len
		}
	}); err != nil {
		abort()
	}
}

func fetchKey(file string, off, length int64) string {
	return file + "\x00" + strconv.FormatInt(off, 10) + "\x00" + strconv.FormatInt(length, 10)
}
