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
	s.rebuildCycles.Add(1)

	flushes := s.sh.dmt.DirtyExtents(s.rebuildBatch)
	fetches := s.sh.cdt.PendingFetches(s.rebuildBatch)
	if (s.faulty.Load() && s.degradedNow()) || s.recovering.Load() {
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

// flushExtent writes one dirty cache extent back to the DServers: read
// from CPFS, write to OPFS, then mark clean — unless the file was written
// again while the flush was in flight (epoch check), in which case the
// extent stays dirty and is retried next cycle.
func (s *S4D) flushExtent(file string, off, length, cacheOff int64, join *sim.Join) {
	if s.faulty.Load() && s.cpfs.RangeDown(cacheOff, length) {
		// The extent's stripes touch a crashed CServer; it stays dirty and
		// retries after the restart.
		s.flushRetries.Add(1)
		join.Done()
		return
	}
	sh := s.sh
	fid := s.arena.Intern(file)
	epoch := sh.fileEpoch[fid]
	buf := s.flushBuf(length)
	if err := s.cpfs.Read(CacheFileName, cacheOff, length, sim.PriorityLow, buf, func(rerr error) {
		if rerr != nil {
			// Cache read failed (I/O error or a crash during the read); the
			// extent stays dirty and retries next cycle.
			s.flushRetries.Add(1)
			join.Done()
			return
		}
		if err := s.opfs.Write(file, off, length, sim.PriorityLow, buf, func(werr error) {
			if werr == nil && sh.fileEpoch[fid] == epoch {
				if err := sh.dmt.SetClean(file, off, length); err == nil {
					s.space.MarkClean(cacheOff, length)
					s.flushes.Add(1)
					s.bytesFlushed.Add(length)
					s.chargeMetaIO()
				}
			} else {
				s.flushRetries.Add(1)
			}
			join.Done()
		}); err != nil {
			join.Done()
		}
	}); err != nil {
		join.Done()
	}
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
	sh := s.sh
	_, gaps := sh.dmt.Lookup(file, off, length)
	if len(gaps) == 0 {
		// Fully mapped since the flag was set; nothing to fetch.
		sh.cdt.ClearCFlag(file, off, length)
		join.Done()
		return
	}
	s.inFlightFetch[key] = true
	sub := sim.NewJoin(len(gaps), func() {
		delete(s.inFlightFetch, key)
		// Clear the flag only if everything is now mapped; failed gaps
		// (no space / epoch conflicts) retry next cycle.
		if sh.dmt.Contains(file, off, length) {
			sh.cdt.ClearCFlag(file, off, length)
		}
		join.Done()
	})
	for _, g := range gaps {
		s.fetchGap(file, g.Off, g.Len, sub)
	}
}

// fetchGap moves one unmapped gap from the DServers into the cache.
// Eviction victims are unmapped by the space's eviction hook.
func (s *S4D) fetchGap(file string, off, length int64, join *sim.Join) {
	frags, err := s.space.Allocate(nil, 0, length, cachespace.Owner{File: file, FileOff: off}, true)
	if err != nil {
		// No reclaimable space; retry after future flushes free space.
		s.fetchFailures.Add(1)
		join.Done()
		return
	}
	sh := s.sh
	fid := s.arena.Intern(file)
	epoch := sh.fileEpoch[fid]
	buf := s.flushBuf(length)
	abort := func() {
		for _, fr := range frags {
			s.space.FreeRange(fr.CacheOff, fr.Len)
		}
		join.Done()
	}
	if err := s.opfs.Read(file, off, length, sim.PriorityLow, buf, func(rerr error) {
		if rerr != nil || sh.fileEpoch[fid] != epoch {
			// The read failed, or the file was written during the fetch (so
			// the disk bytes may be stale relative to new cache mappings).
			// Drop this fetch; the C_flag retries it next cycle.
			s.fetchRetries.Add(1)
			abort()
			return
		}
		sub := sim.NewJoin(len(frags), func() {
			s.fetches.Add(1)
			s.bytesFetched.Add(length)
			join.Done()
		})
		pos := off
		for _, fr := range frags {
			fr := fr
			segPos := pos
			if err := s.cpfs.Write(CacheFileName, fr.CacheOff, fr.Len, sim.PriorityLow, slice(buf, off, segPos, fr.Len), func(werr error) {
				// Map clean and unpin only once the data is in place, and
				// only if the population write landed and no write raced it.
				if werr == nil && sh.fileEpoch[fid] == epoch {
					if err := sh.dmt.Insert(file, segPos, fr.Len, fr.CacheOff, false); err == nil {
						s.space.MarkClean(fr.CacheOff, fr.Len)
						s.chargeMetaIO()
					}
				} else {
					s.fetchRetries.Add(1)
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
