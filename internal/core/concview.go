package core

import (
	"s4dcache/internal/cdt"
	"s4dcache/internal/dmt"
)

// The engine's tables taken together: each shard owns the DMT and CDT of
// its files, under its mutex (S4D's one shard holds them all).
// Cross-shard questions visit the shards one at a time, each under its
// own mutex, so an answer is consistent per shard, not one instant across
// the engine. Per-file questions lock only the file's shard.

// eachShard calls fn on every shard in index order, each under its
// mutex, until fn returns false.
func (e *engine) eachShard(fn func(i int, sh *cshard) bool) {
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		more := fn(i, sh)
		sh.mu.Unlock()
		if !more {
			return
		}
	}
}

// anyShard reports whether fn holds for some shard, stopping at the
// first that does.
func anyShard(e *engine, fn func(sh *cshard) bool) bool {
	found := false
	e.eachShard(func(_ int, sh *cshard) bool {
		found = fn(sh)
		return !found
	})
	return found
}

// sumShards adds fn's answer over every shard.
func sumShards[N int | int64](e *engine, fn func(sh *cshard) N) N {
	var n N
	e.eachShard(func(_ int, sh *cshard) bool {
		n += fn(sh)
		return true
	})
	return n
}

// scanShards concatenates fn's answers in shard order, asking each shard
// for at most the max still wanted (all if max <= 0).
func scanShards[E any](e *engine, max int, fn func(sh *cshard, max int) []E) []E {
	var out []E
	e.eachShard(func(_ int, sh *cshard) bool {
		rem := 0
		if max > 0 {
			rem = max - len(out)
		}
		out = append(out, fn(sh, rem)...)
		return max <= 0 || len(out) < max
	})
	return out
}

// DMTView is a read-only view of the engine's Data Mapping Table: every
// shard's table, visited one shard at a time.
type DMTView struct{ e *engine }

// DMT returns a read-only view of the engine's mapping tables.
func (c *Concurrent) DMT() DMTView { return DMTView{&c.engine} }

// DirtyExtents returns up to max dirty mapped ranges (all if max <= 0),
// in shard order, then each shard's first-mapped order.
func (v DMTView) DirtyExtents(max int) []dmt.Hit {
	return scanShards(v.e, max, func(sh *cshard, max int) []dmt.Hit { return sh.dmt.DirtyExtents(max) })
}

// CleanExtents returns up to max clean mapped ranges (all if max <= 0),
// in the same order.
func (v DMTView) CleanExtents(max int) []dmt.Hit {
	return scanShards(v.e, max, func(sh *cshard, max int) []dmt.Hit { return sh.dmt.CleanExtents(max) })
}

// HasDirty reports whether any shard holds a dirty mapping — the
// Rebuilder's poll predicate.
func (v DMTView) HasDirty() bool {
	return anyShard(v.e, func(sh *cshard) bool { return sh.dmt.HasDirty() })
}

// Entries returns the total mapped extent count.
func (v DMTView) Entries() int {
	return sumShards(v.e, func(sh *cshard) int { return sh.dmt.Entries() })
}

// TakeChanged is dmt.Table.TakeChanged across shards; ord ranks the
// shard first. fn must not call back into the engine.
func (v DMTView) TakeChanged(all bool, fn func(file string, ord uint64)) {
	v.e.eachShard(func(i int, sh *cshard) bool {
		sh.dmt.TakeChanged(all, func(file string, ord uint64) { fn(file, uint64(i)<<32|ord) })
		return true
	})
}

// AppendFile appends every mapped extent of file to dst, as
// dmt.Table.AppendFile.
func (v DMTView) AppendFile(dst []dmt.Hit, file string) []dmt.Hit {
	sh, _ := v.e.shard(file)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.dmt.AppendFile(dst, file)
}

// CDTView is a read-only view of the engine's Critical Data Table: every
// shard's table, visited one shard at a time.
type CDTView struct{ e *engine }

// CDT returns a read-only view of the engine's critical data tables.
func (c *Concurrent) CDT() CDTView { return CDTView{&c.engine} }

// PendingFetches returns up to max C_flag-marked ranges (all if max <=
// 0), in shard order, then each shard's first-added order.
func (v CDTView) PendingFetches(max int) []cdt.Fetch {
	return scanShards(v.e, max, func(sh *cshard, max int) []cdt.Fetch { return sh.cdt.PendingFetches(max) })
}

// HasPending reports whether any shard has a lazy fetch pending — the
// Rebuilder's poll predicate.
func (v CDTView) HasPending() bool {
	return anyShard(v.e, func(sh *cshard) bool { return sh.cdt.HasPending() })
}

// Extents dumps every tracked range, in shard order, then each shard's
// deterministic order.
func (v CDTView) Extents() []cdt.Extent {
	return scanShards(v.e, 0, func(sh *cshard, _ int) []cdt.Extent { return sh.cdt.Extents() })
}

// Entries returns the total extent count.
func (v CDTView) Entries() int {
	return sumShards(v.e, func(sh *cshard) int { return sh.cdt.Entries() })
}

// Bytes returns the total tracked critical bytes.
func (v CDTView) Bytes() int64 {
	return sumShards(v.e, func(sh *cshard) int64 { return sh.cdt.Bytes() })
}

// PendingBytes returns the C_flag-marked bytes.
func (v CDTView) PendingBytes() int64 {
	return sumShards(v.e, func(sh *cshard) int64 { return sh.cdt.PendingBytes() })
}

// TakeChanged is cdt.Table.TakeChanged across shards; ord ranks the
// shard first, as Extents does. fn must not call back into the engine.
func (v CDTView) TakeChanged(all bool, fn func(file string, ord uint64)) {
	v.e.eachShard(func(i int, sh *cshard) bool {
		sh.cdt.TakeChanged(all, func(file string, ord uint64) { fn(file, uint64(i)<<32|ord) })
		return true
	})
}

// AppendFile appends file's tracked ranges to dst in ascending offset
// order.
func (v CDTView) AppendFile(dst []cdt.Extent, file string) []cdt.Extent {
	sh, _ := v.e.shard(file)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.cdt.AppendFile(dst, file)
}
