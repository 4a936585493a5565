package dmt

import (
	"fmt"
	"sync"
	"sync/atomic"

	"s4dcache/internal/extent"
	"s4dcache/internal/kvstore"
	"s4dcache/internal/names"
	"s4dcache/internal/staterec"
)

// numStripes is the lock-stripe count of the concurrent table. A power of
// two so routing is a mask; 16 matches the kvstore shard count, so stripe
// concurrency is never throttled below store concurrency.
const numStripes = 16

// stripeIndex routes a file name to its stripe (FNV-1a, masked).
func stripeIndex(file string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(file); i++ {
		h ^= uint32(file[i])
		h *= 16777619
	}
	return h & (numStripes - 1)
}

// Striped is a lock-striped concurrent Data Mapping Table: numStripes
// independent sub-tables, each guarding the files that hash to it with its
// own mutex. Per-file operations touch exactly one stripe, so concurrent
// mutations of distinct files proceed in parallel, and their durable
// appends coalesce in the store's group committer. All sub-tables share
// one persist-log sequence (an atomic counter injected via Table.nextSeq),
// so log keys stay globally unique and replay order is well defined. They
// also share one name arena, and a MetaBudget divides evenly across
// stripes — each stripe's clock spills independently under its own lock.
// Every read and write of a stripe holds its mutex, so no caller observes
// a half-applied batch or a half-spilled file.
//
// The simulator core keeps the plain Table — its cross-file scan order
// (first-mapped) drives the deterministic Rebuilder schedule. Striped is
// the concurrent server-side API layered on the same persistent format: a
// store written by either table opens in the other.
type Striped struct {
	stripes [numStripes]dstripe
	seq     atomic.Uint64
	store   *kvstore.Store
	arena   *names.Arena
}

// dstripe is one lock stripe: a sub-table behind its mutex. The trailing
// padding keeps neighbouring stripes' mutexes on separate cache lines —
// adjacent array elements would otherwise false-share under multicore
// serve load.
type dstripe struct {
	mu sync.Mutex
	t  *Table
	_  [64]byte
}

// NewStriped returns a memory-only concurrent table.
func NewStriped(opts ...Option) *Striped {
	var c config
	for _, o := range opts {
		o(&c)
	}
	if c.arena == nil {
		c.arena = names.NewArena()
	}
	s := &Striped{arena: c.arena}
	// The budget divides evenly; each stripe enforces its share under its
	// own lock, so no cross-stripe coordination rides the serve path.
	sc := c
	if c.budget > 0 {
		sc.budget = (c.budget + numStripes - 1) / numStripes
	}
	for i := range s.stripes {
		t := newTable(sc)
		t.nextSeq = s.nextSeq
		t.lastSeq = s.seq.Load
		s.stripes[i].t = t
	}
	return s
}

// Arena returns the shared name-interning arena.
func (s *Striped) Arena() *names.Arena { return s.arena }

// OpenStriped returns a concurrent table persisted in store, replaying
// any existing baseline records and operation log (written by either a
// plain Table or a Striped one) with each file routed to its stripe.
// Clean baselines install spilled and fault in on first touch, so a
// million-file store reopens without decoding — or holding — extents for
// files nothing looks at.
func OpenStriped(store *kvstore.Store, opts ...Option) (*Striped, error) {
	if store == nil {
		return nil, fmt.Errorf("dmt: store is required")
	}
	s := NewStriped(opts...)
	s.store = store
	for i := range s.stripes {
		s.stripes[i].t.store = store
	}
	max, _, err := walkState(store,
		func(name string, h staterec.FileMapHeader, total, dirty int64, data []byte) {
			s.stripes[stripeIndex(name)].t.installBaseline(name, h, total, dirty, data)
		},
		func(op logOp) {
			s.stripes[stripeIndex(op.file)].t.apply(op)
		},
	)
	if err != nil {
		return nil, err
	}
	s.seq.Store(max)
	// Replay applied ops directly into the sub-tables; run each stripe's
	// budget sweep before any caller can exist.
	for i := range s.stripes {
		s.stripes[i].t.enforceBudget(-1)
	}
	return s, nil
}

func (s *Striped) nextSeq() uint64 { return s.seq.Add(1) }

// SetMetaBudget adjusts the resident budget live, dividing it across
// stripes and sweeping each immediately.
func (s *Striped) SetMetaBudget(n int64) {
	per := n
	if n > 0 {
		per = (n + numStripes - 1) / numStripes
	}
	for i := range s.stripes {
		sh := &s.stripes[i]
		sh.mu.Lock()
		sh.t.SetMetaBudget(per)
		sh.mu.Unlock()
	}
}

// stripe locks and returns the sub-table owning file. The caller must
// unlock the returned mutex.
func (s *Striped) stripe(file string) (*Table, *sync.Mutex) {
	sh := &s.stripes[stripeIndex(file)]
	sh.mu.Lock()
	return sh.t, &sh.mu
}

// Insert maps [off, off+length) of file to cacheOff, as Table.Insert.
func (s *Striped) Insert(file string, off, length, cacheOff int64, dirty bool) error {
	t, mu := s.stripe(file)
	defer mu.Unlock()
	return t.Insert(file, off, length, cacheOff, dirty)
}

// InsertBatch maps several fragments of one file atomically, as
// Table.InsertBatch: the fragments commit as one store batch, which the
// group committer may coalesce with concurrent stripes' commits into a
// single WAL sync. The stripe mutex covers every fragment, so no lookup
// observes a torn batch.
func (s *Striped) InsertBatch(file string, frags []FragmentInsert) error {
	t, mu := s.stripe(file)
	defer mu.Unlock()
	return t.InsertBatch(file, frags)
}

// Delete removes mappings covering [off, off+length).
func (s *Striped) Delete(file string, off, length int64) error {
	t, mu := s.stripe(file)
	defer mu.Unlock()
	return t.Delete(file, off, length)
}

// SetClean clears the D_flag across [off, off+length), atomically even
// when the range spans several mapped fragments.
func (s *Striped) SetClean(file string, off, length int64) error {
	t, mu := s.stripe(file)
	defer mu.Unlock()
	return t.SetClean(file, off, length)
}

// SetDirty sets the D_flag across [off, off+length), as SetClean.
func (s *Striped) SetDirty(file string, off, length int64) error {
	t, mu := s.stripe(file)
	defer mu.Unlock()
	return t.SetDirty(file, off, length)
}

// Lookup splits [off, off+length) of file into mapped subranges and gaps.
// A lookup of a spilled file faults it back in.
func (s *Striped) Lookup(file string, off, length int64) ([]Hit, []extent.Gap) {
	return s.AppendLookup(nil, nil, file, off, length)
}

// AppendLookup is Lookup appending into caller-supplied buffers. The
// buffers belong to the caller; only the stripe's internal scratch is
// shared, and it is protected by the stripe lock.
func (s *Striped) AppendLookup(hits []Hit, gaps []extent.Gap, file string, off, length int64) ([]Hit, []extent.Gap) {
	t, mu := s.stripe(file)
	defer mu.Unlock()
	return t.AppendLookup(hits, gaps, file, off, length)
}

// Contains reports whether the full range is mapped.
func (s *Striped) Contains(file string, off, length int64) bool {
	t, mu := s.stripe(file)
	defer mu.Unlock()
	return t.Contains(file, off, length)
}

// FileMapped reports whether any range of file is currently mapped.
func (s *Striped) FileMapped(file string) bool {
	t, mu := s.stripe(file)
	defer mu.Unlock()
	return t.FileMapped(file)
}

// DirtyExtents returns up to max dirty mapped ranges (all if max <= 0),
// in stripe order then each stripe's first-mapped order.
func (s *Striped) DirtyExtents(max int) []Hit {
	var out []Hit
	for i := range s.stripes {
		sh := &s.stripes[i]
		sh.mu.Lock()
		rem := 0
		if max > 0 {
			rem = max - len(out)
		}
		out = append(out, sh.t.DirtyExtents(rem)...)
		sh.mu.Unlock()
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

// CleanExtents returns up to max clean mapped ranges (all if max <= 0).
// Spilled files fault in for the scan; each stripe resweeps its budget
// afterwards.
func (s *Striped) CleanExtents(max int) []Hit {
	var out []Hit
	for i := range s.stripes {
		sh := &s.stripes[i]
		sh.mu.Lock()
		rem := 0
		if max > 0 {
			rem = max - len(out)
		}
		out = append(out, sh.t.CleanExtents(rem)...)
		sh.mu.Unlock()
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

// Entries returns the total mapped extent count.
func (s *Striped) Entries() int {
	n := 0
	for i := range s.stripes {
		sh := &s.stripes[i]
		sh.mu.Lock()
		n += sh.t.Entries()
		sh.mu.Unlock()
	}
	return n
}

// Bytes returns the total mapped byte count.
func (s *Striped) Bytes() int64 {
	var n int64
	for i := range s.stripes {
		sh := &s.stripes[i]
		sh.mu.Lock()
		n += sh.t.Bytes()
		sh.mu.Unlock()
	}
	return n
}

// DirtyBytes returns the dirty mapped bytes across stripes.
func (s *Striped) DirtyBytes() int64 {
	var n int64
	for i := range s.stripes {
		sh := &s.stripes[i]
		sh.mu.Lock()
		n += sh.t.DirtyBytes()
		sh.mu.Unlock()
	}
	return n
}

// HasDirty reports whether any stripe holds a dirty mapping. Each stripe
// answers in O(1) from its incremental counter, and the scan stops at the
// first dirty stripe — the concurrent Rebuilder's poll predicate.
func (s *Striped) HasDirty() bool {
	for i := range s.stripes {
		sh := &s.stripes[i]
		sh.mu.Lock()
		dirty := sh.t.HasDirty()
		sh.mu.Unlock()
		if dirty {
			return true
		}
	}
	return false
}

// MetadataBytes estimates the persistent table size at EntryBytes per
// entry.
func (s *Striped) MetadataBytes() int64 { return int64(s.Entries()) * EntryBytes }

// ResidentBytes returns the packed extent bytes resident across stripes.
func (s *Striped) ResidentBytes() int64 {
	var n int64
	for i := range s.stripes {
		sh := &s.stripes[i]
		sh.mu.Lock()
		n += sh.t.ResidentBytes()
		sh.mu.Unlock()
	}
	return n
}

// MemoryBytes returns the measured footprint across stripes (excluding
// the shared arena; see Table.MemoryBytes).
func (s *Striped) MemoryBytes() int64 {
	var n int64
	for i := range s.stripes {
		sh := &s.stripes[i]
		sh.mu.Lock()
		n += sh.t.MemoryBytes()
		sh.mu.Unlock()
	}
	return n
}

// Stats returns aggregated activity counters across stripes.
func (s *Striped) Stats() Stats {
	var out Stats
	for i := range s.stripes {
		sh := &s.stripes[i]
		sh.mu.Lock()
		st := sh.t.Stats()
		sh.mu.Unlock()
		out.Inserts += st.Inserts
		out.Deletes += st.Deletes
		out.Entries += st.Entries
		out.Bytes += st.Bytes
		out.ResidentBytes += st.ResidentBytes
		out.MemoryBytes += st.MemoryBytes
		out.SpilledFiles += st.SpilledFiles
		out.Spills += st.Spills
		out.FaultIns += st.FaultIns
		out.SpillQuarantined += st.SpillQuarantined
		out.SpillSkipped += st.SpillSkipped
	}
	return out
}

// Compact rewrites the persistent state as per-file baseline records and
// drops the op log — only churned files are resealed, as Table.Compact.
// It holds every stripe lock for the duration: the log delete/rewrite is
// a global operation and must not interleave with stripe mutations. The
// shared sequence counter is never reset; baseline gating relies on it
// staying monotonic.
func (s *Striped) Compact() error {
	if s.store == nil {
		return nil
	}
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
	}
	defer func() {
		for i := range s.stripes {
			s.stripes[i].mu.Unlock()
		}
	}()
	for i := range s.stripes {
		t := s.stripes[i].t
		for _, si := range t.order {
			if err := t.writeBaseline(si); err != nil {
				return err
			}
		}
	}
	if err := s.store.DeletePrefix(opPrefix); err != nil {
		return fmt.Errorf("dmt: compact: %w", err)
	}
	return s.store.Compact()
}
