// Package names provides a shared file-name interning arena: every
// distinct name is stored exactly once in chunked, append-only byte
// storage and addressed by a dense uint32 id. The metadata tables
// (internal/dmt, internal/cdt) and the per-shard bookkeeping in
// internal/core share one arena per engine, so a million-file workload
// pays for each name's bytes once instead of once per table.
//
// Ids are dense (0, 1, 2, ...), which lets tables replace
// map[string]-keyed state with slice- or id-keyed addressing. Interned
// bytes never move: chunks are fixed-capacity and append-only, so the
// canonical string returned by Name stays valid for the arena's
// lifetime. The arena is safe for concurrent use, and reads (Lookup,
// Name) are lock-free and allocation-free: they load an atomically
// published index snapshot, so serve paths that consult the arena never
// contend on a mutex — not even a read lock. Writers (Intern of a new
// name) serialize on a mutex and publish a fresh snapshot per name;
// interning an existing name takes the lock-free read path.
package names

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// chunkSize is the byte capacity of one storage chunk. Names longer
// than a chunk get a dedicated chunk of their exact size.
const chunkSize = 1 << 16

// loc addresses one interned name inside the chunk storage.
type loc struct {
	chunk uint32
	off   uint32
	len   uint32
}

// arenaIndex is one published snapshot of the arena. locs and chunks
// are append-only: a writer extends them past the snapshotted lengths
// (in place when capacity allows — old readers never index beyond their
// own lengths) and publishes the next snapshot with the longer views.
// Chunk byte arrays are allocated at full length up front and filled
// through the fill cursor, so a published chunk header is never
// rewritten; writers copy new name bytes into the unfilled region,
// which no published loc can reach.
//
// The hash table is shared across snapshots and mutated in place
// through atomic slot stores. A reader probing an old snapshot may see
// a slot holding an id newer than its locs view; it treats that slot as
// occupied by some other name and probes on — exactly the chain it
// would have walked before the slot was filled, since insertions only
// claim previously empty slots. Growth allocates a fresh table, after
// which the old one is never written again.
type arenaIndex struct {
	table []atomic.Int32 // open-addressed hash slots: id+1, 0 = empty
	mask  uint32
	locs  []loc
	// chunks holds the interned bytes; fill is the used byte count of
	// the last chunk (earlier chunks are never appended to again).
	chunks [][]byte
	fill   uint32
}

// Arena is a concurrent string-interning arena. Use NewArena.
type Arena struct {
	mu  sync.Mutex // serializes writers (Intern of a new name)
	idx atomic.Pointer[arenaIndex]
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	a := &Arena{}
	a.idx.Store(&arenaIndex{table: make([]atomic.Int32, 64), mask: 63})
	return a
}

func hashName(s string) uint32 {
	// FNV-1a, matching the engine's shard routing hash.
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// name returns the canonical string of id within this snapshot.
func (x *arenaIndex) name(id uint32) string {
	l := x.locs[id]
	if l.len == 0 {
		return ""
	}
	c := x.chunks[l.chunk]
	// Chunks are append-only and never reallocated, so the returned
	// string view stays valid forever.
	return unsafe.String(&c[l.off], int(l.len))
}

// probe finds s in the snapshot. Returns the slot index and whether the
// name is present (id at that slot). Slots holding ids newer than the
// snapshot read as occupied-by-other (see the type comment).
func (x *arenaIndex) probe(s string, h uint32) (slot uint32, id uint32, ok bool) {
	slot = h & x.mask
	for {
		v := x.table[slot].Load()
		if v == 0 {
			return slot, 0, false
		}
		id = uint32(v - 1)
		if int(id) < len(x.locs) && x.name(id) == s {
			return slot, id, true
		}
		slot = (slot + 1) & x.mask
	}
}

// Lookup returns the id of s if it has been interned. Lock-free and
// allocation-free — safe on zero-alloc serve paths.
func (a *Arena) Lookup(s string) (uint32, bool) {
	x := a.idx.Load()
	_, id, ok := x.probe(s, hashName(s))
	return id, ok
}

// Intern returns the id of s, adding it to the arena if new. The first
// interning of a name copies its bytes into the arena; subsequent calls
// are lock-free lookups.
func (a *Arena) Intern(s string) uint32 {
	h := hashName(s)
	if _, id, ok := a.idx.Load().probe(s, h); ok {
		return id
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	old := a.idx.Load()
	slot, id, ok := old.probe(s, h)
	if ok {
		return id
	}
	next := &arenaIndex{
		table: old.table, mask: old.mask,
		locs: old.locs, chunks: old.chunks, fill: old.fill,
	}
	id = uint32(len(next.locs))
	next.locs = append(next.locs, next.store(s))
	if uint32(len(next.locs))*4 >= uint32(len(next.table))*3 {
		next.grow()
	} else {
		// Readers of older snapshots guard against the fresh id; the
		// publish below is the release edge for readers of this one.
		next.table[slot].Store(int32(id + 1))
	}
	a.idx.Store(next)
	return id
}

// store copies s into chunk storage and returns its location. Caller
// holds the writer lock. New chunks are allocated at full length so
// their headers never change after publication; only the unfilled tail
// bytes — unreachable from any published loc — are written.
func (x *arenaIndex) store(s string) loc {
	if len(s) == 0 {
		return loc{}
	}
	if len(s) > chunkSize {
		c := make([]byte, len(s))
		copy(c, s)
		x.chunks = append(x.chunks, c)
		x.fill = uint32(len(s))
		return loc{chunk: uint32(len(x.chunks) - 1), off: 0, len: uint32(len(s))}
	}
	n := len(x.chunks)
	if n == 0 || int(x.fill)+len(s) > len(x.chunks[n-1]) {
		x.chunks = append(x.chunks, make([]byte, chunkSize))
		n++
		x.fill = 0
	}
	off := x.fill
	copy(x.chunks[n-1][off:], s)
	x.fill = off + uint32(len(s))
	return loc{chunk: uint32(n - 1), off: off, len: uint32(len(s))}
}

// grow rehashes every id — the just-appended one included — into a
// doubled, freshly allocated table. The old table takes no further
// writes once its successor is published.
func (x *arenaIndex) grow() {
	old := x.table
	x.table = make([]atomic.Int32, 2*len(old))
	x.mask = uint32(len(x.table) - 1)
	for id := range x.locs {
		slot := hashName(x.name(uint32(id))) & x.mask
		for x.table[slot].Load() != 0 {
			slot = (slot + 1) & x.mask
		}
		x.table[slot].Store(int32(id + 1))
	}
}

// Name returns the canonical interned string of id. The returned string
// aliases arena storage and stays valid for the arena's lifetime.
// Panics on an id the arena never issued, like a slice bounds error.
// Lock-free and allocation-free.
func (a *Arena) Name(id uint32) string {
	return a.idx.Load().name(id)
}

// Count returns how many distinct names are interned.
func (a *Arena) Count() int {
	return len(a.idx.Load().locs)
}

// Bytes returns the arena's memory footprint: chunk lengths plus the
// index structures. Deterministic for a given interning sequence.
func (a *Arena) Bytes() int64 {
	x := a.idx.Load()
	n := int64(len(x.table))*4 + int64(len(x.locs))*12
	for _, c := range x.chunks {
		n += int64(len(c))
	}
	return n
}
