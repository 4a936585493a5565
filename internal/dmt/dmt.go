// Package dmt implements the Data Mapping Table (paper §III.D, Fig. 5
// right): for every cached range it records where the data lives in the
// cache file on the CServers (C_file/C_offset) and whether it is dirty
// (D_flag). The table is an interval map per original file, with an
// optional persistent operation log in a kvstore.Store — the Berkeley DB
// file of the paper's implementation (§IV.A) — replayed on open so that
// mappings survive crashes.
//
// Storage layout (the million-file metadata plane): file names intern
// into a shared names.Arena and every per-file structure is addressed by
// the dense arena id — no map[string] keys, no duplicated name strings.
// Extents pack into an extent.Slab (struct-of-arrays, 20 bytes/extent);
// each file holds only a 16-byte segment handle inside a 48-byte
// fileState. On top of that sits the resident-metadata budget: when the
// packed extent bytes exceed MetaBudget, cold clean files (second-chance
// clock over per-file touch bits) are sealed into per-file baseline
// records (staterec.KindFileMap) in the store and dropped from memory; a
// lookup that misses residency faults the record back in synchronously.
// Baseline records double as incremental log compaction: each carries
// the op-log sequence it supersedes, and replay skips the file's ops at
// or below it.
package dmt

import (
	"fmt"

	"s4dcache/internal/extent"
	"s4dcache/internal/kvstore"
	"s4dcache/internal/names"
	"s4dcache/internal/staterec"
)

// EntryBytes is the persistent size the paper assumes per DMT entry
// (six 4-byte fields, §V.E.1). Kept as the paper's comparison constant;
// the measured in-memory cost comes from ResidentBytes/MemoryBytes.
const EntryBytes = 24

// Mapping is the payload of one mapped extent.
type Mapping struct {
	// CacheOff is the byte offset in the cache file (C_offset).
	CacheOff int64
	// Dirty is the D_flag: the cache holds newer data than the DServers.
	Dirty bool
}

// Hit is a mapped subrange of a lookup, clipped to the query range.
type Hit struct {
	// File is the original file (set by DirtyExtents; Lookup callers
	// already know it).
	File string
	// Off and Len locate the subrange in the original file.
	Off, Len int64
	// CacheOff is where the subrange starts in the cache file.
	CacheOff int64
	// Dirty is the subrange's D_flag.
	Dirty bool
}

// packMapping encodes a Mapping into the slab's uint64 payload:
// cache offset shifted up one bit, D_flag in bit 0.
func packMapping(cacheOff int64, dirty bool) uint64 {
	v := uint64(cacheOff) << 1
	if dirty {
		v |= 1
	}
	return v
}

func unpackMapping(v uint64) (cacheOff int64, dirty bool) {
	return int64(v >> 1), v&1 == 1
}

// splitMapping advances the packed cache offset by the split delta,
// preserving the D_flag bit.
func splitMapping(v uint64, delta int64) uint64 { return v + uint64(delta)<<1 }

// File residency states.
const (
	// fsResident: extents live in the slab segment. The zero fileState
	// is an empty resident file.
	fsResident uint8 = iota
	// fsSpilled: extents live only in the file's sealed baseline record
	// in the store; spillN caches the extent count.
	fsSpilled
)

// clearLen is the delete-op length that tombstones a whole file — used
// when a quarantined baseline must not let stale log ops resurrect.
const clearLen = int64(1) << 62

// fileState is the per-file header: 48 bytes, slice-addressed by slot.
type fileState struct {
	id      uint32 // arena name id
	state   uint8
	clock   uint8 // second-chance bit: set on touch, cleared by the sweep
	churned uint8 // log ops since last baseline (Compact skips clean files)
	// unsnapped marks a mapping change the warm-restart snapshot has not
	// yet taken (TakeChanged). Unlike churned, spilling leaves it set: a
	// spill moves the extents, not the mapping.
	unsnapped uint8
	seg       extent.Seg
	spillN    uint32 // extent count while spilled
	_         uint32
	bytes     int64 // mapped bytes of the file
	dirty     int64 // mapped bytes with D_flag set
}

// fileStateBytes is the accounted per-file overhead: the fileState
// itself plus its idx map entry and order slot.
const fileStateBytes = 48 + 16 + 4

// config collects construction options shared by Table and Striped.
type config struct {
	arena     *names.Arena
	budget    int64
	spillRead func(name string, data []byte) []byte
	faultIO   func(extents int)
}

// Option configures New/Open and their striped/persisted variants.
type Option func(*config)

// WithArena shares a file-name interning arena with other tables (the
// CDT, the core's per-file bookkeeping). Default: a private arena.
func WithArena(a *names.Arena) Option { return func(c *config) { c.arena = a } }

// WithMetaBudget bounds the resident packed-extent bytes; cold clean
// files spill to sealed store records beyond it. <= 0 (the default)
// keeps everything resident. Requires a store to take effect.
func WithMetaBudget(n int64) Option { return func(c *config) { c.budget = n } }

// WithSpillRead installs a read-back hook applied to baseline record
// bytes on fault-in — the fault injector's corruption point for spilled
// metadata.
func WithSpillRead(fn func(name string, data []byte) []byte) Option {
	return func(c *config) { c.spillRead = fn }
}

// WithFaultIO installs a hook called with the extent count of every
// fault-in — the simulator core charges the modeled CPFS read there.
func WithFaultIO(fn func(extents int)) Option { return func(c *config) { c.faultIO = fn } }

// Table is the Data Mapping Table. Use New or Open.
type Table struct {
	arena *names.Arena
	slab  *extent.Slab
	idx   map[uint32]int32 // arena id -> slot in files
	files []fileState
	// order lists file slots in first-mapped order. Cross-file scans
	// (DirtyExtents, CleanExtents, Compact) and the spill clock follow
	// it instead of any map, so the Rebuilder's flush order — and with
	// it the whole simulated I/O schedule — is deterministic across runs.
	order []int32
	hand  int // clock hand into order

	store *kvstore.Store
	seq   uint64
	// nextSeq, when set, supplies persist-log sequence numbers instead of
	// the local seq counter. The striped table injects a shared atomic here
	// so sub-tables writing to one store never collide on log keys. Nil —
	// the default — keeps the original single-table numbering exactly.
	nextSeq func() uint64
	// lastSeq, when set, reads the current shared sequence (striped);
	// nil reads the local counter. Baseline records stamp it as the
	// sequence they supersede.
	lastSeq func() uint64

	budget     int64
	spillRead  func(name string, data []byte) []byte
	faultIO    func(extents int)
	onResident func(name string) // striped epoch-view republish hook

	// sdHits is the reusable scratch of the set-dirty path. Not live
	// across any call that could re-enter the table.
	sdHits []Hit

	residentBytes int64 // packed extent bytes currently in the slab
	mappedBytes   int64
	// dirtyBytes tracks the mapped bytes whose D_flag is set, maintained
	// incrementally by apply so HasDirty is O(1): the Rebuilder polls it
	// every period and must not walk (or allocate) per poll.
	dirtyBytes int64

	inserts, deletes uint64
	spills, faultIns uint64
	spillQuarantined uint64
	spillSkipped     uint64
	spilledFiles     int
}

// New returns a memory-only table (no persistence).
func New(opts ...Option) *Table {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return newTable(c)
}

func newTable(c config) *Table {
	if c.arena == nil {
		c.arena = names.NewArena()
	}
	return &Table{
		arena:     c.arena,
		slab:      extent.NewSlab(),
		idx:       make(map[uint32]int32),
		budget:    c.budget,
		spillRead: c.spillRead,
		faultIO:   c.faultIO,
	}
}

// Open returns a table persisted in store, replaying any existing
// baseline records and operation log. Every mutation is written through
// before the in-memory state changes, as the paper requires for
// power-failure safety. Baselines of clean files install spilled (no
// extents decoded) and fault in on first touch; the budget sweep runs
// once after replay.
func Open(store *kvstore.Store, opts ...Option) (*Table, error) {
	if store == nil {
		return nil, fmt.Errorf("dmt: store is required")
	}
	t := New(opts...)
	t.store = store
	maxSeq, _, err := walkState(store,
		func(name string, h staterec.FileMapHeader, total, dirty int64, data []byte) {
			t.installBaseline(name, h, total, dirty, data)
		},
		func(op logOp) { t.apply(op) },
	)
	if err != nil {
		return nil, err
	}
	t.seq = maxSeq
	t.enforceBudget(-1)
	return t, nil
}

// Arena returns the table's name-interning arena.
func (t *Table) Arena() *names.Arena { return t.arena }

// SetMetaBudget adjusts the resident budget live (<= 0 unbounded) and
// runs the spill sweep immediately.
func (t *Table) SetMetaBudget(n int64) {
	t.budget = n
	t.enforceBudget(-1)
}

// MetaBudget returns the resident budget (<= 0 means unbounded).
func (t *Table) MetaBudget() int64 { return t.budget }

// lookupSlot resolves file to its slot without interning: -1 if the
// table has never mapped it. Allocation-free.
func (t *Table) lookupSlot(file string) int32 {
	id, ok := t.arena.Lookup(file)
	if !ok {
		return -1
	}
	si, ok := t.idx[id]
	if !ok {
		return -1
	}
	return si
}

// ensureSlot interns file and returns its slot, creating the fileState
// on first touch.
func (t *Table) ensureSlot(file string) int32 {
	id := t.arena.Intern(file)
	if si, ok := t.idx[id]; ok {
		return si
	}
	si := int32(len(t.files))
	t.files = append(t.files, fileState{id: id})
	t.idx[id] = si
	t.order = append(t.order, si)
	return si
}

// Insert maps [off, off+length) of file to cacheOff in the cache file,
// overwriting any previous mapping of the range.
func (t *Table) Insert(file string, off, length, cacheOff int64, dirty bool) error {
	if length <= 0 {
		return nil
	}
	op := logOp{kind: kindInsert, file: file, off: off, length: length, cacheOff: cacheOff, dirty: dirty}
	if err := t.persist(op); err != nil {
		return err
	}
	t.apply(op)
	t.enforceBudget(-1)
	return nil
}

// FragmentInsert is one mapping of a batched insert.
type FragmentInsert struct {
	// Off and Length locate the fragment in the original file.
	Off, Length int64
	// CacheOff is the fragment's cache file location.
	CacheOff int64
	// Dirty is the initial D_flag.
	Dirty bool
}

// InsertBatch maps several fragments of one file atomically: with a
// persistent store, either all fragments survive a crash or none do (the
// fragments of one admitted request must not be torn apart). Memory-only
// tables apply the fragments directly.
func (t *Table) InsertBatch(file string, frags []FragmentInsert) error {
	if len(frags) == 0 {
		return nil
	}
	ops := make([]logOp, 0, len(frags))
	for _, fr := range frags {
		if fr.Length <= 0 {
			continue
		}
		ops = append(ops, logOp{
			kind: kindInsert, file: file,
			off: fr.Off, length: fr.Length, cacheOff: fr.CacheOff, dirty: fr.Dirty,
		})
	}
	if len(ops) == 0 {
		return nil
	}
	if t.store != nil {
		batch := t.store.NewBatch()
		for _, op := range ops {
			batch.Put(opKey(t.nextSeqNum()), encodeOp(op))
		}
		if err := batch.Commit(); err != nil {
			return fmt.Errorf("dmt: batch insert: %w", err)
		}
	}
	for _, op := range ops {
		t.apply(op)
	}
	t.enforceBudget(-1)
	return nil
}

// Delete removes mappings covering [off, off+length).
func (t *Table) Delete(file string, off, length int64) error {
	if length <= 0 {
		return nil
	}
	op := logOp{kind: kindDelete, file: file, off: off, length: length}
	if err := t.persist(op); err != nil {
		return err
	}
	t.apply(op)
	t.enforceBudget(-1)
	return nil
}

// SetClean clears the D_flag of every mapped subrange of
// [off, off+length) — the Rebuilder calls this after writing dirty data
// back to the DServers (§III.F).
func (t *Table) SetClean(file string, off, length int64) error {
	return t.setDirty(file, off, length, false)
}

// SetDirty sets the D_flag of every mapped subrange of [off, off+length) —
// a write served by the cache makes the cached copy newer than the
// DServers (Algorithm 1, line 22 followed by the write).
func (t *Table) SetDirty(file string, off, length int64) error {
	return t.setDirty(file, off, length, true)
}

func (t *Table) setDirty(file string, off, length int64, dirty bool) error {
	si := t.lookupSlot(file)
	if si < 0 {
		return nil
	}
	if t.files[si].state == fsSpilled {
		if !dirty {
			// Spilled files are clean by invariant; nothing to clear.
			return nil
		}
		t.faultIn(si)
		t.enforceBudget(si)
	}
	fs := &t.files[si]
	fs.clock = 1
	t.sdHits = t.appendClipped(t.sdHits[:0], fs.seg, off, length)
	hits := t.sdHits
	for _, h := range hits {
		if h.Dirty == dirty {
			continue
		}
		if err := t.Insert(file, h.Off, h.Len, h.CacheOff, dirty); err != nil {
			return err
		}
	}
	return nil
}

// Lookup splits [off, off+length) of file into mapped subranges (clipped,
// in order) and unmapped gaps.
func (t *Table) Lookup(file string, off, length int64) (hits []Hit, gaps []extent.Gap) {
	return t.AppendLookup(nil, nil, file, off, length)
}

// AppendLookup is Lookup appending into caller-supplied buffers, returning
// the extended slices. The serve path in internal/core reuses one pair of
// buffers per request, eliminating two allocations per intercepted I/O.
// A lookup of a spilled file faults its baseline record back in first.
func (t *Table) AppendLookup(hits []Hit, gaps []extent.Gap, file string, off, length int64) ([]Hit, []extent.Gap) {
	si := t.lookupSlot(file)
	if si < 0 {
		if length > 0 {
			gaps = append(gaps, extent.Gap{Off: off, Len: length})
		}
		return hits, gaps
	}
	if t.files[si].state == fsSpilled {
		t.faultIn(si)
		t.enforceBudget(si)
	}
	fs := &t.files[si]
	fs.clock = 1
	return t.appendClipped(hits, fs.seg, off, length), t.slab.AppendGaps(fs.seg, gaps, off, length)
}

// Contains reports whether the full range is mapped.
func (t *Table) Contains(file string, off, length int64) bool {
	si := t.lookupSlot(file)
	if si < 0 {
		return false
	}
	if t.files[si].state == fsSpilled {
		t.faultIn(si)
		t.enforceBudget(si)
	}
	fs := &t.files[si]
	fs.clock = 1
	return t.slab.Covered(fs.seg, off, length)
}

// FileMapped reports whether any range of file is currently mapped
// (resident or spilled — no fault-in). Core uses it to prune per-file
// bookkeeping (write epochs) once a file's cache residency is fully gone.
func (t *Table) FileMapped(file string) bool {
	si := t.lookupSlot(file)
	if si < 0 {
		return false
	}
	fs := &t.files[si]
	if fs.state == fsSpilled {
		return fs.spillN > 0
	}
	return fs.seg.Len() > 0
}

// DirtyExtents returns up to max dirty mapped ranges across all files
// (all if max <= 0), each with File set. Files without dirty bytes are
// skipped via their incremental counters — spilled files are clean by
// invariant, so the scan never faults anything in.
func (t *Table) DirtyExtents(max int) []Hit {
	var out []Hit
	for _, si := range t.order {
		fs := &t.files[si]
		if fs.dirty == 0 {
			continue
		}
		file := t.arena.Name(fs.id)
		offs, lens, vals := t.slab.View(fs.seg)
		for i := range offs {
			if vals[i]&1 == 0 {
				continue
			}
			co, _ := unpackMapping(vals[i])
			out = append(out, Hit{File: file, Off: offs[i], Len: int64(lens[i]), CacheOff: co, Dirty: true})
			if max > 0 && len(out) >= max {
				return out
			}
		}
	}
	return out
}

// CleanExtents returns up to max clean mapped ranges (all if max <= 0),
// candidates for space reclamation. Spilled files fault in for the scan
// (it enumerates real extents); the budget sweep runs once afterwards.
func (t *Table) CleanExtents(max int) []Hit {
	var out []Hit
	for _, si := range t.order {
		if t.files[si].state == fsSpilled {
			t.faultIn(si)
		}
		fs := &t.files[si]
		file := t.arena.Name(fs.id)
		offs, lens, vals := t.slab.View(fs.seg)
		for i := range offs {
			if vals[i]&1 == 1 {
				continue
			}
			co, _ := unpackMapping(vals[i])
			out = append(out, Hit{File: file, Off: offs[i], Len: int64(lens[i]), CacheOff: co})
			if max > 0 && len(out) >= max {
				t.enforceBudget(-1)
				return out
			}
		}
	}
	t.enforceBudget(-1)
	return out
}

// Entries returns the total mapped extent count (resident + spilled).
func (t *Table) Entries() int {
	n := 0
	for i := range t.files {
		fs := &t.files[i]
		if fs.state == fsSpilled {
			n += int(fs.spillN)
		} else {
			n += fs.seg.Len()
		}
	}
	return n
}

// Bytes returns the total mapped byte count, maintained incrementally.
func (t *Table) Bytes() int64 { return t.mappedBytes }

// DirtyBytes returns the mapped bytes whose D_flag is set, maintained
// incrementally (O(1), no walk).
func (t *Table) DirtyBytes() int64 { return t.dirtyBytes }

// HasDirty reports whether any mapped range is dirty, in O(1) and without
// allocating — the Rebuilder's poll predicate.
func (t *Table) HasDirty() bool { return t.dirtyBytes > 0 }

// MetadataBytes estimates the persistent size of the table at the paper's
// 24 bytes per entry (§V.E.1). Compare with ResidentBytes/MemoryBytes,
// which are measured.
func (t *Table) MetadataBytes() int64 { return int64(t.Entries()) * EntryBytes }

// ResidentBytes returns the packed extent bytes currently resident in
// the slab — the quantity MetaBudget bounds.
func (t *Table) ResidentBytes() int64 { return t.residentBytes }

// MemoryBytes returns the measured memory footprint of the table:
// slab chunks (including allocator slack) plus per-file headers and
// index slots. The shared name arena is excluded — it is owned jointly
// with the CDT and core (report Arena().Bytes() separately).
func (t *Table) MemoryBytes() int64 {
	return t.slab.Bytes() + int64(len(t.files))*fileStateBytes
}

// SpilledFiles returns how many files are currently spilled.
func (t *Table) SpilledFiles() int { return t.spilledFiles }

// Compact rewrites the persistent state as per-file baseline records,
// then drops the op log. Only churned files — those with log ops since
// their last baseline or spill — are rewritten, so compaction cost
// tracks churn, not file count. The sequence counter is never reset:
// baseline gating relies on it staying monotonic.
func (t *Table) Compact() error {
	if t.store == nil {
		return nil
	}
	for _, si := range t.order {
		if err := t.writeBaseline(si); err != nil {
			return err
		}
	}
	if err := t.store.DeletePrefix(opPrefix); err != nil {
		return fmt.Errorf("dmt: compact: %w", err)
	}
	return t.store.Compact()
}

// writeBaseline seals slot si's current state into its baseline record
// if it churned since the last one. Part of Compact (and of Striped's).
func (t *Table) writeBaseline(si int32) error {
	fs := &t.files[si]
	if fs.churned == 0 || fs.state == fsSpilled {
		return nil
	}
	name := t.arena.Name(fs.id)
	if fs.seg.Len() == 0 {
		// Emptied file: ops are about to be dropped, and any stale
		// baseline would resurrect pre-delete state.
		if err := t.store.Delete(spillKey(name)); err != nil {
			return fmt.Errorf("dmt: compact: %w", err)
		}
		fs.churned = 0
		return nil
	}
	offs, lens, vals := t.slab.View(fs.seg)
	rec := staterec.EncodeFileMap(name, t.lastSeqNum(), len(offs), func(i int) (int64, int64, uint64) {
		return offs[i], int64(lens[i]), vals[i]
	})
	if err := t.store.Put(spillKey(name), rec); err != nil {
		return fmt.Errorf("dmt: compact: %w", err)
	}
	fs.churned = 0
	return nil
}

// Stats reports table activity and measured memory state.
type Stats struct {
	Inserts, Deletes uint64
	Entries          int
	Bytes            int64
	// ResidentBytes/MemoryBytes are the measured footprint (see the
	// methods of the same names); SpilledFiles, Spills, FaultIns,
	// SpillQuarantined and SpillSkipped describe the budget machinery.
	ResidentBytes    int64
	MemoryBytes      int64
	SpilledFiles     int
	Spills           uint64
	FaultIns         uint64
	SpillQuarantined uint64
	SpillSkipped     uint64
}

// Stats returns a snapshot of activity counters.
func (t *Table) Stats() Stats {
	return Stats{
		Inserts: t.inserts, Deletes: t.deletes, Entries: t.Entries(), Bytes: t.Bytes(),
		ResidentBytes: t.residentBytes, MemoryBytes: t.MemoryBytes(),
		SpilledFiles: t.spilledFiles, Spills: t.spills, FaultIns: t.faultIns,
		SpillQuarantined: t.spillQuarantined, SpillSkipped: t.spillSkipped,
	}
}

func (t *Table) apply(op logOp) {
	si := t.ensureSlot(op.file)
	if t.files[si].state == fsSpilled {
		t.faultIn(si)
	}
	fs := &t.files[si]
	covered, dirtyCov := t.overlapStats(fs.seg, op.off, op.length)
	oldSeg := t.slab.SegBytes(fs.seg)
	switch op.kind {
	case kindInsert:
		t.inserts++
		t.slab.Insert(&fs.seg, op.off, op.length, packMapping(op.cacheOff, op.dirty), splitMapping)
		fs.bytes += op.length - covered
		t.mappedBytes += op.length - covered
		fs.dirty -= dirtyCov
		t.dirtyBytes -= dirtyCov
		if op.dirty {
			fs.dirty += op.length
			t.dirtyBytes += op.length
		}
	case kindDelete:
		t.deletes++
		t.slab.Delete(&fs.seg, op.off, op.length, splitMapping)
		fs.bytes -= covered
		t.mappedBytes -= covered
		fs.dirty -= dirtyCov
		t.dirtyBytes -= dirtyCov
	}
	t.residentBytes += t.slab.SegBytes(fs.seg) - oldSeg
	fs.churned = 1
	fs.unsnapped = 1
	fs.clock = 1
}

// overlapStats returns the mapped bytes of seg inside [off, off+length)
// (clipped) and how many of them carry the D_flag — the incremental
// counter deltas of apply. Allocation-free.
func (t *Table) overlapStats(g extent.Seg, off, length int64) (covered, dirty int64) {
	offs, lens, vals := t.slab.View(g)
	end := off + length
	for i := t.slab.FirstIntersecting(g, off); i < len(offs); i++ {
		if offs[i] >= end {
			break
		}
		lo, hi := offs[i], offs[i]+int64(lens[i])
		if lo < off {
			lo = off
		}
		if hi > end {
			hi = end
		}
		if hi <= lo {
			continue
		}
		covered += hi - lo
		if vals[i]&1 == 1 {
			dirty += hi - lo
		}
	}
	return covered, dirty
}

// enforceBudget spills cold clean files until the resident packed-extent
// bytes fit the budget. Second-chance clock over the deterministic order
// list: a touched file survives one sweep. protect (a slot, or -1) is
// never spilled — the file a fault-in just revived. Dirty files never
// spill (their D_flag state must stay instantly reachable for the
// Rebuilder); a spill whose record write fails is skipped and counted.
func (t *Table) enforceBudget(protect int32) {
	if t.budget <= 0 || t.store == nil || t.residentBytes <= t.budget {
		return
	}
	for steps := 2 * len(t.order); steps > 0 && t.residentBytes > t.budget; steps-- {
		if len(t.order) == 0 {
			return
		}
		if t.hand >= len(t.order) {
			t.hand = 0
		}
		si := t.order[t.hand]
		t.hand++
		if si == protect {
			continue
		}
		fs := &t.files[si]
		if fs.state != fsResident || fs.seg.Len() == 0 || fs.dirty > 0 {
			continue
		}
		if fs.clock != 0 {
			fs.clock = 0
			continue
		}
		t.spillFile(si)
	}
}

// spillFile seals slot si into its baseline record and drops its
// extents from the slab. Caller verified eligibility (resident, clean,
// non-empty).
func (t *Table) spillFile(si int32) {
	fs := &t.files[si]
	name := t.arena.Name(fs.id)
	offs, lens, vals := t.slab.View(fs.seg)
	rec := staterec.EncodeFileMap(name, t.lastSeqNum(), len(offs), func(i int) (int64, int64, uint64) {
		return offs[i], int64(lens[i]), vals[i]
	})
	if err := t.store.Put(spillKey(name), rec); err != nil {
		// An injected or real write failure aborts this spill; the file
		// simply stays resident (the budget is advisory, correctness is
		// not).
		t.spillSkipped++
		return
	}
	n := uint32(fs.seg.Len())
	t.residentBytes -= t.slab.SegBytes(fs.seg)
	t.slab.Free(&fs.seg)
	fs.state = fsSpilled
	fs.spillN = n
	// The record now covers every logged op of the file (<= lastSeq),
	// so the file is clean for Compact too.
	fs.churned = 0
	t.spilledFiles++
	t.spills++
	if t.onResident != nil {
		t.onResident(name)
	}
}

// faultIn decodes slot si's baseline record back into the slab. A
// missing or corrupt record quarantines the file — tombstoned, deleted,
// counted, and served as a miss from then on — never applied.
func (t *Table) faultIn(si int32) {
	fs := &t.files[si]
	name := t.arena.Name(fs.id)
	key := spillKey(name)
	data, ok := t.store.Get(key)
	if ok && t.spillRead != nil {
		data = t.spillRead(name, data)
	}
	decoded := false
	n := 0
	if ok {
		h, err := staterec.DecodeFileMap(data, func(off, length int64, val uint64) {
			t.slab.Insert(&fs.seg, off, length, val, splitMapping)
			n++
		})
		decoded = err == nil && h.File == name
	}
	t.spilledFiles--
	fs.state = fsResident
	fs.spillN = 0
	fs.clock = 1
	if !decoded {
		// Quarantine: drop any partial decode, tombstone the file in the
		// op log so stale ops cannot resurrect it, then delete the bad
		// record. If the tombstone write fails the record stays put — the
		// next open re-quarantines deterministically.
		t.slab.Free(&fs.seg)
		t.mappedBytes -= fs.bytes
		t.dirtyBytes -= fs.dirty
		fs.bytes, fs.dirty = 0, 0
		fs.unsnapped = 1
		t.spillQuarantined++
		if err := t.persist(logOp{kind: kindDelete, file: name, off: 0, length: clearLen}); err == nil {
			_ = t.store.Delete(key)
		}
		if t.onResident != nil {
			t.onResident(name)
		}
		return
	}
	t.residentBytes += t.slab.SegBytes(fs.seg)
	t.faultIns++
	if t.faultIO != nil {
		t.faultIO(n)
	}
	if t.onResident != nil {
		t.onResident(name)
	}
}

// installBaseline applies one replayed baseline record during Open. A
// clean file installs spilled — count and bytes from the validated
// record, no extents decoded — and faults in on first touch. A record
// holding dirty extents (written by Compact, not the spiller) installs
// resident: the spilled state must stay all-clean for the Rebuilder's
// dirty scans.
func (t *Table) installBaseline(name string, h staterec.FileMapHeader, total, dirty int64, data []byte) {
	si := t.ensureSlot(name)
	fs := &t.files[si]
	if dirty == 0 {
		fs.state = fsSpilled
		fs.spillN = h.Count
		fs.bytes = total
		t.mappedBytes += total
		t.spilledFiles++
		return
	}
	_, _ = staterec.DecodeFileMap(data, func(off, length int64, val uint64) {
		t.slab.Insert(&fs.seg, off, length, val, splitMapping)
	})
	fs.bytes = total
	fs.dirty = dirty
	t.mappedBytes += total
	t.dirtyBytes += dirty
	t.residentBytes += t.slab.SegBytes(fs.seg)
}

// nextSeqNum returns the next persist-log sequence number: the injected
// shared counter when striped, the table-local counter otherwise.
func (t *Table) nextSeqNum() uint64 {
	if t.nextSeq != nil {
		return t.nextSeq()
	}
	t.seq++
	return t.seq
}

// lastSeqNum returns the highest issued sequence number — what a
// baseline record written now supersedes.
func (t *Table) lastSeqNum() uint64 {
	if t.lastSeq != nil {
		return t.lastSeq()
	}
	return t.seq
}

func (t *Table) persist(op logOp) error {
	if t.store == nil {
		return nil
	}
	if err := t.store.Put(opKey(t.nextSeqNum()), encodeOp(op)); err != nil {
		return fmt.Errorf("dmt: persist: %w", err)
	}
	return nil
}

// appendClipped appends the mapped subranges of [off, off+length) to dst,
// clipped to the query range. Allocation-free beyond dst growth.
func (t *Table) appendClipped(dst []Hit, g extent.Seg, off, length int64) []Hit {
	offs, lens, vals := t.slab.View(g)
	end := off + length
	for i := t.slab.FirstIntersecting(g, off); i < len(offs); i++ {
		if offs[i] >= end {
			break
		}
		lo, hi := offs[i], offs[i]+int64(lens[i])
		co, dirty := unpackMapping(vals[i])
		if lo < off {
			co += off - lo
			lo = off
		}
		if hi > end {
			hi = end
		}
		if hi <= lo {
			continue
		}
		dst = append(dst, Hit{Off: lo, Len: hi - lo, CacheOff: co, Dirty: dirty})
	}
	return dst
}

const (
	opPrefix = "dmtop|"
	// spillPrefix keys the per-file baseline records; the file name
	// rides in the key so a corrupt value still identifies its file.
	spillPrefix = "dmtfx|"
)

func opKey(seq uint64) string { return fmt.Sprintf(opPrefix+"%020d", seq) }

func spillKey(name string) string { return spillPrefix + name }

const (
	kindInsert byte = 1
	kindDelete byte = 2
)

type logOp struct {
	kind     byte
	file     string
	off      int64
	length   int64
	cacheOff int64
	dirty    bool
}
