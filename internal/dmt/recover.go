package dmt

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"s4dcache/internal/kvstore"
	"s4dcache/internal/staterec"
)

// This file is the warm-restart surface of the DMT: walking the persistent
// state (baseline records plus op-log) without owning it, constructing
// tables attached to a store without replaying it, and applying recovered
// state in memory without re-persisting what the log already holds. It
// also holds the op wire codec the log and the walkers share.

// walkState walks the full persistent DMT state of store: every per-file
// baseline record first, then the op-log in sequence order with each
// file's ops at or below its baseline's BaseSeq skipped (the baseline
// already covers them). Baseline records are CRC-verified and
// shape-validated end to end before baseline is called with the file's
// header, total mapped bytes, and dirty mapped bytes; a record that fails
// validation quarantines its file — no baseline call, all of the file's
// ops skipped, a tombstone delete appended to the log, and the bad record
// removed so the damage is counted once and never resurrects. Returns the
// highest sequence number present (including appended tombstones) and the
// quarantined file count.
func walkState(
	store *kvstore.Store,
	baseline func(name string, h staterec.FileMapHeader, total, dirty int64, data []byte),
	opFn func(op logOp),
) (maxSeq uint64, quarantined int, err error) {
	base := make(map[string]uint64)
	quar := make(map[string]bool)
	var quarNames []string
	for _, k := range store.Keys(spillPrefix) {
		name := strings.TrimPrefix(k, spillPrefix)
		data, ok := store.Get(k)
		var h staterec.FileMapHeader
		var total, dirty int64
		derr := staterec.ErrCorrupt
		if ok {
			// Full validation pass: a record that decodes clean here can
			// never fail a later fault-in decode of the same bytes.
			h, derr = staterec.DecodeFileMap(data, func(off, length int64, val uint64) {
				total += length
				if val&1 == 1 {
					dirty += length
				}
			})
		}
		if derr != nil || h.File != name {
			quar[name] = true
			quarNames = append(quarNames, name)
			continue
		}
		if h.BaseSeq > maxSeq {
			maxSeq = h.BaseSeq
		}
		base[name] = h.BaseSeq
		baseline(name, h, total, dirty, data)
	}
	for _, k := range store.Keys(opPrefix) {
		// The max is taken explicitly over every key rather than trusting
		// store key order: resuming below an existing sequence number would
		// silently overwrite live log records on the next persist.
		seq, perr := strconv.ParseUint(strings.TrimPrefix(k, opPrefix), 10, 64)
		if perr != nil {
			return 0, 0, fmt.Errorf("dmt: malformed log key %q: %w", k, perr)
		}
		if seq > maxSeq {
			maxSeq = seq
		}
		v, ok := store.Get(k)
		if !ok {
			continue
		}
		op, derr := decodeOp(v)
		if derr != nil {
			return 0, 0, fmt.Errorf("dmt: replay %s: %w", k, derr)
		}
		if quar[op.file] {
			continue
		}
		if bs, ok := base[op.file]; ok && seq <= bs {
			continue
		}
		opFn(op)
	}
	// Quarantine cleanup: tombstone each damaged file past every existing
	// op so nothing can resurrect it, then drop the bad record. If the
	// tombstone write fails the record stays put, and the next open
	// re-quarantines the same file deterministically.
	for _, name := range quarNames {
		tomb := encodeOp(logOp{kind: kindDelete, file: name, off: 0, length: clearLen})
		if perr := store.Put(opKey(maxSeq+1), tomb); perr == nil {
			maxSeq++
			_ = store.Delete(spillPrefix + name)
		}
	}
	return maxSeq, len(quarNames), nil
}

// ReplayState walks the full persistent DMT state in store — baseline
// records first, then the non-superseded op-log tail — calling apply for
// every surviving mapping event (insert=true for inserts and baseline
// extents, false for deletes). It returns the highest sequence number
// present, which a table attached to the same store must continue
// numbering from, and how many files were quarantined for damaged
// baseline records (tombstoned and dropped, never applied). Op records
// already passed the store's WAL/snapshot CRCs to be visible here;
// baseline records additionally carry their own end-to-end seal.
func ReplayState(store *kvstore.Store, apply func(file string, off, length, cacheOff int64, dirty, insert bool)) (maxSeq uint64, quarantined int, err error) {
	if store == nil {
		return 0, 0, fmt.Errorf("dmt: store is required")
	}
	return walkState(store,
		func(name string, h staterec.FileMapHeader, total, dirty int64, data []byte) {
			_, _ = staterec.DecodeFileMap(data, func(off, length int64, val uint64) {
				co, d := unpackMapping(val)
				apply(name, off, length, co, d, true)
			})
		},
		func(op logOp) {
			apply(op.file, op.off, op.length, op.cacheOff, op.dirty, op.kind == kindInsert)
		},
	)
}

// NewPersisted returns an empty table attached to store without replaying
// its state, numbering new ops after seq (as returned by ReplayState).
// The warm-restart recoverer uses it to install recovered extents
// selectively — via Restore, which does not re-persist what the log
// already holds — while new mutations append to the same log as usual.
// NewPersisted is NewPersistedShards with one table.
func NewPersisted(store *kvstore.Store, seq uint64, opts ...Option) (*Table, error) {
	ts, err := NewPersistedShards(store, seq, 1, opts...)
	if err != nil {
		return nil, err
	}
	return ts[0], nil
}

// NewPersistedShards is NewPersisted for n tables over one store, sharing
// one arena and one op-log sequence.
func NewPersistedShards(store *kvstore.Store, seq uint64, n int, opts ...Option) ([]*Table, error) {
	if store == nil {
		return nil, fmt.Errorf("dmt: store is required")
	}
	ts := newShards(store, n, opts)
	ts[0].seq.Store(seq)
	return ts, nil
}

// Restore applies an insert to the in-memory table only, without writing a
// log op. Correct exactly when the mapping is already durable in the
// attached store's state (warm-restart re-admission); anywhere else it
// would silently fork memory from the log. Restored files count as
// churned, so the next Compact reseals them into baselines.
func (t *Table) Restore(file string, off, length, cacheOff int64, dirty bool) {
	if length <= 0 {
		return
	}
	t.apply(logOp{kind: kindInsert, file: file, off: off, length: length, cacheOff: cacheOff, dirty: dirty})
	t.enforceBudget(-1)
}

// encodeOp serializes one log op: kind byte, length-prefixed file name,
// then off/len/cacheOff as little-endian u64 and the dirty flag byte.
func encodeOp(op logOp) []byte {
	buf := make([]byte, 0, 1+4+len(op.file)+8*3+1)
	buf = append(buf, op.kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(op.file)))
	buf = append(buf, op.file...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(op.off))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(op.length))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(op.cacheOff))
	if op.dirty {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return buf
}

func decodeOp(data []byte) (logOp, error) {
	if len(data) < 1+4 {
		return logOp{}, fmt.Errorf("dmt: short op record (%d bytes)", len(data))
	}
	op := logOp{kind: data[0]}
	if op.kind != kindInsert && op.kind != kindDelete {
		return logOp{}, fmt.Errorf("dmt: unknown op kind %d", op.kind)
	}
	n := int(binary.LittleEndian.Uint32(data[1:]))
	rest := data[5:]
	if n < 0 || len(rest) != n+8*3+1 {
		return logOp{}, fmt.Errorf("dmt: malformed op record (%d bytes, name %d)", len(data), n)
	}
	op.file = string(rest[:n])
	rest = rest[n:]
	op.off = int64(binary.LittleEndian.Uint64(rest))
	op.length = int64(binary.LittleEndian.Uint64(rest[8:]))
	op.cacheOff = int64(binary.LittleEndian.Uint64(rest[16:]))
	op.dirty = rest[24] != 0
	return op, nil
}
