package core

import (
	"fmt"
	"math"
	"sort"

	"s4dcache/internal/cdt"
	"s4dcache/internal/dmt"
	"s4dcache/internal/kvstore"
	"s4dcache/internal/staterec"
)

// Durable warm-restart snapshots (DESIGN.md §14.2). Every SnapshotPeriod
// the engine streams its residency and CDT state into the metadata store,
// then rides the DMT's copy-on-write compaction so the whole image lands
// in one integrity-framed store snapshot. The image is one bundle per
// file and kind — a length-framed run of individually sealed records
// (staterec.WalkBundle) — plus a header:
//
//	wrres|<file> → bundle of staterec.Extent   (cache residency, telemetry)
//	wrcdt|<file> → bundle of staterec.Critical (CDT entries, load-bearing)
//	wrmeta       → staterec.Meta               (epoch + whole-image counts)
//
// A tick rewrites only the bundles of files whose DMT or CDT state changed
// since the previous tick (the tables' TakeChanged marks) and deletes the
// bundles of files that emptied, so its store traffic tracks churn, not
// image size. An engine's first tick — and the first after a failed one —
// clears both prefixes and rewrites every file.
//
// Authority model: the DMT op-log — every record CRC-checked by the store —
// is the single authority for which extents exist and where they live. The
// residency records are a second, independently-sealed copy used to verify
// it and to measure drift; recovery never re-admits from a residency record
// alone, because a later replayed delete may have legitimately removed the
// mapping. The CDT records ARE load-bearing: the CDT has no other
// persistence, so losing one silently loses a criticality hint (never
// correctness). wrmeta is written last with the counts of the whole image,
// so a crash mid-tick that changed the image's record counts leaves counts
// that disagree with the surviving bundles — recovery surfaces the delta
// in the quarantine counter instead of trusting the torn image.

const (
	resPrefix = "wrres|"
	cdtPrefix = "wrcdt|"
	metaKey   = "wrmeta"
)

// snapBatchOps and snapBatchBytes cap one store batch while snapshotting,
// so a tick never produces an unbounded WAL record.
const (
	snapBatchOps   = 64
	snapBatchBytes = 1 << 20
)

// pendingExt is one recovered clean extent awaiting re-admission. dropped
// marks it superseded by a write that arrived before its turn; the
// supersede also durably deletes the mapping, so a crash mid-recovery
// cannot resurrect it over the newer DServer bytes.
type pendingExt struct {
	file     string
	off      int64
	length   int64
	cacheOff int64
	dropped  bool
}

// snapImage is the verified content of a residency snapshot, plus the
// damage found while reading it.
type snapImage struct {
	hasMeta bool
	meta    staterec.Meta
	// residency holds one key per valid residency record (resKey format).
	residency map[string]struct{}
	crits     []staterec.Critical
	// quarRecords counts records rejected by their seal, unparseable, lost
	// from a damaged bundle, or missing against the meta counts. Bytes are
	// unknowable for a record that failed its CRC, so only the record
	// count moves here.
	quarRecords uint64
}

func resKey(file string, off, length, cacheOff int64, dirty bool) string {
	return fmt.Sprintf("%s|%d|%d|%d|%t", file, off, length, cacheOff, dirty)
}

// readSnapshot loads and verifies the warm-restart records in store. It
// never fails: damaged records are counted, not fatal — the caller serves
// from the op-log regardless.
func readSnapshot(store *kvstore.Store) snapImage {
	img := snapImage{residency: make(map[string]struct{})}
	if raw, ok := store.Get(metaKey); ok {
		if m, err := staterec.DecodeMeta(raw); err == nil {
			img.hasMeta = true
			img.meta = m
		} else {
			img.quarRecords++
		}
	}
	exts, resSeen := readBundles(&img, store, resPrefix, staterec.DecodeExtent)
	for _, e := range exts {
		img.residency[resKey(e.File, e.Off, e.Len, e.CacheOff, e.Dirty)] = struct{}{}
	}
	var critSeen int
	img.crits, critSeen = readBundles(&img, store, cdtPrefix, staterec.DecodeCritical)
	if img.hasMeta {
		// Records the meta header promises but whose bundles vanished
		// entirely were lost with their bytes; surface them rather than
		// pretending the image was whole. (Damaged-but-present records
		// were counted above.)
		if n := int(img.meta.Extents) - resSeen; n > 0 {
			img.quarRecords += uint64(n)
		}
		if n := int(img.meta.Criticals) - critSeen; n > 0 {
			img.quarRecords += uint64(n)
		}
	}
	return img
}

// readBundles decodes every bundle under prefix and returns the intact
// records in bundle order (by header ord; bundles whose header failed its
// seal sort last), plus how many image records the bundles account for —
// valid or not — for the meta-count check. Records that fail decode and
// records a bundle lost are counted in img.quarRecords.
func readBundles[R any](img *snapImage, store *kvstore.Store, prefix string, decode func([]byte) (R, error)) (recs []R, seen int) {
	type bundle struct {
		ord  uint64
		recs []R
	}
	var bs []bundle
	store.Scan(prefix, func(_ string, val []byte) bool {
		var b bundle
		sc := staterec.WalkBundle(val, func(rec []byte) {
			r, err := decode(rec)
			if err != nil {
				img.quarRecords++
				return
			}
			b.recs = append(b.recs, r)
		})
		records, lost := sc.Accounting()
		seen += records
		img.quarRecords += uint64(lost)
		b.ord = math.MaxUint64
		if sc.HeaderOK {
			b.ord = sc.Header.Ord
		}
		bs = append(bs, b)
		return true
	})
	sort.SliceStable(bs, func(i, j int) bool { return bs[i].ord < bs[j].ord })
	for _, b := range bs {
		recs = append(recs, b.recs...)
	}
	return recs, seen
}

// snapSource is one table's side of a snapshot tick: which files changed
// since the previous tick, and a file's current records. dmt.Table,
// cdt.Table and the engine's DMTView and CDTView implement it.
type snapSource[E any] interface {
	TakeChanged(all bool, fn func(file string, ord uint64))
	AppendFile(dst []E, file string) []E
}

// snapWriter is an engine's incremental snapshot state. Its zero value
// rewrites everything on the first tick.
type snapWriter struct {
	// synced is set once a whole image has landed; until then — and after
	// any failed tick, whose taken change marks are gone — the next tick
	// clears the store's image and rewrites every file.
	synced    bool
	res, crit bundleSet
	// Per-tick scratch, reused across ticks.
	changed []changedFile
	hits    []dmt.Hit
	cexts   []cdt.Extent
	buf     []byte
	batch   *kvstore.Batch
	bytes   int
}

type changedFile struct {
	file string
	ord  uint64
}

// bundleSet tracks the bundles one prefix holds in the store: records per
// file and their total — the whole-image count wrmeta carries.
type bundleSet struct {
	n     map[string]int
	total int
}

// write streams one snapshot tick into store and returns the number of
// records it rewrote (excluding the header).
func (w *snapWriter) write(store *kvstore.Store, res snapSource[dmt.Hit], crit snapSource[cdt.Extent], epoch uint64, capacity int64) (int, error) {
	all := !w.synced
	w.synced = false
	if all {
		for _, p := range []string{resPrefix, cdtPrefix} {
			if err := store.DeletePrefix(p); err != nil {
				return 0, err
			}
		}
		w.res = bundleSet{n: make(map[string]int)}
		w.crit = bundleSet{n: make(map[string]int)}
	}
	w.batch, w.bytes = store.NewBatch(), 0
	nRes, err := streamChanged(w, store, res, all, &w.res, resPrefix, &w.hits, appendResidency)
	if err != nil {
		return 0, err
	}
	nCrit, err := streamChanged(w, store, crit, all, &w.crit, cdtPrefix, &w.cexts, appendCritical)
	if err != nil {
		return 0, err
	}
	if err := w.flush(store); err != nil {
		return 0, err
	}
	meta := staterec.EncodeMeta(staterec.Meta{
		Epoch:         epoch,
		Extents:       uint32(w.res.total),
		Criticals:     uint32(w.crit.total),
		CapacityBytes: capacity,
	})
	if err := store.Put(metaKey, meta); err != nil {
		return 0, err
	}
	w.synced = true
	return nRes + nCrit, nil
}

// streamChanged stages the bundles of src's changed files under prefix
// and returns the number of records they hold. The table lock (if any)
// is held only while the changed names are copied out; each file's
// records are then read under their own lock acquisition.
func streamChanged[E any](w *snapWriter, store *kvstore.Store, src snapSource[E], all bool, set *bundleSet, prefix string, scratch *[]E, appendRec func([]byte, E) []byte) (int, error) {
	w.changed = w.changed[:0]
	src.TakeChanged(all, func(file string, ord uint64) {
		w.changed = append(w.changed, changedFile{file: file, ord: ord})
	})
	written := 0
	for _, f := range w.changed {
		recs := src.AppendFile((*scratch)[:0], f.file)
		*scratch = recs
		w.buf = staterec.AppendBundleHeader(w.buf[:0], staterec.BundleHeader{Ord: f.ord, Count: uint32(len(recs))})
		for _, r := range recs {
			w.buf = appendRec(w.buf, r)
		}
		if err := w.stage(store, set, prefix, f.file, len(recs)); err != nil {
			return 0, err
		}
		written += len(recs)
	}
	return written, nil
}

func appendResidency(dst []byte, h dmt.Hit) []byte {
	return staterec.AppendBundleExtent(dst, staterec.Extent{
		File: h.File, Off: h.Off, Len: h.Len, CacheOff: h.CacheOff, Dirty: h.Dirty,
	})
}

func appendCritical(dst []byte, c cdt.Extent) []byte {
	return staterec.AppendBundleCritical(dst, staterec.Critical{
		File: c.File, Off: c.Off, Len: c.Len, CFlag: c.CFlag,
	})
}

// stage queues file's bundle (encoded in w.buf) — or, when the file holds
// no records, the deletion of the bundle it had — in the current batch.
func (w *snapWriter) stage(store *kvstore.Store, set *bundleSet, prefix, file string, n int) error {
	old, had := set.n[file]
	switch {
	case n > 0:
		w.batch.Put(prefix+file, w.buf)
		w.bytes += len(w.buf)
		set.n[file] = n
	case had:
		w.batch.Delete(prefix + file)
		delete(set.n, file)
	default:
		return nil
	}
	set.total += n - old
	if w.batch.Len() >= snapBatchOps || w.bytes >= snapBatchBytes {
		return w.flush(store)
	}
	return nil
}

// flush commits the pending batch and starts a new one.
func (w *snapWriter) flush(store *kvstore.Store) error {
	err := w.batch.Commit()
	w.batch, w.bytes = store.NewBatch(), 0
	return err
}
