// Package staterec defines the integrity-framed state records the S4D core
// snapshot-streams through kvstore for warm restarts: cache-residency
// extents, critical-data (CDT) entries, and the snapshot meta header.
//
// Every record is sealed end-to-end with CRC32C over kind+payload — on top
// of the kvstore WAL record CRC — so a record that survived storage intact
// but was damaged anywhere else along the way (application bug, torn
// snapshot logic, memory corruption) is detected at recovery time and
// quarantined rather than re-admitted. This is the dps_files
// "verify-the-bytes-that-come-back" pattern applied to metadata: the
// recoverer never trusts a state record it cannot prove whole.
package staterec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// ErrCorrupt is returned when a sealed record fails its CRC or does not
// parse. Callers quarantine the record: it is counted, never applied.
var ErrCorrupt = errors.New("staterec: corrupt record")

// Record kinds, the first byte under the seal.
const (
	// KindExtent is a cache-residency record: one resident extent of the
	// cache space, with its owner mapping and dirty bit.
	KindExtent byte = 1
	// KindCritical is one CDT entry: a critical extent with its fetch flag.
	KindCritical byte = 2
	// KindMeta is the snapshot header: epoch and expected record counts,
	// letting recovery detect records that went missing entirely.
	KindMeta byte = 3
	// KindFileMap is a whole-file DMT baseline: every mapped extent of
	// one file with its packed payload, plus the op-log sequence the
	// record supersedes. Written when the resident-budget spiller drops
	// a cold file from memory and by log compaction; replay applies the
	// record first and skips ops at or below its BaseSeq.
	KindFileMap byte = 4
	// KindBundle heads a snapshot bundle: the framed run of one file's
	// Extent or Critical records (see AppendBundleHeader).
	KindBundle byte = 5
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Extent is the residency record for one resident cache extent.
type Extent struct {
	File     string
	Off      int64
	Len      int64
	CacheOff int64
	Dirty    bool
}

// Critical is one persisted CDT entry.
type Critical struct {
	File  string
	Off   int64
	Len   int64
	CFlag bool
}

// Meta is the snapshot stream header.
type Meta struct {
	// Epoch increments per snapshot; recovery keeps the newest.
	Epoch uint64
	// Extents and Criticals are the record counts the snapshot wrote.
	// Fewer surviving records than promised means loss — counted as
	// quarantined even though the damaged bytes themselves are gone.
	Extents   uint32
	Criticals uint32
	// CapacityBytes is the cache capacity at snapshot time; a restart with
	// a different capacity treats residency records as advisory only.
	CapacityBytes int64
}

// seal wraps kind+payload with the trailing CRC32C.
func seal(kind byte, payload []byte) []byte {
	buf := make([]byte, 0, 1+len(payload)+4)
	buf = append(buf, kind)
	return closeSeal(append(buf, payload...), 0)
}

// closeSeal appends the CRC32C of dst[start:] — a kind byte and its
// payload appended in place — sealing the record that begins at start.
func closeSeal(dst []byte, start int) []byte {
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable))
}

// Unseal verifies a sealed record and returns its kind and payload.
func Unseal(data []byte) (kind byte, payload []byte, err error) {
	if len(data) < 5 {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrCorrupt, len(data))
	}
	body := data[: len(data)-4 : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, crcTable) != want {
		return 0, nil, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	return body[0], body[1:], nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func takeString(data []byte) (string, []byte, bool) {
	if len(data) < 4 {
		return "", nil, false
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if n < 0 || len(data) < n {
		return "", nil, false
	}
	return string(data[:n]), data[n:], true
}

// AppendExtent appends one sealed residency record to dst.
func AppendExtent(dst []byte, e Extent) []byte {
	start := len(dst)
	dst = append(dst, KindExtent)
	dst = appendString(dst, e.File)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(e.Off))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(e.Len))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(e.CacheOff))
	dst = appendBool(dst, e.Dirty)
	return closeSeal(dst, start)
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// DecodeExtent unseals and parses a residency record.
func DecodeExtent(data []byte) (Extent, error) {
	kind, payload, err := Unseal(data)
	if err != nil {
		return Extent{}, err
	}
	if kind != KindExtent {
		return Extent{}, fmt.Errorf("%w: kind %d, want extent", ErrCorrupt, kind)
	}
	file, rest, ok := takeString(payload)
	if !ok || len(rest) != 8*3+1 {
		return Extent{}, fmt.Errorf("%w: extent payload shape", ErrCorrupt)
	}
	e := Extent{
		File:     file,
		Off:      int64(binary.LittleEndian.Uint64(rest)),
		Len:      int64(binary.LittleEndian.Uint64(rest[8:])),
		CacheOff: int64(binary.LittleEndian.Uint64(rest[16:])),
		Dirty:    rest[24] != 0,
	}
	if e.Len <= 0 || e.Off < 0 || e.CacheOff < 0 || rest[24] > 1 {
		return Extent{}, fmt.Errorf("%w: extent field range", ErrCorrupt)
	}
	return e, nil
}

// AppendCritical appends one sealed CDT record to dst.
func AppendCritical(dst []byte, c Critical) []byte {
	start := len(dst)
	dst = append(dst, KindCritical)
	dst = appendString(dst, c.File)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(c.Off))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(c.Len))
	dst = appendBool(dst, c.CFlag)
	return closeSeal(dst, start)
}

// legacyBenefitLen is the size of the benefit field that records written
// before the CDT dropped its per-range benefit carry between Len and the
// flag.
const legacyBenefitLen = 8

// DecodeCritical unseals and parses a CDT record. A legacy record's
// benefit field is skipped.
func DecodeCritical(data []byte) (Critical, error) {
	kind, payload, err := Unseal(data)
	if err != nil {
		return Critical{}, err
	}
	if kind != KindCritical {
		return Critical{}, fmt.Errorf("%w: kind %d, want critical", ErrCorrupt, kind)
	}
	file, rest, ok := takeString(payload)
	if !ok || (len(rest) != 8*2+1 && len(rest) != 8*2+legacyBenefitLen+1) {
		return Critical{}, fmt.Errorf("%w: critical payload shape", ErrCorrupt)
	}
	flag := rest[len(rest)-1]
	c := Critical{
		File:  file,
		Off:   int64(binary.LittleEndian.Uint64(rest)),
		Len:   int64(binary.LittleEndian.Uint64(rest[8:])),
		CFlag: flag != 0,
	}
	if c.Len <= 0 || c.Off < 0 || flag > 1 {
		return Critical{}, fmt.Errorf("%w: critical field range", ErrCorrupt)
	}
	return c, nil
}

// EncodeMeta seals the snapshot header.
func EncodeMeta(m Meta) []byte {
	payload := make([]byte, 0, 8+4+4+8)
	payload = binary.LittleEndian.AppendUint64(payload, m.Epoch)
	payload = binary.LittleEndian.AppendUint32(payload, m.Extents)
	payload = binary.LittleEndian.AppendUint32(payload, m.Criticals)
	payload = binary.LittleEndian.AppendUint64(payload, uint64(m.CapacityBytes))
	return seal(KindMeta, payload)
}

// DecodeMeta unseals and parses the snapshot header.
func DecodeMeta(data []byte) (Meta, error) {
	kind, payload, err := Unseal(data)
	if err != nil {
		return Meta{}, err
	}
	if kind != KindMeta {
		return Meta{}, fmt.Errorf("%w: kind %d, want meta", ErrCorrupt, kind)
	}
	if len(payload) != 8+4+4+8 {
		return Meta{}, fmt.Errorf("%w: meta payload shape", ErrCorrupt)
	}
	return Meta{
		Epoch:         binary.LittleEndian.Uint64(payload),
		Extents:       binary.LittleEndian.Uint32(payload[8:]),
		Criticals:     binary.LittleEndian.Uint32(payload[12:]),
		CapacityBytes: int64(binary.LittleEndian.Uint64(payload[16:])),
	}, nil
}

// FileMapHeader identifies a whole-file DMT baseline record.
type FileMapHeader struct {
	// File is the original file the record maps.
	File string
	// BaseSeq is the highest op-log sequence the record supersedes:
	// replay skips the file's ops numbered at or below it.
	BaseSeq uint64
	// Count is the number of extents in the record.
	Count uint32
}

// fileMapEntryBytes is the encoded size of one baseline extent:
// offset, length and packed payload, 8 bytes each.
const fileMapEntryBytes = 24

// EncodeFileMap seals a whole-file baseline of n extents, read through
// at (offset, length, packed payload per index, ascending offsets).
func EncodeFileMap(file string, baseSeq uint64, n int, at func(i int) (off, length int64, val uint64)) []byte {
	payload := make([]byte, 0, 4+len(file)+8+4+n*fileMapEntryBytes)
	payload = appendString(payload, file)
	payload = binary.LittleEndian.AppendUint64(payload, baseSeq)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(n))
	for i := 0; i < n; i++ {
		off, length, val := at(i)
		payload = binary.LittleEndian.AppendUint64(payload, uint64(off))
		payload = binary.LittleEndian.AppendUint64(payload, uint64(length))
		payload = binary.LittleEndian.AppendUint64(payload, val)
	}
	return seal(KindFileMap, payload)
}

// DecodeFileMap unseals a baseline record and streams its extents
// through fn in stored (ascending-offset) order.
func DecodeFileMap(data []byte, fn func(off, length int64, val uint64)) (FileMapHeader, error) {
	h, rest, err := unsealFileMap(data)
	if err != nil {
		return h, err
	}
	prevEnd := int64(-1)
	for i := uint32(0); i < h.Count; i++ {
		off := int64(binary.LittleEndian.Uint64(rest))
		length := int64(binary.LittleEndian.Uint64(rest[8:]))
		val := binary.LittleEndian.Uint64(rest[16:])
		rest = rest[fileMapEntryBytes:]
		if length <= 0 || off < 0 || off < prevEnd {
			return h, fmt.Errorf("%w: file-map extent order", ErrCorrupt)
		}
		prevEnd = off + length
		fn(off, length, val)
	}
	return h, nil
}

func unsealFileMap(data []byte) (FileMapHeader, []byte, error) {
	kind, payload, err := Unseal(data)
	if err != nil {
		return FileMapHeader{}, nil, err
	}
	if kind != KindFileMap {
		return FileMapHeader{}, nil, fmt.Errorf("%w: kind %d, want file-map", ErrCorrupt, kind)
	}
	file, rest, ok := takeString(payload)
	if !ok || len(rest) < 8+4 {
		return FileMapHeader{}, nil, fmt.Errorf("%w: file-map payload shape", ErrCorrupt)
	}
	h := FileMapHeader{
		File:    file,
		BaseSeq: binary.LittleEndian.Uint64(rest),
		Count:   binary.LittleEndian.Uint32(rest[8:]),
	}
	rest = rest[12:]
	if len(rest) != int(h.Count)*fileMapEntryBytes {
		return FileMapHeader{}, nil, fmt.Errorf("%w: file-map extent count", ErrCorrupt)
	}
	return h, rest, nil
}
