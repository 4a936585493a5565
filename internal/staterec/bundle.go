package staterec

import (
	"encoding/binary"
	"hash/crc32"
)

// Snapshot bundles. The warm-restart snapshot stores one value per file
// and record kind: a length-framed run of that file's individually sealed
// Extent or Critical records behind a sealed header,
//
//	bundle = frame(header) frame(record) ... frame(record)
//	frame  = u32 little-endian length || bytes
//	header = seal(KindBundle, ord u64 || count u32)
//
// Every record keeps its own seal, so one damaged record quarantines
// alone; the header's count exposes a bundle cut short, so its missing
// tail is counted rather than mistaken for the whole.

// BundleHeader is a bundle's sealed header.
type BundleHeader struct {
	// Ord orders bundles on read-back: the writer's table order for the
	// file, so records come back in the order the table dumped them.
	Ord uint64
	// Count is the number of records framed behind the header.
	Count uint32
}

// bundleHeaderBytes is the sealed header's size: kind, ord, count, CRC.
const bundleHeaderBytes = 1 + 8 + 4 + 4

// AppendBundleHeader starts a bundle in dst with its framed header.
func AppendBundleHeader(dst []byte, h BundleHeader) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, bundleHeaderBytes)
	start := len(dst)
	dst = append(dst, KindBundle)
	dst = binary.LittleEndian.AppendUint64(dst, h.Ord)
	dst = binary.LittleEndian.AppendUint32(dst, h.Count)
	return closeSeal(dst, start)
}

// AppendBundleExtent appends one framed residency record to a bundle.
func AppendBundleExtent(dst []byte, e Extent) []byte {
	at := len(dst)
	return closeFrame(AppendExtent(append(dst, 0, 0, 0, 0), e), at)
}

// AppendBundleCritical appends one framed CDT record to a bundle.
func AppendBundleCritical(dst []byte, c Critical) []byte {
	at := len(dst)
	return closeFrame(AppendCritical(append(dst, 0, 0, 0, 0), c), at)
}

// closeFrame fills in the length prefix reserved at dst[at:at+4].
func closeFrame(dst []byte, at int) []byte {
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

// BundleScan is what WalkBundle found in one bundle.
type BundleScan struct {
	// Header is valid when HeaderOK: the first frame passed its seal.
	Header   BundleHeader
	HeaderOK bool
	// Frames counts the inner records handed to the walk's callback.
	Frames int
	// Torn reports trailing bytes that do not form a whole frame: the
	// bundle was cut short, or a frame length was damaged.
	Torn bool
}

// WalkBundle splits a bundle into frames and hands each inner record —
// still sealed, for the caller to decode and quarantine on its own — to
// fn, in stored order. It never fails: damage is reported in the scan.
func WalkBundle(data []byte, fn func(rec []byte)) BundleScan {
	var sc BundleScan
	for first := true; len(data) > 0; first = false {
		if len(data) < 4 {
			sc.Torn = true
			break
		}
		n := binary.LittleEndian.Uint32(data)
		if uint64(n) > uint64(len(data)-4) {
			sc.Torn = true
			break
		}
		rec := data[4 : 4+n : 4+n]
		data = data[4+n:]
		if first {
			sc.Header, sc.HeaderOK = decodeBundleHeader(rec)
			continue
		}
		sc.Frames++
		fn(rec)
	}
	return sc
}

// Accounting returns how many image records the bundle stands for and
// how many of those it lost without handing them to the walk: with a
// sound header, the records its count promised beyond those framed;
// without one, the damaged header itself plus one for a torn tail (how
// many records a torn tail held is then unknowable — the snapshot meta
// counts surface the rest).
func (sc BundleScan) Accounting() (records, lost int) {
	if sc.HeaderOK {
		if missing := int(sc.Header.Count) - sc.Frames; missing > 0 {
			return sc.Frames + missing, missing
		}
		return sc.Frames, 0
	}
	if sc.Torn {
		return sc.Frames + 1, 2
	}
	return sc.Frames, 1
}

func decodeBundleHeader(rec []byte) (BundleHeader, bool) {
	if len(rec) != bundleHeaderBytes {
		return BundleHeader{}, false
	}
	body := rec[:bundleHeaderBytes-4]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(rec[bundleHeaderBytes-4:]) || body[0] != KindBundle {
		return BundleHeader{}, false
	}
	return BundleHeader{
		Ord:   binary.LittleEndian.Uint64(body[1:]),
		Count: binary.LittleEndian.Uint32(body[9:]),
	}, true
}
