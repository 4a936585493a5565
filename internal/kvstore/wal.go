package kvstore

import (
	"encoding/binary"
	"hash/crc32"
)

// WAL record format (little-endian):
//
//	[1B op] [4B keyLen] [key] [4B valLen] [val] [4B crc32c of the above]
//
// A torn tail (partial record or bad CRC) terminates replay without error:
// everything before it is applied, mirroring a redo log recovering from a
// power failure (the paper requires DMT changes to "survive power
// failures", §III.D).

// crcTable is the CRC-32C (Castagnoli) polynomial, chosen over IEEE for its
// better burst-error detection; it guards every WAL record and the snapshot
// frame so torn writes and bit rot are detected rather than replayed.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

const (
	opPut byte = 1
	opDel byte = 2
	// opBatch frames an atomic group: its value is a concatenation of
	// sub-records applied together on replay.
	opBatch byte = 3
)

// recordSize returns the encoded length of one record.
func recordSize(key string, val []byte) int {
	return 1 + 4 + len(key) + 4 + len(val) + 4
}

// appendRecord appends one encoded record to dst and returns the extended
// slice. It allocates only when dst lacks capacity, so callers on the
// commit hot path can reuse a scratch buffer across records.
func appendRecord(dst []byte, op byte, key string, val []byte) []byte {
	start := len(dst)
	dst = append(dst, op)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(key)))
	dst = append(dst, key...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(val)))
	dst = append(dst, val...)
	crc := crc32.Checksum(dst[start:], crcTable)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

func encodeRecord(op byte, key string, val []byte) []byte {
	return appendRecord(make([]byte, 0, recordSize(key, val)), op, key, val)
}

// decodeRecord parses one record at the front of data. It returns the
// consumed byte count, or ok=false if the data is truncated or corrupt.
func decodeRecord(data []byte) (op byte, key string, val []byte, n int, ok bool) {
	if len(data) < 1+4 {
		return 0, "", nil, 0, false
	}
	op = data[0]
	if op != opPut && op != opDel && op != opBatch {
		return 0, "", nil, 0, false
	}
	pos := 1
	keyLen := int(binary.LittleEndian.Uint32(data[pos:]))
	pos += 4
	if keyLen < 0 || len(data) < pos+keyLen+4 {
		return 0, "", nil, 0, false
	}
	key = string(data[pos : pos+keyLen])
	pos += keyLen
	valLen := int(binary.LittleEndian.Uint32(data[pos:]))
	pos += 4
	if valLen < 0 || len(data) < pos+valLen+4 {
		return 0, "", nil, 0, false
	}
	val = append([]byte(nil), data[pos:pos+valLen]...)
	pos += valLen
	wantCRC := binary.LittleEndian.Uint32(data[pos:])
	if crc32.Checksum(data[:pos], crcTable) != wantCRC {
		return 0, "", nil, 0, false
	}
	pos += 4
	return op, key, val, pos, true
}

// maxBatchDepth bounds opBatch nesting during replay. The writer only ever
// frames put/del records inside a batch (depth 1), so anything deeper is a
// corrupt or adversarial log; the cap keeps replay from recursing down an
// unbounded chain of nested batch frames.
const maxBatchDepth = 8

// replay applies every intact record in data to apply, stopping silently at
// the first torn or corrupt record. Batch records are unpacked and their
// sub-records applied (the batch CRC already guaranteed integrity). It
// returns the number of applied leaf records.
func replay(data []byte, apply func(op byte, key string, val []byte)) int {
	count, _ := replayConsumed(data, apply)
	return count
}

// replayConsumed is replay plus the byte offset of the first torn or corrupt
// top-level record — everything past consumed is garbage the log's owner may
// truncate away so that later appends start on a record boundary.
func replayConsumed(data []byte, apply func(op byte, key string, val []byte)) (count, consumed int) {
	for len(data) > 0 {
		op, key, val, n, ok := decodeRecord(data)
		if !ok {
			break
		}
		if op == opBatch {
			count += replayDepth(val, apply, 1)
		} else {
			apply(op, key, val)
			count++
		}
		consumed += n
		data = data[n:]
	}
	return count, consumed
}

func replayDepth(data []byte, apply func(op byte, key string, val []byte), depth int) int {
	count := 0
	for len(data) > 0 {
		op, key, val, n, ok := decodeRecord(data)
		if !ok {
			break
		}
		if op == opBatch {
			if depth >= maxBatchDepth {
				// Deeper nesting than the writer can produce: treat it like a
				// corrupt record and stop replaying this frame.
				break
			}
			count += replayDepth(val, apply, depth+1)
		} else {
			apply(op, key, val)
			count++
		}
		data = data[n:]
	}
	return count
}

// Snapshot frame: [8B magic] [record stream] [4B crc32c of magic+stream].
// The whole-file checksum catches damage anywhere in the snapshot — a torn
// rename, a flipped bit in a key that an individual record CRC would only
// catch at that record, truncation — and lets Open quarantine the entire
// snapshot rather than trust a prefix of it. An image without the magic
// is damaged like any other.
var snapMagic = []byte("S4DSNAP\x01")

const snapFrameOverhead = 12 // 8B magic + 4B trailer CRC

// appendSnapshotCRC seals a snapshot buffer that already starts with
// snapMagic by appending the whole-frame checksum.
func appendSnapshotCRC(snap []byte) []byte {
	return binary.LittleEndian.AppendUint32(snap, crc32.Checksum(snap, crcTable))
}

// openSnapshot validates a snapshot file image. It returns the record
// stream payload and ok=true when the frame checks out or there is no
// snapshot yet (an empty image); ok=false when the image is damaged —
// the caller must quarantine the whole file.
func openSnapshot(data []byte) (payload []byte, ok bool) {
	if len(data) == 0 {
		return nil, true
	}
	if len(data) < snapFrameOverhead || string(data[:len(snapMagic)]) != string(snapMagic) {
		return nil, false
	}
	body := data[: len(data)-4 : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, crcTable) != want {
		return nil, false
	}
	return body[len(snapMagic):], true
}
