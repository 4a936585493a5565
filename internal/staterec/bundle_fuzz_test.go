package staterec

import (
	"bytes"
	"testing"
	"time"
)

// fuzzBundle builds a pristine residency bundle of n records.
func fuzzBundle(n int) ([]byte, []Extent) {
	exts := make([]Extent, n)
	for i := range exts {
		exts[i] = Extent{File: "fz", Off: int64(i) * 8192, Len: 4096 + int64(i), CacheOff: int64(i) << 20, Dirty: i%2 == 1}
	}
	b := AppendBundleHeader(nil, BundleHeader{Ord: uint64(n) << 32, Count: uint32(n)})
	for _, e := range exts {
		b = AppendBundleExtent(b, e)
	}
	return b, exts
}

// legacyCritBundle builds a CDT bundle of n records in the layout written
// before the per-range benefit was dropped, which DecodeCritical rejects.
func legacyCritBundle(n int) []byte {
	b := AppendBundleHeader(nil, BundleHeader{Ord: 1, Count: uint32(n)})
	for i := 0; i < n; i++ {
		at := len(b)
		c := Critical{File: "fz", Off: int64(i) * 8192, Len: 4096, CFlag: i%2 == 0}
		b = closeFrame(appendLegacyCritical(append(b, 0, 0, 0, 0), c, time.Duration(i+1)*time.Microsecond), at)
	}
	return b
}

// FuzzSnapshotBundle checks the bundle decoder's contract on bytes read
// back from disk: WalkBundle never panics and hands out only in-bounds
// frames whatever the input; a pristine bundle round-trips exactly; and
// one damaged byte is always visible — a record fails its seal, the
// header fails, or the framing tears — while every record that still
// verifies is one that was written.
func FuzzSnapshotBundle(f *testing.F) {
	pristine, _ := fuzzBundle(3)
	f.Add([]byte{}, uint8(0), uint16(0), byte(0))
	f.Add(append([]byte(nil), pristine...), uint8(3), uint16(0), byte(1))
	f.Add(append([]byte(nil), pristine...), uint8(3), uint16(bundleHeaderBytes+6), byte(0x80))
	f.Add(pristine[:len(pristine)-3], uint8(5), uint16(2), byte(0xff))
	f.Add(legacyCritBundle(3), uint8(3), uint16(0), byte(0))
	f.Fuzz(func(t *testing.T, data []byte, n uint8, pos uint16, xor byte) {
		// Arbitrary bytes: clean termination and coherent accounting.
		frames := 0
		sc := WalkBundle(data, func(rec []byte) {
			frames++
			_, _ = DecodeExtent(rec)
			_, _ = DecodeCritical(rec)
		})
		records, lost := sc.Accounting()
		if frames != sc.Frames || records < sc.Frames || lost < 0 {
			t.Fatalf("incoherent scan %+v: %d callbacks, accounting %d/%d", sc, frames, records, lost)
		}

		bundle, want := fuzzBundle(int(n % 8))
		var got []Extent
		sc = WalkBundle(bundle, func(rec []byte) {
			e, err := DecodeExtent(rec)
			if err != nil {
				t.Fatalf("pristine record rejected: %v", err)
			}
			got = append(got, e)
		})
		if !sc.HeaderOK || sc.Torn || int(sc.Header.Count) != len(want) || len(got) != len(want) {
			t.Fatalf("pristine bundle scanned as %+v with %d records, want %d", sc, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("record %d: %+v, want %+v", i, got[i], want[i])
			}
		}
		if xor == 0 {
			return
		}

		damaged := bytes.Clone(bundle)
		damaged[int(pos)%len(damaged)] ^= xor
		valid, bad := 0, 0
		sc = WalkBundle(damaged, func(rec []byte) {
			e, err := DecodeExtent(rec)
			if err != nil {
				bad++
				return
			}
			for _, w := range want {
				if e == w {
					valid++
					return
				}
			}
			t.Fatalf("damaged bundle yielded a record never written: %+v", e)
		})
		if sc.HeaderOK && !sc.Torn && bad == 0 && valid == len(want) && int(sc.Header.Count) == valid {
			t.Fatalf("damage at %d (^%#x) went unnoticed", int(pos)%len(damaged), xor)
		}
	})
}
