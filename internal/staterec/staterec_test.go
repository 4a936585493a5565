package staterec

import (
	"errors"
	"testing"
	"time"
)

func TestExtentRoundtrip(t *testing.T) {
	for _, e := range []Extent{
		{File: "f", Off: 0, Len: 1, CacheOff: 0, Dirty: false},
		{File: "/scratch/ior.out.0", Off: 1 << 40, Len: 1 << 20, CacheOff: 7 << 30, Dirty: true},
		{File: "", Off: 4096, Len: 512, CacheOff: 0, Dirty: false},
	} {
		got, err := DecodeExtent(AppendExtent(nil, e))
		if err != nil {
			t.Fatalf("roundtrip %+v: %v", e, err)
		}
		if got != e {
			t.Fatalf("roundtrip %+v -> %+v", e, got)
		}
	}
}

func TestCriticalRoundtrip(t *testing.T) {
	for _, c := range []Critical{
		{File: "f", Off: 0, Len: 1, CFlag: false, Benefit: 0},
		{File: "hot", Off: 1 << 33, Len: 65536, CFlag: true, Benefit: 950 * time.Microsecond},
	} {
		got, err := DecodeCritical(AppendCritical(nil, c))
		if err != nil {
			t.Fatalf("roundtrip %+v: %v", c, err)
		}
		if got != c {
			t.Fatalf("roundtrip %+v -> %+v", c, got)
		}
	}
}

func TestMetaRoundtrip(t *testing.T) {
	m := Meta{Epoch: 42, Extents: 1000, Criticals: 37, CapacityBytes: 64 << 30}
	got, err := DecodeMeta(EncodeMeta(m))
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("roundtrip %+v -> %+v", m, got)
	}
}

// TestEveryBitFlipDetected is the integrity contract: flipping any single
// bit of a sealed record must yield ErrCorrupt (or a kind mismatch, also
// ErrCorrupt) — CRC32C detects all single-bit errors, so no damaged record
// can decode to a plausible-but-wrong value.
func TestEveryBitFlipDetected(t *testing.T) {
	recs := [][]byte{
		AppendExtent(nil, Extent{File: "victim", Off: 4096, Len: 8192, CacheOff: 1 << 20, Dirty: true}),
		AppendCritical(nil, Critical{File: "victim", Off: 0, Len: 4096, CFlag: true, Benefit: time.Millisecond}),
		EncodeMeta(Meta{Epoch: 7, Extents: 3, Criticals: 1, CapacityBytes: 1 << 30}),
	}
	decoders := []func([]byte) error{
		func(b []byte) error { _, err := DecodeExtent(b); return err },
		func(b []byte) error { _, err := DecodeCritical(b); return err },
		func(b []byte) error { _, err := DecodeMeta(b); return err },
	}
	for ri, rec := range recs {
		for byteIdx := range rec {
			for bit := 0; bit < 8; bit++ {
				mangled := append([]byte(nil), rec...)
				mangled[byteIdx] ^= 1 << bit
				if err := decoders[ri](mangled); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("record %d: flip byte %d bit %d went undetected (err=%v)", ri, byteIdx, bit, err)
				}
			}
		}
	}
}

func TestKindMismatchRejected(t *testing.T) {
	rec := AppendExtent(nil, Extent{File: "f", Off: 0, Len: 1})
	if _, err := DecodeCritical(rec); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("extent decoded as critical: %v", err)
	}
	if _, err := DecodeMeta(rec); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("extent decoded as meta: %v", err)
	}
}

func TestTruncationRejected(t *testing.T) {
	rec := AppendExtent(nil, Extent{File: "some-file", Off: 10, Len: 20, CacheOff: 30})
	for n := 0; n < len(rec); n++ {
		if _, err := DecodeExtent(rec[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes went undetected: %v", n, err)
		}
	}
}

// FuzzUnseal: arbitrary bytes never panic the decoders; a successful decode
// of a mutated valid record is impossible (covered probabilistically here,
// exhaustively by TestEveryBitFlipDetected).
func FuzzUnseal(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendExtent(nil, Extent{File: "seed", Off: 1, Len: 2, CacheOff: 3, Dirty: true}))
	f.Add(AppendCritical(nil, Critical{File: "seed", Off: 1, Len: 2, CFlag: true, Benefit: 3}))
	f.Add(EncodeMeta(Meta{Epoch: 1, Extents: 2, Criticals: 3, CapacityBytes: 4}))
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, payload, err := Unseal(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-ErrCorrupt failure: %v", err)
			}
			return
		}
		if 1+len(payload)+4 != len(data) {
			t.Fatalf("unseal length mismatch: kind %d payload %d of %d", kind, len(payload), len(data))
		}
		// Decoders must not panic on whatever unsealed.
		_, _ = DecodeExtent(data)
		_, _ = DecodeCritical(data)
		_, _ = DecodeMeta(data)
	})
}
