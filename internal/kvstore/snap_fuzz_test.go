package kvstore

import (
	"bytes"
	"testing"
)

// FuzzSnapshot checks the snapshot frame's integrity contract on arbitrary
// input: openSnapshot never panics, and a framed image with any byte
// changed, the magic included, is rejected wholesale (ok=false), so Open
// quarantines it. The unframed record-stream seed exercises the rejection
// of an image without the magic.
func FuzzSnapshot(f *testing.F) {
	base, _ := fuzzBaseLog()
	framed := appendSnapshotCRC(append(append([]byte(nil), snapMagic...), base...))
	f.Add([]byte{}, uint16(0), byte(0))
	f.Add(append([]byte(nil), snapMagic...), uint16(0), byte(0))
	f.Add(append([]byte(nil), framed...), uint16(0), byte(1))
	f.Add(append([]byte(nil), framed...), uint16(3), byte(0x80)) // damage inside the magic
	f.Add(append([]byte(nil), framed...), uint16(uint16(len(framed)-1)), byte(0x40))
	f.Add(append([]byte(nil), base...), uint16(5), byte(0)) // unframed record stream
	f.Fuzz(func(t *testing.T, data []byte, pos uint16, xor byte) {
		collect := func(data []byte) []fuzzRec {
			var out []fuzzRec
			replay(data, func(op byte, key string, val []byte) {
				out = append(out, fuzzRec{op, key, string(val)})
			})
			return out
		}

		// Arbitrary bytes: clean termination, coherent result. A verified
		// frame must round-trip its payload through replay without panic.
		if payload, ok := openSnapshot(data); ok {
			collect(payload)
		}

		// A well-formed frame opens, and one damaged byte never slips
		// through: it fails the magic check or the frame CRC.
		base, _ := fuzzBaseLog()
		framed := appendSnapshotCRC(append(append([]byte(nil), snapMagic...), base...))
		if payload, ok := openSnapshot(framed); !ok || !bytes.Equal(payload, base) {
			t.Fatalf("pristine frame rejected: ok=%t", ok)
		}
		if xor == 0 {
			return
		}
		corrupt := append([]byte(nil), framed...)
		corrupt[int(pos)%len(corrupt)] ^= xor
		if _, ok := openSnapshot(corrupt); ok {
			t.Fatalf("damaged frame (byte %d xor %#x) passed verification", int(pos)%len(framed), xor)
		}
	})
}

// TestSnapshotMagicDamageQuarantines pins the wholesale-quarantine path:
// a framed store snapshot whose magic bytes are damaged is not trusted as
// a bare record stream — Open quarantines it and comes up empty rather
// than replaying a torn prefix.
func TestSnapshotMagicDamageQuarantines(t *testing.T) {
	be := NewMemBackend()
	s, err := Open(be, "q", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		if err := s.Put(k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	snap, err := be.ReadAll("q.snap")
	if err != nil || len(snap) == 0 {
		t.Fatalf("no snapshot written: %v", err)
	}
	snap[0] ^= 0xff // destroy the magic, leave the payload plausible
	if err := be.Replace("q.snap", snap); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(be, "q", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Stats().SnapQuarantined {
		t.Fatal("magic-damaged snapshot was not quarantined")
	}
	for _, k := range []string{"a", "b", "c"} {
		if _, ok := s2.Get(k); ok {
			t.Fatalf("key %q served from a quarantined snapshot", k)
		}
	}
}
