package extent

import "testing"

// FuzzExtentInsert applies an arbitrary Insert/Delete sequence to a Map
// and to a Slab segment and, after every op, checks both against a naive
// byte-granular reference model: the same entries with the same offsets,
// lengths and split payloads, and the same bounded gap walk.
//
// Each op is four input bytes: kind, offset, length, argument. Kind 0
// inserts, 1 deletes, 2 re-inserts an existing entry's exact range (the
// argument picks the entry), so overlapping, splitting and exact-replace
// inserts all occur.
func FuzzExtentInsert(f *testing.F) {
	f.Add([]byte{0, 10, 20, 0, 0, 15, 5, 1, 1, 12, 2, 0, 2, 0, 0, 1})
	f.Add([]byte{0, 0, 63, 0, 0, 100, 63, 0, 0, 20, 3, 0, 2, 0, 0, 2, 1, 0, 255, 0})
	f.Add([]byte{0, 40, 10, 0, 0, 50, 10, 0, 0, 45, 10, 0, 2, 0, 0, 1, 0, 30, 40, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const space = 256 + 64
		m := New[uint64](posSplit)
		s := NewSlab()
		var g Seg
		// Reference: per byte, the op that last wrote it (0 = uncovered)
		// and the payload that byte carries.
		var id [space]int
		var val [space]uint64
		var scratch []Entry[uint64]
		for op := 1; len(data) >= 4; op++ {
			kind, off, length, arg := data[0]%3, int64(data[1]), int64(data[2]%64)+1, data[3]
			data = data[4:]
			if kind == 2 {
				scratch = m.AppendEntries(scratch[:0])
				if len(scratch) == 0 {
					continue
				}
				e := scratch[int(arg)%len(scratch)]
				off, length = e.Off, e.Len
			}
			if kind == 1 {
				m.Delete(off, length)
				s.Delete(&g, off, length, posSplit)
				for x := off; x < off+length; x++ {
					id[x] = 0
				}
			} else {
				base := uint64(op) << 20
				m.Insert(off, length, base)
				s.Insert(&g, off, length, base, posSplit)
				for x := off; x < off+length; x++ {
					id[x], val[x] = op, base+uint64(x-off)
				}
			}

			// Entries are the maximal runs of bytes written by one op.
			var want []Entry[uint64]
			for x := int64(0); x < space; x++ {
				if id[x] == 0 {
					continue
				}
				if x > 0 && id[x-1] == id[x] {
					want[len(want)-1].Len++
					continue
				}
				want = append(want, Entry[uint64]{Off: x, Len: 1, Val: val[x]})
			}
			got := m.AppendEntries(scratch[:0])
			if len(got) != len(want) {
				t.Fatalf("op %d: map has %d entries, model %d: %v vs %v", op, len(got), len(want), got, want)
			}
			offs, lens, vals := s.View(g)
			if len(offs) != len(want) {
				t.Fatalf("op %d: slab has %d entries, model %d", op, len(offs), len(want))
			}
			for i, w := range want {
				if got[i] != w {
					t.Fatalf("op %d: map entry %d is %+v, model %+v", op, i, got[i], w)
				}
				if offs[i] != w.Off || int64(lens[i]) != w.Len || vals[i] != w.Val {
					t.Fatalf("op %d: slab entry %d is (%d,%d,%d), model %+v", op, i, offs[i], lens[i], vals[i], w)
				}
			}
			scratch = got

			// The bounded gap walk returns the model's gaps up to the one
			// that brings their total to need.
			var gaps []Gap
			for x := int64(0); x < space; x++ {
				if id[x] != 0 {
					continue
				}
				if n := len(gaps); n > 0 && gaps[n-1].Off+gaps[n-1].Len == x {
					gaps[n-1].Len++
				} else {
					gaps = append(gaps, Gap{Off: x, Len: 1})
				}
			}
			need := int64(arg) + 1
			var wantGaps []Gap
			for left := need; left > 0 && len(wantGaps) < len(gaps); {
				wantGaps = append(wantGaps, gaps[len(wantGaps)])
				left -= wantGaps[len(wantGaps)-1].Len
			}
			gotGaps := m.AppendGapsUpTo(nil, 0, space, need)
			if len(gotGaps) != len(wantGaps) {
				t.Fatalf("op %d: need %d: gaps %v, model %v", op, need, gotGaps, wantGaps)
			}
			for i := range wantGaps {
				if gotGaps[i] != wantGaps[i] {
					t.Fatalf("op %d: need %d: gaps %v, model %v", op, need, gotGaps, wantGaps)
				}
			}
		}
	})
}
