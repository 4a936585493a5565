package cachespace

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"s4dcache/internal/extent"
)

// firstFit is the reference allocator: take size bytes from gaps, lowest
// offset first, splitting only the last gap used.
func firstFit(gaps []extent.Gap, size int64) []Fragment {
	var out []Fragment
	for _, g := range gaps {
		if size <= 0 {
			break
		}
		n := min(g.Len, size)
		out = append(out, Fragment{CacheOff: g.Off, Len: n})
		size -= n
	}
	return out
}

// mergeGaps returns the union of gaps and frags as sorted, coalesced gaps.
func mergeGaps(gaps []extent.Gap, frags []Fragment) []extent.Gap {
	all := append([]extent.Gap(nil), gaps...)
	for _, f := range frags {
		all = append(all, extent.Gap{Off: f.CacheOff, Len: f.Len})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Off < all[j].Off })
	var out []extent.Gap
	for _, g := range all {
		if n := len(out); n > 0 && out[n-1].Off+out[n-1].Len == g.Off {
			out[n-1].Len += g.Len
			continue
		}
		out = append(out, g)
	}
	return out
}

// TestTakeFreeMatchesFullScanFirstFit runs a randomized allocate / free /
// evict / Adopt / MarkClean / MarkDirty / Touch sequence and checks every
// allocation's fragments against a first fit over a full gap scan from
// offset 0 of the map as takeFree saw it (the gaps left afterwards plus
// the fragments it took). After every op, every byte below the low-water
// offset must be allocated.
func TestTakeFreeMatchesFullScanFirstFit(t *testing.T) {
	const capacity = 256 << 10
	for _, policy := range []string{PolicyCleanLRU, PolicyS3FIFO} {
		t.Run(policy, func(t *testing.T) {
			s := newSpace(t, capacity, policy)
			r := &s.regions[0]
			var evictions int
			s.SetEvictHook(func(Owner, int64, int64) bool {
				evictions++
				return true
			})
			rng := rand.New(rand.NewSource(1))
			randRange := func() (int64, int64) {
				off := rng.Int63n(capacity)
				return off, min(1+rng.Int63n(24<<10), capacity-off)
			}
			var allocs, adopts int
			for op := 0; op < 6000; op++ {
				switch k := rng.Intn(10); {
				case k < 4:
					size := 1 + rng.Int63n(20<<10)
					frags, err := alloc(s, size, Owner{File: "f", FileOff: int64(op) << 20}, rng.Intn(3) == 0)
					if err != nil {
						if !errors.Is(err, ErrNoSpace) {
							t.Fatal(err)
						}
						break
					}
					allocs++
					before := mergeGaps(r.used.AppendGaps(nil, 0, capacity), frags)
					want := firstFit(before, size)
					if len(frags) != len(want) {
						t.Fatalf("op %d: takeFree gave %v, full-scan first fit %v", op, frags, want)
					}
					for i := range want {
						if frags[i] != want[i] {
							t.Fatalf("op %d: takeFree gave %v, full-scan first fit %v", op, frags, want)
						}
					}
				case k < 6:
					s.FreeRange(randRange())
				case k == 6:
					s.MarkClean(randRange())
				case k == 7:
					s.MarkDirty(randRange())
				case k == 8:
					s.Touch(randRange())
				default:
					// Adopt a piece of a random gap (a warm-restart
					// re-admission), or collide with resident space.
					gaps := r.used.AppendGaps(nil, 0, capacity)
					if len(gaps) == 0 || rng.Intn(4) == 0 {
						off, n := randRange()
						if err := s.Adopt(off, n, Owner{File: "a", FileOff: off}, false); err == nil {
							adopts++
						}
						break
					}
					g := gaps[rng.Intn(len(gaps))]
					off := g.Off + rng.Int63n(g.Len)
					n := 1 + rng.Int63n(g.Off+g.Len-off)
					if err := s.Adopt(off, n, Owner{File: "a", FileOff: off}, rng.Intn(2) == 0); err != nil {
						t.Fatalf("op %d: adopt of free [%d,+%d): %v", op, off, n, err)
					}
					adopts++
				}
				if gaps := r.used.Gaps(0, capacity); len(gaps) > 0 && gaps[0].Off < r.lowWater {
					t.Fatalf("op %d: free gap %+v starts below low water %d", op, gaps[0], r.lowWater)
				}
			}
			if allocs < 500 || evictions < 100 || adopts < 100 {
				t.Fatalf("sequence too tame: %d allocations, %d evictions, %d adoptions", allocs, evictions, adopts)
			}
		})
	}
}
