package cachespace

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// newSpace returns a one-region space of the given capacity running the
// named policy ("" is clean-first LRU).
func newSpace(t testing.TB, capacity int64, policy string) *Sharded {
	t.Helper()
	s, err := NewSharded(capacity, 1, policy)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// alloc allocates in region 0 into a fresh fragment slice.
func alloc(s *Sharded, size int64, owner Owner, dirty bool) ([]Fragment, error) {
	return s.Allocate(nil, 0, size, owner, dirty)
}

// victim is one eviction reported through the hook.
type victim struct {
	Owner    Owner
	CacheOff int64
	Len      int64
}

// recordVictims installs an eviction hook that allows every eviction and
// records it, in victim order.
func recordVictims(s *Sharded) *[]victim {
	var out []victim
	s.SetEvictHook(func(owner Owner, cacheOff, length int64) bool {
		out = append(out, victim{owner, cacheOff, length})
		return true
	})
	return &out
}

func TestNewValidation(t *testing.T) {
	if _, err := NewSharded(0, 1, ""); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := NewSharded(-5, 1, ""); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if _, err := NewSharded(3, 4, ""); err == nil {
		t.Fatal("capacity below one byte per region accepted")
	}
	if _, err := NewSharded(1000, 1, "no-such-policy"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	s := newSpace(t, 1000, PolicyS3FIFO)
	if err := s.SetPolicy("no-such-policy"); err == nil {
		t.Fatal("SetPolicy accepted an unknown policy")
	}
	if got := s.Stats().Policy; got != PolicyS3FIFO {
		t.Fatalf("policy after rejected swap = %q, want %q", got, PolicyS3FIFO)
	}
}

func TestAllocateFromFree(t *testing.T) {
	s := newSpace(t, 1000, "")
	victims := recordVictims(s)
	frags, err := alloc(s, 300, Owner{File: "f", FileOff: 0}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(*victims) != 0 {
		t.Fatalf("evicted %v on empty cache", *victims)
	}
	if len(frags) != 1 || frags[0].CacheOff != 0 || frags[0].Len != 300 {
		t.Fatalf("frags = %+v", frags)
	}
	if st := s.Stats(); st.FreeBytes != 700 || st.UsedBytes != 300 || st.DirtyBytes != 300 {
		t.Fatalf("accounting: free=%d used=%d dirty=%d", st.FreeBytes, st.UsedBytes, st.DirtyBytes)
	}
}

func TestAllocateRejectsDegenerateSize(t *testing.T) {
	s := newSpace(t, 1000, "")
	if _, err := alloc(s, 0, Owner{}, false); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := alloc(s, -1, Owner{}, false); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestAllocateNoSpaceWhenAllDirty(t *testing.T) {
	s := newSpace(t, 1000, "")
	if _, err := alloc(s, 1000, Owner{File: "f"}, true); err != nil {
		t.Fatal(err)
	}
	_, err := alloc(s, 1, Owner{File: "g"}, true)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace (dirty space must not be reclaimed)", err)
	}
	if got := s.Stats().Failures; got != 1 {
		t.Fatalf("Failures = %d, want 1", got)
	}
}

func TestAllocateReclaimsCleanLRU(t *testing.T) {
	s := newSpace(t, 300, "")
	victims := recordVictims(s)
	// Three clean allocations, touched in order a, b, c (c most recent).
	for i, name := range []string{"a", "b", "c"} {
		if _, err := alloc(s, 100, Owner{File: name, FileOff: int64(i) * 1000}, false); err != nil {
			t.Fatal(err)
		}
	}
	// Re-touch "a" so "b" becomes the LRU victim.
	s.Touch(0, 100)
	frags, err := alloc(s, 100, Owner{File: "d"}, true)
	if err != nil {
		t.Fatal(err)
	}
	want := []victim{{Owner{File: "b", FileOff: 1000}, 100, 100}}
	if len(*victims) != 1 || (*victims)[0] != want[0] {
		t.Fatalf("evicted = %+v, want %+v (file b, LRU)", *victims, want)
	}
	if len(frags) != 1 || frags[0].Len != 100 || frags[0].CacheOff != 100 {
		t.Fatalf("frags = %+v", frags)
	}
	if got := s.Stats().Evictions; got != 1 {
		t.Fatalf("Evictions = %d", got)
	}
	// Reclaiming both remaining clean units evicts them oldest first: c
	// (never touched since allocation), then the re-touched a.
	*victims = nil
	if _, err := alloc(s, 200, Owner{File: "e"}, true); err != nil {
		t.Fatal(err)
	}
	want = []victim{{Owner{File: "c", FileOff: 2000}, 200, 100}, {Owner{File: "a", FileOff: 0}, 0, 100}}
	if len(*victims) != 2 || (*victims)[0] != want[0] || (*victims)[1] != want[1] {
		t.Fatalf("evicted = %+v, want %+v (LRU order)", *victims, want)
	}
}

func TestPartialEviction(t *testing.T) {
	s := newSpace(t, 200, "")
	victims := recordVictims(s)
	if _, err := alloc(s, 200, Owner{File: "a", FileOff: 1000}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := alloc(s, 50, Owner{File: "b"}, true); err != nil {
		t.Fatal(err)
	}
	want := victim{Owner{File: "a", FileOff: 1000}, 0, 50}
	if len(*victims) != 1 || (*victims)[0] != want {
		t.Fatalf("evicted = %+v, want the 50-byte head of a %+v", *victims, want)
	}
	if st := s.Stats(); st.UsedBytes != 200 || st.DirtyBytes != 50 {
		t.Fatalf("used=%d dirty=%d", st.UsedBytes, st.DirtyBytes)
	}
}

// TestEvictionVeto checks a hook that refuses an eviction: the fragment
// stays allocated and clean, the allocation fails without counting an
// eviction, and once the hook allows it a later allocation evicts it.
func TestEvictionVeto(t *testing.T) {
	s := newSpace(t, 100, "")
	if _, err := alloc(s, 100, Owner{File: "a", FileOff: 500}, false); err != nil {
		t.Fatal(err)
	}
	allow := false
	var calls []victim
	s.SetEvictHook(func(owner Owner, cacheOff, length int64) bool {
		calls = append(calls, victim{owner, cacheOff, length})
		return allow
	})
	if _, err := alloc(s, 40, Owner{File: "b"}, true); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("vetoed eviction: err = %v, want ErrNoSpace", err)
	}
	if len(calls) != 1 || calls[0] != (victim{Owner{File: "a", FileOff: 500}, 0, 40}) {
		t.Fatalf("hook calls = %+v, want one for a's 40-byte head", calls)
	}
	st := s.Stats()
	if st.Evictions != 0 || st.UsedBytes != 100 || st.CleanBytes != 100 || st.Failures != 1 {
		t.Fatalf("after veto: evictions=%d used=%d clean=%d failures=%d, want 0/100/100/1",
			st.Evictions, st.UsedBytes, st.CleanBytes, st.Failures)
	}
	var walked []victim
	s.Walk(func(off, length int64, owner Owner, dirty bool) bool {
		if dirty {
			t.Fatalf("vetoed fragment [%d,+%d) turned dirty", off, length)
		}
		walked = append(walked, victim{owner, off, length})
		return true
	})
	if len(walked) != 1 || walked[0] != (victim{Owner{File: "a", FileOff: 500}, 0, 100}) {
		t.Fatalf("resident after veto = %+v, want a whole", walked)
	}
	allow = true
	calls = nil
	frags, err := alloc(s, 40, Owner{File: "b"}, true)
	if err != nil {
		t.Fatalf("allocation after the hook allows: %v", err)
	}
	if len(calls) != 1 || calls[0] != (victim{Owner{File: "a", FileOff: 500}, 0, 40}) {
		t.Fatalf("hook calls = %+v, want one for a's 40-byte head", calls)
	}
	if len(frags) != 1 || frags[0] != (Fragment{CacheOff: 0, Len: 40}) {
		t.Fatalf("frags = %+v, want the evicted head", frags)
	}
	if got := s.Stats().Evictions; got != 1 {
		t.Fatalf("Evictions = %d, want 1", got)
	}
}

func TestScatteredAllocation(t *testing.T) {
	s := newSpace(t, 300, "")
	if _, err := alloc(s, 100, Owner{File: "keep1"}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := alloc(s, 100, Owner{File: "gap"}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := alloc(s, 100, Owner{File: "keep2"}, true); err != nil {
		t.Fatal(err)
	}
	// Free the middle: hole at [100, 200).
	s.FreeRange(100, 100)
	if got := s.Stats().FreeBytes; got != 100 {
		t.Fatalf("FreeBytes = %d", got)
	}
	// A 100-byte allocation fits the hole exactly.
	frags, err := alloc(s, 100, Owner{File: "fill", FileOff: 500}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 1 || frags[0].CacheOff != 100 {
		t.Fatalf("frags = %+v, want hole reuse at 100", frags)
	}
}

func TestScatteredFragmentsCarrySplitOwners(t *testing.T) {
	s := newSpace(t, 300, "")
	// Occupy [0,100) and [150,200), leaving holes [100,150) and [200,300).
	if _, err := alloc(s, 100, Owner{File: "x"}, true); err != nil {
		t.Fatal(err)
	}
	frags, err := alloc(s, 100, Owner{File: "y"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 1 {
		t.Fatal("setup failed")
	}
	s.FreeRange(100, 50) // hole [100,150)
	frags, err = alloc(s, 120, Owner{File: "z", FileOff: 7000}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 2 {
		t.Fatalf("frags = %+v, want 2 scattered fragments", frags)
	}
	if frags[0].CacheOff != 100 || frags[0].Len != 50 {
		t.Fatalf("first fragment = %+v", frags[0])
	}
	if frags[1].CacheOff != 200 || frags[1].Len != 70 {
		t.Fatalf("second fragment = %+v", frags[1])
	}
	// Verify owners: second fragment caches FileOff 7050.
	var owners []Owner
	s.Walk(func(off, l int64, o Owner, dirty bool) bool {
		if o.File == "z" {
			owners = append(owners, o)
		}
		return true
	})
	if len(owners) != 2 || owners[0].FileOff != 7000 || owners[1].FileOff != 7050 {
		t.Fatalf("owners = %+v", owners)
	}
}

func TestMarkCleanEnablesReclaim(t *testing.T) {
	s := newSpace(t, 100, "")
	if _, err := alloc(s, 100, Owner{File: "a"}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := alloc(s, 50, Owner{File: "b"}, true); !errors.Is(err, ErrNoSpace) {
		t.Fatal("dirty data reclaimed")
	}
	s.MarkClean(0, 100)
	if st := s.Stats(); st.DirtyBytes != 0 || st.CleanBytes != 100 {
		t.Fatalf("dirty=%d clean=%d after MarkClean", st.DirtyBytes, st.CleanBytes)
	}
	if _, err := alloc(s, 50, Owner{File: "b"}, true); err != nil {
		t.Fatalf("clean space not reclaimable: %v", err)
	}
}

func TestMarkDirtyPinsData(t *testing.T) {
	s := newSpace(t, 100, "")
	victims := recordVictims(s)
	if _, err := alloc(s, 100, Owner{File: "a"}, false); err != nil {
		t.Fatal(err)
	}
	s.MarkDirty(0, 40)
	if got := s.Stats().DirtyBytes; got != 40 {
		t.Fatalf("DirtyBytes = %d, want 40", got)
	}
	// Only 60 clean bytes remain reclaimable.
	if _, err := alloc(s, 61, Owner{File: "b"}, true); !errors.Is(err, ErrNoSpace) {
		t.Fatal("allocated more than clean space")
	}
	if _, err := alloc(s, 60, Owner{File: "b"}, true); err != nil || len(*victims) == 0 {
		t.Fatalf("60-byte allocation failed: %v", err)
	}
	for _, v := range *victims {
		if v.CacheOff < 40 {
			t.Fatalf("dirty space evicted: %+v", v)
		}
	}
}

func TestMarkCleanPartialRange(t *testing.T) {
	s := newSpace(t, 100, "")
	if _, err := alloc(s, 100, Owner{File: "a", FileOff: 300}, true); err != nil {
		t.Fatal(err)
	}
	s.MarkClean(20, 30)
	if st := s.Stats(); st.DirtyBytes != 70 || st.CleanBytes != 30 {
		t.Fatalf("dirty=%d clean=%d", st.DirtyBytes, st.CleanBytes)
	}
	// The clean window's owner FileOff must be advanced (300+20).
	found := false
	s.Walk(func(off, l int64, o Owner, dirty bool) bool {
		if !dirty {
			found = true
			if off != 20 || l != 30 || o.FileOff != 320 {
				t.Fatalf("clean window = off %d len %d owner %+v", off, l, o)
			}
		}
		return true
	})
	if !found {
		t.Fatal("no clean window found")
	}
}

func TestIdempotentMarks(t *testing.T) {
	s := newSpace(t, 100, "")
	if _, err := alloc(s, 100, Owner{File: "a"}, true); err != nil {
		t.Fatal(err)
	}
	s.MarkDirty(0, 100) // already dirty
	if got := s.Stats().DirtyBytes; got != 100 {
		t.Fatalf("double MarkDirty corrupted accounting: %d", got)
	}
	s.MarkClean(0, 100)
	s.MarkClean(0, 100) // already clean
	if st := s.Stats(); st.DirtyBytes != 0 || st.CleanBytes != 100 {
		t.Fatalf("double MarkClean corrupted accounting: dirty=%d", st.DirtyBytes)
	}
}

func TestFreeRangeNoops(t *testing.T) {
	s := newSpace(t, 100, "")
	s.FreeRange(0, 0)
	s.FreeRange(0, -10)
	s.FreeRange(50, 10) // nothing allocated there
	if s.Stats().UsedBytes != 0 {
		t.Fatal("no-op frees changed accounting")
	}
}

// Property: accounting invariants hold under random operations —
// used = clean + dirty, 0 <= free <= capacity, and allocations never
// overlap (checked via Walk ordering).
func TestAccountingInvariantProperty(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		const capacity = 1000
		s, err := NewSharded(capacity, 1, "")
		if err != nil {
			return false
		}
		ops := int(opsRaw%50) + 1
		for i := 0; i < ops; i++ {
			switch rng.Intn(5) {
			case 0, 1:
				size := rng.Int63n(300) + 1
				_, err := alloc(s, size, Owner{File: "f", FileOff: rng.Int63n(10000)}, rng.Intn(2) == 0)
				if err != nil && !errors.Is(err, ErrNoSpace) {
					return false
				}
			case 2:
				s.MarkClean(rng.Int63n(capacity), rng.Int63n(200)+1)
			case 3:
				s.MarkDirty(rng.Int63n(capacity), rng.Int63n(200)+1)
			case 4:
				s.FreeRange(rng.Int63n(capacity), rng.Int63n(200)+1)
			}
			// Invariants.
			st := s.Stats()
			if st.UsedBytes != st.CleanBytes+st.DirtyBytes || st.CleanBytes < 0 {
				return false
			}
			if st.FreeBytes < 0 || st.FreeBytes > capacity || st.FreeBytes+st.UsedBytes != capacity {
				return false
			}
			// Recompute used from Walk; must match the counter.
			var walked int64
			prevEnd := int64(-1)
			ok := true
			s.Walk(func(off, l int64, o Owner, dirty bool) bool {
				if off < prevEnd || l <= 0 || off+l > capacity {
					ok = false
					return false
				}
				prevEnd = off + l
				walked += l
				return true
			})
			if !ok || walked != st.UsedBytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: an allocation either fails with ErrNoSpace or returns
// fragments summing exactly to the requested size, appended after what
// the caller's buffer already held.
func TestAllocationSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := NewSharded(500, 1, "")
		if err != nil {
			return false
		}
		prefix := []Fragment{{CacheOff: -1, Len: -1}}
		for i := 0; i < 30; i++ {
			size := rng.Int63n(200) + 1
			frags, err := s.Allocate(prefix, 0, size, Owner{File: "f"}, rng.Intn(3) == 0)
			if errors.Is(err, ErrNoSpace) {
				// Free something and continue.
				s.MarkClean(0, 500)
				continue
			}
			if err != nil || frags[0] != prefix[0] {
				return false
			}
			var sum int64
			for _, fr := range frags[1:] {
				sum += fr.Len
			}
			if sum != size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
