package cachespace

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func TestNewPolicyNames(t *testing.T) {
	for _, name := range append(PolicyNames(), "") {
		p, err := newPolicy(name, 1<<20)
		if err != nil {
			t.Fatalf("newPolicy(%q): %v", name, err)
		}
		want := name
		if want == "" {
			want = PolicyCleanLRU
		}
		if p.Name() != want {
			t.Fatalf("newPolicy(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := newPolicy("no-such-policy", 1<<20); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestPolicyAccountingOracle drives every policy through a randomized
// allocate / clean / dirty / touch / free schedule and checks the byte
// accounting plus the reclaim-coverage invariant (free+clean space is
// always fully allocatable) after the run.
func TestPolicyAccountingOracle(t *testing.T) {
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			const capacity = 1 << 16
			s := newSpace(t, capacity, name)
			rng := rand.New(rand.NewSource(7))
			type span struct{ off, n int64 }
			var live []span
			for i := 0; i < 2000; i++ {
				switch rng.Intn(5) {
				case 0, 1: // allocate
					size := int64(rng.Intn(4096) + 1)
					owner := Owner{File: fmt.Sprintf("f%d", rng.Intn(8)), FileOff: int64(rng.Intn(1 << 18))}
					frags, err := alloc(s, size, owner, rng.Intn(2) == 0)
					if err != nil {
						if !errors.Is(err, ErrNoSpace) {
							t.Fatal(err)
						}
						continue
					}
					for _, f := range frags {
						live = append(live, span{f.CacheOff, f.Len})
					}
				case 2: // flush
					if len(live) == 0 {
						continue
					}
					a := live[rng.Intn(len(live))]
					s.MarkClean(a.off, a.n)
				case 3: // re-dirty or touch
					if len(live) == 0 {
						continue
					}
					a := live[rng.Intn(len(live))]
					if rng.Intn(2) == 0 {
						s.MarkDirty(a.off, a.n)
					} else {
						s.Touch(a.off, a.n)
					}
				case 4: // drop
					if len(live) == 0 {
						continue
					}
					i := rng.Intn(len(live))
					a := live[i]
					live = append(live[:i], live[i+1:]...)
					s.FreeRange(a.off, a.n)
				}
				if st := s.Stats(); st.UsedBytes < 0 || st.UsedBytes > capacity || st.DirtyBytes < 0 || st.DirtyBytes > st.UsedBytes {
					t.Fatalf("step %d: accounting out of range: used=%d dirty=%d", i, st.UsedBytes, st.DirtyBytes)
				}
			}
			checkAccountingOracle(t, s, capacity)
			// Coverage invariant: everything that is free or clean must be
			// allocatable in one request (admission gates allowing — flood
			// the incoming range's frequency first so TinyLFU admits it).
			st := s.Stats()
			want := st.FreeBytes + st.CleanBytes
			if want == 0 {
				return
			}
			in := Owner{File: "incoming", FileOff: 0}
			for i := 0; i < 64; i++ {
				s.regions[0].policy.NoteAccess(in, 1)
			}
			if _, err := alloc(s, want, in, true); err != nil {
				t.Fatalf("free+clean=%d not allocatable: %v", want, err)
			}
		})
	}
}

// checkAccountingOracle recomputes used/dirty/clean from a full walk and
// compares them to the space's counters.
func checkAccountingOracle(t *testing.T, s *Sharded, capacity int64) {
	t.Helper()
	var used, dirty int64
	s.Walk(func(_, length int64, _ Owner, d bool) bool {
		used += length
		if d {
			dirty += length
		}
		return true
	})
	st := s.Stats()
	if used != st.UsedBytes || dirty != st.DirtyBytes {
		t.Fatalf("oracle mismatch: walked used=%d dirty=%d, counters used=%d dirty=%d",
			used, dirty, st.UsedBytes, st.DirtyBytes)
	}
	if st.CleanBytes != used-dirty {
		t.Fatalf("clean=%d, want %d", st.CleanBytes, used-dirty)
	}
	if used > capacity {
		t.Fatalf("used=%d beyond capacity %d", used, capacity)
	}
}

// TestTouchHotRangeQueueBounded pins the O(log n) Touch fix: repeated
// touches of the same clean range must update the queued candidate in
// place, not append one stale duplicate per hit.
func TestTouchHotRangeQueueBounded(t *testing.T) {
	s := newSpace(t, 1<<20, "")
	for i := 0; i < 16; i++ {
		if _, err := alloc(s, 4096, Owner{File: "f", FileOff: int64(i) * 4096}, false); err != nil {
			t.Fatal(err)
		}
	}
	base := s.Stats().PolicyQueueLen
	for i := 0; i < 10000; i++ {
		s.Touch(0, 4096)
	}
	if got := s.Stats().PolicyQueueLen; got != base {
		t.Fatalf("queue grew from %d to %d over 10k hot touches", base, got)
	}
	if got := s.Stats().Touches; got != 10000 {
		t.Fatalf("Touches = %d, want 10000", got)
	}
}

// TestTouchKeepsLRUOrder verifies the in-place candidate update still
// yields correct LRU victims: the least recently touched range is
// evicted first.
func TestTouchKeepsLRUOrder(t *testing.T) {
	s := newSpace(t, 3*4096, "")
	evicted := recordVictims(s)
	for i := 0; i < 3; i++ {
		if _, err := alloc(s, 4096, Owner{File: "f", FileOff: int64(i) * 4096}, false); err != nil {
			t.Fatal(err)
		}
	}
	// Refresh ranges 0 and 2; range 1 becomes the LRU victim.
	s.Touch(0, 4096)
	s.Touch(2*4096, 4096)
	if _, err := alloc(s, 4096, Owner{File: "g"}, true); err != nil {
		t.Fatal(err)
	}
	want := victim{Owner{File: "f", FileOff: 4096}, 4096, 4096}
	if len(*evicted) != 1 || (*evicted)[0] != want {
		t.Fatalf("evicted %+v, want the untouched middle range %+v", *evicted, want)
	}
}

// TestS3FIFOPromotion checks the small→main path: a probationary range
// that gets re-referenced survives the eviction that would have removed
// it, and the one-hit wonder next to it is evicted instead.
func TestS3FIFOPromotion(t *testing.T) {
	s := newSpace(t, 2*4096, PolicyS3FIFO)
	evicted := recordVictims(s)
	hot := Owner{File: "hot"}
	cold := Owner{File: "cold"}
	if _, err := alloc(s, 4096, hot, false); err != nil {
		t.Fatal(err)
	}
	if _, err := alloc(s, 4096, cold, false); err != nil {
		t.Fatal(err)
	}
	s.Touch(0, 4096) // re-reference hot while probationary
	if _, err := alloc(s, 4096, Owner{File: "new"}, true); err != nil {
		t.Fatal(err)
	}
	if want := (victim{cold, 4096, 4096}); len(*evicted) != 1 || (*evicted)[0] != want {
		t.Fatalf("evicted %+v, want cold %+v", *evicted, want)
	}
	if c := s.Stats().PolicyCounters; c.Promotions == 0 {
		t.Fatalf("no promotion recorded: %+v", c)
	}
}

// TestS3FIFOGhostReadmission checks that a range evicted from the small
// queue re-enters via the main queue (ghost hit) and then outlives a
// fresh probationary range.
func TestS3FIFOGhostReadmission(t *testing.T) {
	s := newSpace(t, 2*4096, PolicyS3FIFO)
	evicted := recordVictims(s)
	a := Owner{File: "a"}
	if _, err := alloc(s, 4096, a, false); err != nil {
		t.Fatal(err)
	}
	// Evict a (never touched: one-hit wonder).
	if _, err := alloc(s, 2*4096, Owner{File: "filler"}, true); err != nil {
		t.Fatal(err)
	}
	if want := (victim{a, 0, 4096}); len(*evicted) != 1 || (*evicted)[0] != want {
		t.Fatalf("evicted %+v, want a %+v", *evicted, want)
	}
	s.FreeRange(0, 2*4096)
	// Re-admit a: the ghost table should route it to main.
	if _, err := alloc(s, 4096, a, false); err != nil {
		t.Fatal(err)
	}
	if c := s.Stats().PolicyCounters; c.GhostHits != 1 {
		t.Fatalf("GhostHits = %d, want 1: %+v", c.GhostHits, c)
	}
	// A fresh probationary neighbour should now be the preferred victim.
	if _, err := alloc(s, 4096, Owner{File: "b"}, false); err != nil {
		t.Fatal(err)
	}
	*evicted = nil
	if _, err := alloc(s, 4096, Owner{File: "c"}, true); err != nil {
		t.Fatal(err)
	}
	if want := (victim{Owner{File: "b"}, 4096, 4096}); len(*evicted) != 1 || (*evicted)[0] != want {
		t.Fatalf("evicted %+v, want the probationary b %+v", *evicted, want)
	}
}

// TestTinyLFUAdmissionGate checks that an allocation whose incoming range
// is colder than the victim is rejected with ErrAdmissionRejected, and
// that a hotter incoming range is admitted.
func TestTinyLFUAdmissionGate(t *testing.T) {
	s := newSpace(t, 4096, PolicyTinyLFU)
	hot := Owner{File: "hot"}
	if _, err := alloc(s, 4096, hot, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Touch(0, 4096) // victim frequency climbs
	}
	cold := Owner{File: "cold"}
	_, err := alloc(s, 4096, cold, true)
	if !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("cold allocation err = %v, want ErrAdmissionRejected", err)
	}
	if !errors.Is(err, ErrNoSpace) {
		t.Fatal("ErrAdmissionRejected must wrap ErrNoSpace")
	}
	if st := s.Stats(); st.AdmitRejected != 1 || st.UsedBytes != 4096 {
		t.Fatalf("AdmitRejected = %d, want 1; used = %d, want 4096 (rejection leaves contents intact)", st.AdmitRejected, st.UsedBytes)
	}
	// Now make the incoming range hotter than the victim: repeated
	// admission attempts raise its sketch estimate past the victim's.
	warm := Owner{File: "warm"}
	var admitted bool
	for i := 0; i < 32; i++ {
		if _, err := alloc(s, 4096, warm, true); err == nil {
			admitted = true
			break
		} else if !errors.Is(err, ErrNoSpace) {
			t.Fatal(err)
		}
	}
	if !admitted {
		t.Fatal("hot incoming range never admitted")
	}
}

// TestSetPolicyPreservesCoverage swaps policies mid-stream and checks
// that clean space registered before the swap is still reclaimable after.
func TestSetPolicyPreservesCoverage(t *testing.T) {
	names := PolicyNames()
	for _, from := range names {
		for _, to := range names {
			t.Run(from+"→"+to, func(t *testing.T) {
				s := newSpace(t, 8*4096, from)
				for i := 0; i < 8; i++ {
					if _, err := alloc(s, 4096, Owner{File: "f", FileOff: int64(i) * 4096}, false); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.SetPolicy(to); err != nil {
					t.Fatal(err)
				}
				if got := s.Stats().Policy; got != to {
					t.Fatalf("Policy = %q, want %q", got, to)
				}
				in := Owner{File: "incoming"}
				for i := 0; i < 64; i++ {
					s.regions[0].policy.NoteAccess(in, 1)
				}
				if _, err := alloc(s, 8*4096, in, true); err != nil {
					t.Fatalf("clean space lost across %s→%s swap: %v", from, to, err)
				}
				checkAccountingOracle(t, s, 8*4096)
			})
		}
	}
}

// TestLRUHeapIndexConsistency hammers the indexed heap with interleaved
// fresh pushes, requeues and pops, checking pop order and index health.
func TestLRUHeapIndexConsistency(t *testing.T) {
	var h lruHeap
	rng := rand.New(rand.NewSource(3))
	seq := uint64(0)
	for i := 0; i < 20000; i++ {
		switch rng.Intn(3) {
		case 0:
			seq++
			off := int64(rng.Intn(64)) * 4096
			h.pushFresh(Cand{Seq: seq, Off: off, Len: 4096})
		case 1:
			seq++
			h.push(Cand{Seq: seq, Off: int64(rng.Intn(64)) * 4096, Len: int64(rng.Intn(4096) + 1)})
		case 2:
			h.pop()
		}
	}
	// Drain: pops must come out in nondecreasing (Seq, Off) order and the
	// index must empty alongside the heap.
	var prev Cand
	first := true
	for {
		c, ok := h.pop()
		if !ok {
			break
		}
		if !first && (c.Seq < prev.Seq || (c.Seq == prev.Seq && c.Off < prev.Off)) {
			t.Fatalf("out of order: %+v after %+v", c, prev)
		}
		prev, first = c, false
	}
	if len(h.idx) != 0 {
		t.Fatalf("index leaked %d entries after drain", len(h.idx))
	}
}
