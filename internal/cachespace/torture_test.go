package cachespace

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestShardedPolicySwapTorture swaps policies live while 8 writers hammer
// a Sharded space through allocate / clean / dirty / touch / free cycles
// with an evict hook that unmaps (and occasionally vetoes). Each round
// performs one swap concurrent with the writers and one after they reach
// the round barrier, followed by an exact accounting oracle (used/dirty/
// clean recomputed from a full walk) — so every swap is checked against
// the books. The final pass proves the reclaim-coverage invariant
// survived: all free+clean space of every region is still allocatable.
// Run with -race.
func TestShardedPolicySwapTorture(t *testing.T) {
	const (
		writers  = 8
		shards   = 4
		capacity = int64(shards) * 256 << 10
		rounds   = 12
		opsPer   = 300
	)
	s, err := NewSharded(capacity, shards, "")
	if err != nil {
		t.Fatal(err)
	}

	// Evict hook: every 7th call vetoes, exercising the skip/requeue
	// path; the rest "unmap" successfully.
	var hookMu sync.Mutex
	var hookCalls, vetoes uint64
	s.SetEvictHook(func(_ Owner, _, _ int64) bool {
		hookMu.Lock()
		defer hookMu.Unlock()
		hookCalls++
		if hookCalls%7 == 0 {
			vetoes++
			return false
		}
		return true
	})

	policies := PolicyNames()

	roundStart := make([]chan struct{}, rounds)
	for i := range roundStart {
		roundStart[i] = make(chan struct{})
	}
	roundDone := make(chan struct{}, writers)
	errs := make(chan error, writers)
	var done sync.WaitGroup

	for w := 0; w < writers; w++ {
		done.Add(1)
		go func(w int) {
			defer done.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 11))
			type alloc struct{ off, n int64 }
			var live []alloc
			for round := 0; round < rounds; round++ {
				<-roundStart[round]
				for i := 0; i < opsPer; i++ {
					shard := rng.Intn(shards)
					switch rng.Intn(5) {
					case 0, 1:
						size := int64(rng.Intn(8192) + 1)
						owner := Owner{File: fmt.Sprintf("w%d-f%d", w, rng.Intn(4)), FileOff: int64(rng.Intn(1 << 20))}
						frags, err := s.Allocate(nil, shard, size, owner, rng.Intn(2) == 0)
						if err != nil {
							if !errors.Is(err, ErrNoSpace) {
								errs <- err
								roundDone <- struct{}{}
								return
							}
							continue
						}
						for _, f := range frags {
							live = append(live, alloc{f.CacheOff, f.Len})
						}
					case 2:
						if len(live) == 0 {
							continue
						}
						a := live[rng.Intn(len(live))]
						s.MarkClean(a.off, a.n)
					case 3:
						if len(live) == 0 {
							continue
						}
						a := live[rng.Intn(len(live))]
						if rng.Intn(2) == 0 {
							s.MarkDirty(a.off, a.n)
						} else {
							s.Touch(a.off, a.n)
						}
					case 4:
						if len(live) == 0 {
							continue
						}
						i := rng.Intn(len(live))
						a := live[i]
						live = append(live[:i], live[i+1:]...)
						s.FreeRange(a.off, a.n)
					}
				}
				roundDone <- struct{}{}
			}
		}(w)
	}

	oracle := func(round int) {
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
			t.Errorf("round %d: oracle mismatch: walked used=%d dirty=%d, counters used=%d dirty=%d",
				round, used, dirty, st.UsedBytes, st.DirtyBytes)
		}
		if st.CleanBytes != used-dirty {
			t.Errorf("round %d: clean=%d, want %d", round, st.CleanBytes, used-dirty)
		}
		if used < 0 || used > capacity {
			t.Errorf("round %d: used=%d out of [0,%d]", round, used, capacity)
		}
	}

	swapRng := rand.New(rand.NewSource(99))
	for round := 0; round < rounds && !t.Failed(); round++ {
		close(roundStart[round])
		// One swap racing the writers mid-round…
		if err := s.SetPolicy(policies[swapRng.Intn(len(policies))]); err != nil {
			t.Fatal(err)
		}
		// …then wait for every writer to reach the round barrier (an
		// erroring writer sends its token before exiting).
		for i := 0; i < writers; i++ {
			<-roundDone
		}
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
		// Quiesced swap + exact accounting oracle.
		if err := s.SetPolicy(policies[swapRng.Intn(len(policies))]); err != nil {
			t.Fatal(err)
		}
		oracle(round)
	}
	// Release any rounds not yet started (early-failure path) so the
	// writers can exit, then drain their barrier tokens.
	for round := 0; round < rounds; round++ {
		select {
		case <-roundStart[round]:
		default:
			close(roundStart[round])
		}
	}
	go func() {
		for range roundDone {
		}
	}()
	done.Wait()
	close(roundDone)

	hookMu.Lock()
	hv := vetoes
	hookMu.Unlock()
	if hv == 0 {
		t.Log("no evict-hook vetoes exercised this run")
	}

	// Coverage finale: with vetoes disabled, every region's free+clean
	// space must be allocatable — the invariant survived every swap.
	s.SetEvictHook(nil)
	if err := s.SetPolicy(PolicyCleanLRU); err != nil { // admits everything
		t.Fatal(err)
	}
	for shard := 0; shard < shards; shard++ {
		r := &s.regions[shard]
		r.mu.Lock()
		want := r.size - r.dirtyB // free + clean
		r.mu.Unlock()
		if want == 0 {
			continue
		}
		if _, err := s.Allocate(nil, shard, want, Owner{File: "finale"}, true); err != nil {
			t.Fatalf("shard %d: free+clean=%d not allocatable after swaps: %v", shard, want, err)
		}
	}
}
