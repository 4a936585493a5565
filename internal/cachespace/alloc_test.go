package cachespace

import (
	"errors"
	"testing"
)

// newSteadySpace returns a full one-region space in eviction steady
// state: every byte allocated clean, so each further allocation must
// reclaim.
func newSteadySpace(tb testing.TB, policy string) *Sharded {
	tb.Helper()
	s := newSpace(tb, 1<<20, policy)
	var frags []Fragment
	for off := int64(0); off < 1<<20; off += 16 << 10 {
		var err error
		if frags, err = s.Allocate(frags[:0], 0, 16<<10, Owner{File: "seed", FileOff: off}, false); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// TestAllocateZeroAllocs pins the eviction-path allocation cost of every
// policy at 0 allocs/op: with an eviction hook installed and a
// caller-owned fragment buffer, a steady-state allocate-over-full-cache
// (pop victims, gate, report through the hook, evict, take free space)
// performs no heap allocation — including TinyLFU rejections, which
// return the fixed ErrAdmissionRejected.
func TestAllocateZeroAllocs(t *testing.T) {
	for _, policy := range PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			s := newSteadySpace(t, policy)
			var evicted int64
			s.SetEvictHook(func(_ Owner, _, length int64) bool {
				evicted += length
				return true
			})
			var frags []Fragment
			off := int64(0)
			alloc := func() {
				var err error
				frags, err = s.Allocate(frags[:0], 0, 16<<10, Owner{File: "in", FileOff: off}, false)
				if err != nil && !errors.Is(err, ErrNoSpace) {
					t.Fatal(err)
				}
				off += 16 << 10
			}
			// Warm up scratch buffers, rings and the candidate index.
			for i := 0; i < 200; i++ {
				alloc()
			}
			if n := testing.AllocsPerRun(200, alloc); n != 0 {
				t.Fatalf("%s Allocate: %v allocs/op, want 0", policy, n)
			}
			if evicted == 0 {
				t.Fatalf("%s: no eviction reached the hook", policy)
			}
		})
	}
}

// TestTouchZeroAllocs pins the cache-hit path of every policy at 0
// allocs/op: recency restamps, frequency bumps and candidate index
// updates all run without heap allocation.
func TestTouchZeroAllocs(t *testing.T) {
	for _, policy := range PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			s := newSteadySpace(t, policy)
			i := 0
			touch := func() {
				s.Touch(int64(i%64)*(16<<10), 16<<10)
				i++
			}
			for j := 0; j < 200; j++ {
				touch()
			}
			if n := testing.AllocsPerRun(200, touch); n != 0 {
				t.Fatalf("%s Touch: %v allocs/op, want 0", policy, n)
			}
		})
	}
}

// BenchmarkTouchHotRange measures the hot-range cache-hit cost per
// policy. Before the indexed-heap fix the clean-LRU case appended one
// stale heap entry per hit, growing the queue without bound and turning
// a hot loop into O(n log n) heap churn; now every policy stays O(log n)
// worst case with a bounded queue.
func BenchmarkTouchHotRange(b *testing.B) {
	for _, policy := range PolicyNames() {
		b.Run(policy, func(b *testing.B) {
			s := newSteadySpace(b, policy)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Touch(0, 16<<10)
			}
			b.StopTimer()
			if q := s.Stats().PolicyQueueLen; q > 128 {
				b.Fatalf("queue grew to %d over %d hot touches", q, b.N)
			}
		})
	}
}

// BenchmarkAllocateEvict measures the steady-state allocate-with-eviction
// cost per policy.
func BenchmarkAllocateEvict(b *testing.B) {
	for _, policy := range PolicyNames() {
		b.Run(policy, func(b *testing.B) {
			s := newSteadySpace(b, policy)
			var frags []Fragment
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				frags, err = s.Allocate(frags[:0], 0, 16<<10, Owner{File: "in", FileOff: int64(i) * (16 << 10)}, false)
				if err != nil && !errors.Is(err, ErrNoSpace) {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRejectionErrIsFixed guards the allocation-free rejection contract:
// two rejections return the same error value.
func TestRejectionErrIsFixed(t *testing.T) {
	s := newSpace(t, 4096, PolicyTinyLFU)
	if _, err := alloc(s, 4096, Owner{File: "hot"}, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Touch(0, 4096)
	}
	_, err1 := alloc(s, 4096, Owner{File: "cold1"}, true)
	_, err2 := alloc(s, 4096, Owner{File: "cold2"}, true)
	if err1 != ErrAdmissionRejected || err2 != ErrAdmissionRejected {
		t.Fatalf("rejections not the fixed sentinel: %v / %v", err1, err2)
	}
}

// BenchmarkAllocateFull measures 8 KiB clean allocations into a full
// space of 8k 8 KiB units: every allocation reclaims the least recently
// used unit and takes its space back through first fit.
func BenchmarkAllocateFull(b *testing.B) {
	const unitB, units = 8 << 10, 8 << 10
	s := newSpace(b, unitB*units, "")
	var (
		frags []Fragment
		err   error
	)
	for i := int64(0); i < units; i++ {
		if frags, err = s.Allocate(frags[:0], 0, unitB, Owner{File: "seed", FileOff: i * unitB}, false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if frags, err = s.Allocate(frags[:0], 0, unitB, Owner{File: "in", FileOff: int64(i) * unitB}, false); err != nil {
			b.Fatal(err)
		}
	}
}
