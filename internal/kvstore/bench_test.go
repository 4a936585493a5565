package kvstore

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// benchKeys returns n distinct keys shaped like DMT op-log keys.
func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("dmtop|%020d", i)
	}
	return keys
}

// BenchmarkCommit measures the synchronous WAL commit path:
// one durable Put per iteration, the DMT's per-mapping-change pattern.
// Keys are precomputed and cycled so the benchmark measures the store,
// not fmt.Sprintf, and the steady state is the overwrite path.
func BenchmarkCommit(b *testing.B) {
	s, err := Open(NewMemBackend(), "bench", Options{})
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(1 << 14)
	val := make([]byte, 38) // one encoded DMT op record
	for _, k := range keys {
		if err := s.Put(k, val); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(keys[i&(len(keys)-1)], val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommitBatch measures the atomic multi-fragment commit path used
// by dmt.InsertBatch (4 puts per batch).
func BenchmarkCommitBatch(b *testing.B) {
	s, err := Open(NewMemBackend(), "bench", Options{})
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(1 << 14)
	val := make([]byte, 38)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := s.NewBatch()
		for j := 0; j < 4; j++ {
			batch.Put(keys[(i*4+j)&(len(keys)-1)], val)
		}
		if err := batch.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommitters measures aggregate group-commit throughput with
// 1/4/16 concurrent committers over a backend that charges a sync delay
// per append (see DelayBackend). ns/op is wall time over total commits,
// so the committers=16 row dividing committers=1 is the aggregate
// throughput multiple the group commit buys.
func BenchmarkCommitters(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("c%d", n), func(b *testing.B) {
			s, err := Open(NewDelayBackend(NewMemBackend(), 20*time.Microsecond), "bench", Options{})
			if err != nil {
				b.Fatal(err)
			}
			val := make([]byte, 38)
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < n; g++ {
				share := b.N / n
				if g < b.N%n {
					share++
				}
				key := fmt.Sprintf("committer-%02d", g)
				wg.Add(1)
				go func(key string, share int) {
					defer wg.Done()
					for i := 0; i < share; i++ {
						if err := s.Put(key, val); err != nil {
							b.Error(err)
							return
						}
					}
				}(key, share)
			}
			wg.Wait()
		})
	}
}

// discardBackend swallows every append: the allocation pin below measures
// the store's commit machinery, not the backend's buffer management (the
// MemBackend's WAL buffer amortizes its growth reallocations, which is
// what BenchmarkCommit reports).
type discardBackend struct{}

func (discardBackend) ReadAll(string) ([]byte, error) { return nil, nil }
func (discardBackend) Append(string, []byte) error    { return nil }
func (discardBackend) Replace(string, []byte) error   { return nil }
func (discardBackend) Remove(string) error            { return nil }

// TestCommitZeroAllocs pins the steady-state durable Put path — encode,
// group commit (solo leader), in-place overwrite apply — at zero heap
// allocations per operation. Run by `make alloc-check` and CI.
func TestCommitZeroAllocs(t *testing.T) {
	s, err := Open(discardBackend{}, "pin", Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys := benchKeys(64) // enough keys to warm every shard's waiter pool
	val := make([]byte, 38)
	for pass := 0; pass < 2; pass++ {
		for _, k := range keys {
			if err := s.Put(k, val); err != nil {
				t.Fatal(err)
			}
		}
	}
	i := 0
	got := testing.AllocsPerRun(500, func() {
		if err := s.Put(keys[i%len(keys)], val); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if got != 0 {
		t.Fatalf("Put path allocates %.2f allocs/op, want 0", got)
	}
}
