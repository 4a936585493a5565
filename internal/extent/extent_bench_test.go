package extent

import "testing"

// populate fills a map with n adjacent 4KB extents separated by 4KB holes.
func populate(n int) *Map[int64] {
	m := New[int64](func(v int64, delta int64) int64 { return v + delta })
	for i := 0; i < n; i++ {
		m.Insert(int64(i)*8192, 4096, int64(i))
	}
	return m
}

// BenchmarkInsert10k measures overwriting inserts into a 10k-extent map —
// the DMT/CDT steady-state mutation pattern.
func BenchmarkInsert10k(b *testing.B) {
	m := populate(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%10_000) * 8192
		m.Insert(off, 4096, int64(i))
	}
}

// BenchmarkInsertSplitting10k measures inserts that split existing extents
// (worst case: every insert clips two neighbours).
func BenchmarkInsertSplitting10k(b *testing.B) {
	m := populate(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%9_999)*8192 + 2048
		m.Insert(off, 4096, int64(i))
	}
}

// BenchmarkDelete10k measures delete+reinsert churn at 10k extents.
func BenchmarkDelete10k(b *testing.B) {
	m := populate(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%10_000) * 8192
		m.Delete(off, 4096)
		m.Insert(off, 4096, int64(i))
	}
}

// BenchmarkOverlaps10k measures lookup over a 10k-extent map.
func BenchmarkOverlaps10k(b *testing.B) {
	m := populate(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%9_990) * 8192
		got := m.Overlaps(off, 10*8192)
		if len(got) == 0 {
			b.Fatal("no overlaps")
		}
	}
}

// BenchmarkOverlapsScratch10k measures lookup with a caller-reused scratch
// buffer (the serve-path pattern in internal/core).
func BenchmarkOverlapsScratch10k(b *testing.B) {
	m := populate(10_000)
	var scratch []Entry[int64]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%9_990) * 8192
		scratch = m.AppendOverlaps(scratch[:0], off, 10*8192)
		if len(scratch) == 0 {
			b.Fatal("no overlaps")
		}
	}
}

// BenchmarkGaps10k measures gap enumeration over the holey 10k map.
func BenchmarkGaps10k(b *testing.B) {
	m := populate(10_000)
	var scratch []Gap
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%9_990) * 8192
		scratch = m.AppendGaps(scratch[:0], off, 10*8192)
		if len(scratch) == 0 {
			b.Fatal("no gaps")
		}
	}
}

// BenchmarkInsertSame10k measures an exact re-insert of an entry near the
// front of a 10k-extent map — the CDT re-Add and cachespace Touch restamp
// pattern, and the worst position for a splice that moves the tail.
func BenchmarkInsertSame10k(b *testing.B) {
	m := populate(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Insert(int64(i%16)*8192, 4096, int64(i))
	}
}

// BenchmarkSlabInsertSame10k is BenchmarkInsertSame10k for a packed
// segment — the DMT setDirty/SetClean pattern.
func BenchmarkSlabInsertSame10k(b *testing.B) {
	s := NewSlab()
	var g Seg
	for i := 0; i < 10_000; i++ {
		s.Insert(&g, int64(i)*8192, 4096, uint64(i), posSplit)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(&g, int64(i%16)*8192, 4096, uint64(i), posSplit)
	}
}
