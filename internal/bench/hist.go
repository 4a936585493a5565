package bench

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// LatencyHist is a fixed-layout log-bucket latency histogram in the HDR
// style: each power-of-two octave of nanoseconds is split into histSub
// linear sub-buckets, giving a bounded relative error of 1/histSub
// (~3.1%) across the full range of time.Duration. Recording touches one
// atomic counter — 0 allocs/op, safe from any number of goroutines.
// Percentiles are computed by a bucket walk at report time; the reported
// value is the bucket's upper bound, so quantiles are conservative (never
// under-reported).
type LatencyHist struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
}

const (
	// histSub is the linear sub-bucket count per octave (a power of two).
	histSub     = 32
	histSubBits = 5
	// histOctaves covers 1ns through ~9.2s×2³² — the full int64 range.
	histOctaves = 64 - histSubBits
	histBuckets = histOctaves * histSub
)

// histIndex maps a non-negative nanosecond value to its bucket.
func histIndex(ns int64) int {
	v := uint64(ns)
	if v < histSub {
		// The first octave is exact: one bucket per nanosecond.
		return int(v)
	}
	exp := bits.Len64(v) - 1 - histSubBits
	sub := int(v>>uint(exp)) - histSub
	return (exp+1)*histSub + sub
}

// histUpper returns the inclusive upper bound of bucket i in nanoseconds.
func histUpper(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	exp := i/histSub - 1
	sub := i%histSub + histSub
	return (int64(sub)+1)<<uint(exp) - 1
}

// Record adds one latency observation. Negative durations count as zero.
func (h *LatencyHist) Record(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.buckets[histIndex(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		m := h.max.Load()
		if ns <= m || h.max.CompareAndSwap(m, ns) {
			break
		}
	}
}

// Count returns the number of recorded observations.
func (h *LatencyHist) Count() uint64 { return h.count.Load() }

// Mean returns the mean recorded latency (0 when empty).
func (h *LatencyHist) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / int64(n))
}

// Max returns the largest recorded latency.
func (h *LatencyHist) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile returns the latency at quantile q in [0,1]: the upper bound of
// the bucket holding the ceil(q·count)-th observation. Concurrent Records
// may shift the answer by at most the in-flight observations; callers
// quiesce first for exact reports.
func (h *LatencyHist) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(n))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := 0; i < histBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		seen += c
		if seen >= rank {
			// Clamp to the observed max: the last bucket's upper bound can
			// overshoot the largest value actually recorded.
			if up, m := histUpper(i), h.max.Load(); up > m {
				return time.Duration(m)
			} else {
				return time.Duration(up)
			}
		}
	}
	return h.Max()
}

// P50, P99 and P999 are the tail-latency columns every serve report emits.
func (h *LatencyHist) P50() time.Duration  { return h.Quantile(0.50) }
func (h *LatencyHist) P99() time.Duration  { return h.Quantile(0.99) }
func (h *LatencyHist) P999() time.Duration { return h.Quantile(0.999) }

// Reset clears all counters. Not safe concurrently with Record.
func (h *LatencyHist) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
}

// Merge folds other's observations into h (max is kept elementwise).
func (h *LatencyHist) Merge(other *LatencyHist) {
	for i := range other.buckets {
		if c := other.buckets[i].Load(); c > 0 {
			h.buckets[i].Add(c)
		}
	}
	h.count.Add(other.count.Load())
	h.sum.Add(other.sum.Load())
	for {
		m, om := h.max.Load(), other.max.Load()
		if om <= m || h.max.CompareAndSwap(m, om) {
			break
		}
	}
}
