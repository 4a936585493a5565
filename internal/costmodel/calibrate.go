package costmodel

import (
	"time"

	"s4dcache/internal/device"
	"s4dcache/internal/netmodel"
)

// Calibrate derives model parameters from the testbed's hardware models,
// the analogue of the paper's offline profiling step. The per-byte costs
// βD and βC include the server network link share, since a sub-request's
// service time in the testbed is network transfer plus device access.
func Calibrate(hdd device.HDDParams, ssd device.SSDParams, net netmodel.Params, curve *device.Curve) Params {
	var netBeta float64
	if net.Bandwidth > 0 {
		netBeta = 1 / net.Bandwidth
	}
	// SSD: one conservative per-byte cost covering reads and writes; the
	// write path (amplified) dominates admission decisions.
	ssdBeta := ssd.WriteAmplification / ssd.WriteBandwidth
	if rb := 1 / ssd.ReadBandwidth; rb > ssdBeta {
		ssdBeta = rb
	}
	ssdLatency := ssd.WriteLatency
	if ssd.ReadLatency > ssdLatency {
		ssdLatency = ssd.ReadLatency
	}
	return Params{
		Stripe:    64 << 10, // callers overwrite with the PFS stripe
		R:         hdd.FullRotation / 2,
		S:         hdd.MaxSeek,
		SeekCurve: curve,
		BetaD:     1/hdd.Bandwidth + netBeta,
		BetaC:     ssdBeta + netBeta,
		LatencyD:  hdd.Overhead + net.Latency,
		LatencyC:  ssdLatency + net.Latency,
		Startup:   StartupCalibrated,
	}
}

// StreamKey identifies one access stream: the per-process view of one file
// that the MPI-IO layer observes (Table I's d is per process, per file).
// A struct key makes stream lookup allocation-free on the identify path —
// the previous "file|rank" string concatenation allocated per request.
type StreamKey struct {
	// File is the accessed file's name.
	File string
	// Rank is the accessing process.
	Rank int
}

// Tracker derives the request distance d (Table I): the logical address
// distance between a request and the previous request of the same stream.
// A stream's previous end lives in ends, at the index its key maps to, so
// a known stream costs one map lookup per request.
type Tracker struct {
	idx  map[StreamKey]int32
	ends []int64
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{idx: make(map[StreamKey]int32)}
}

// Observe returns the distance from the previous request's end to this
// request's offset, and records this request as the new predecessor. The
// first request of a stream is treated as seeking from the file start, so
// its distance is the request offset itself.
func (t *Tracker) Observe(key StreamKey, off, size int64) int64 {
	i, ok := t.idx[key]
	if !ok {
		if t.idx == nil {
			t.idx = make(map[StreamKey]int32)
		}
		t.idx[key] = int32(len(t.ends))
		t.ends = append(t.ends, off+size)
		return off
	}
	d := off - t.ends[i]
	t.ends[i] = off + size
	if d < 0 {
		d = -d
	}
	return d
}

// Streams returns the number of tracked streams.
func (t *Tracker) Streams() int { return len(t.ends) }

// Reset forgets all streams.
func (t *Tracker) Reset() {
	t.idx = make(map[StreamKey]int32)
	t.ends = t.ends[:0]
}

// ExpectedMaxUniform is the closed-form expectation of the maximum of m
// i.i.d. uniforms on [a,b] (Eq. 4), exported for verification against
// numeric integration in tests and for documentation tooling.
func ExpectedMaxUniform(m int, a, b time.Duration) time.Duration {
	if m <= 0 {
		return 0
	}
	if a > b {
		a = b
	}
	frac := float64(m) / float64(m+1)
	return a + time.Duration(frac*float64(b-a))
}
