package iotrace

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"s4dcache/internal/device"
	"s4dcache/internal/pfs"
	"s4dcache/internal/sim"
)

// refRecorder is the pre-columnar slice-of-structs implementation, kept as
// the behavioural oracle for the interned columnar log.
type refRecorder struct {
	events []pfs.TraceEvent
}

func (r *refRecorder) distribute(from, to time.Duration) Distribution {
	d := Distribution{Bytes: make(map[string]int64)}
	for _, ev := range r.events {
		if ev.End < from || (to > 0 && ev.End >= to) {
			continue
		}
		d.Bytes[ev.FS] += ev.Size
	}
	return d
}

func (r *refRecorder) sequentiality(label string) float64 {
	type key struct {
		server int
		file   string
	}
	evs := make([]pfs.TraceEvent, 0, len(r.events))
	for _, ev := range r.events {
		if ev.FS == label {
			evs = append(evs, ev)
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].End < evs[j].End })
	last := make(map[key]int64)
	var seq, total int
	for _, ev := range evs {
		k := key{server: ev.Server, file: ev.File}
		if prev, ok := last[k]; ok {
			total++
			if ev.LocalOff == prev {
				seq++
			}
		}
		last[k] = ev.LocalOff + ev.Size
	}
	if total == 0 {
		return 0
	}
	return float64(seq) / float64(total)
}

// fixture generates a deterministic event stream. sorted selects whether
// End times are nondecreasing (one virtual clock) or shuffled (events
// arriving out of End order).
func fixture(seed int64, n int, sorted bool) []pfs.TraceEvent {
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"OPFS", "CPFS"}
	files := []string{"ior-00.dat", "ior-01.dat", "ckpt"}
	evs := make([]pfs.TraceEvent, n)
	var clock time.Duration
	for i := range evs {
		clock += time.Duration(rng.Intn(3)) * time.Millisecond // repeats allowed
		op := device.OpWrite
		if rng.Intn(2) == 0 {
			op = device.OpRead
		}
		off := int64(rng.Intn(8)) * 4096
		if rng.Intn(3) == 0 {
			off = int64(i%4) * 4096 // sequential runs per server
		}
		evs[i] = pfs.TraceEvent{
			FS:       labels[rng.Intn(len(labels))],
			Server:   rng.Intn(4),
			Op:       op,
			File:     files[rng.Intn(len(files))],
			LocalOff: off,
			Size:     int64(rng.Intn(5)+1) * 512,
			Priority: sim.Priority(rng.Intn(2) + 1),
			Start:    clock - time.Millisecond,
			End:      clock,
		}
	}
	if !sorted {
		rng.Shuffle(n, func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
	}
	return evs
}

func sameDistribution(a, b Distribution) bool {
	if len(a.Bytes) != len(b.Bytes) {
		return false
	}
	for k, v := range a.Bytes {
		if b.Bytes[k] != v {
			return false
		}
	}
	return true
}

// TestColumnarMatchesReference proves the interned columnar recorder gives
// the same analyses as the slice-of-structs implementation, on both live
// (End-sorted, binary-searched) and shuffled (full-scan fallback) traces.
func TestColumnarMatchesReference(t *testing.T) {
	for _, sorted := range []bool{true, false} {
		for seed := int64(1); seed <= 5; seed++ {
			evs := fixture(seed, 500, sorted)
			col := NewRecorder()
			ref := &refRecorder{}
			hook := col.Hook()
			for _, ev := range evs {
				hook(ev)
				ref.events = append(ref.events, ev)
			}

			windows := [][2]time.Duration{
				{0, 0},
				{0, 200 * time.Millisecond},
				{100 * time.Millisecond, 400 * time.Millisecond},
				{350 * time.Millisecond, 0},
				{10 * time.Second, 0}, // empty window
			}
			for _, w := range windows {
				got, want := col.Distribute(w[0], w[1]), ref.distribute(w[0], w[1])
				if !sameDistribution(got, want) {
					t.Fatalf("sorted=%v seed=%d window=%v: Distribute %+v != %+v", sorted, seed, w, got, want)
				}
			}
			for _, label := range []string{"OPFS", "CPFS", "absent"} {
				if got, want := col.Sequentiality(label), ref.sequentiality(label); got != want {
					t.Fatalf("sorted=%v seed=%d %s: Sequentiality %v != %v", sorted, seed, label, got, want)
				}
			}
			// Record order must be preserved exactly.
			got := col.Events()
			for i := range evs {
				if got[i] != evs[i] {
					t.Fatalf("sorted=%v seed=%d: event %d reconstructed as %+v, want %+v", sorted, seed, i, got[i], evs[i])
				}
			}
		}
	}
}

// TestColumnarChunkBoundaries exercises a log spanning multiple chunks.
func TestColumnarChunkBoundaries(t *testing.T) {
	r := NewRecorder()
	h := r.Hook()
	n := chunkLen*2 + 17
	for i := 0; i < n; i++ {
		h(pfs.TraceEvent{FS: "OPFS", File: "f", LocalOff: int64(i) * 10, Size: 10, End: time.Duration(i + 1)})
	}
	if r.Len() != n {
		t.Fatalf("Len = %d, want %d", r.Len(), n)
	}
	if got := r.Sequentiality("OPFS"); got != 1 {
		t.Fatalf("Sequentiality = %v, want 1", got)
	}
	if d := r.Distribute(0, 0); d.Bytes["OPFS"] != int64(n)*10 {
		t.Fatalf("Distribute = %+v", d)
	}
}
