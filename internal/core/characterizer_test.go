package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"s4dcache/internal/cachespace"
)

func TestCharacterizerSnapshotReset(t *testing.T) {
	c := NewCharacterizer()
	c.Note(true, 0, "f", 0, 16<<10, 0)
	c.Note(true, 1<<20, "f", 1<<20, 16<<10, 2*time.Millisecond)
	c.Note(false, 1<<20, "f", 2<<20, 16<<10, 4*time.Millisecond)
	c.Note(false, 0, "f", 3<<20, 16<<10, 0)

	p := c.SnapshotReset()
	if p.Reads != 2 || p.Writes != 2 {
		t.Fatalf("reads/writes = %d/%d, want 2/2", p.Reads, p.Writes)
	}
	if p.SeqReqs != 2 || p.RandReqs != 2 {
		t.Fatalf("seq/rand = %d/%d, want 2/2", p.SeqReqs, p.RandReqs)
	}
	if p.Bytes != 4*16<<10 {
		t.Fatalf("bytes = %d", p.Bytes)
	}
	if p.MeanBenefit != 3*time.Millisecond {
		t.Fatalf("mean benefit = %v, want 3ms", p.MeanBenefit)
	}
	if p.WriteFrac() != 0.5 || p.RandFrac() != 0.5 {
		t.Fatalf("fracs = %.2f/%.2f, want 0.5/0.5", p.WriteFrac(), p.RandFrac())
	}
	if p.WorkingSetBytes <= 0 {
		t.Fatalf("working set = %d, want positive", p.WorkingSetBytes)
	}

	// Flow stats are per-window: a second snapshot with no Notes is empty.
	p = c.SnapshotReset()
	if p.Total() != 0 || p.Bytes != 0 || p.MeanBenefit != 0 {
		t.Fatalf("second snapshot not reset: %+v", p)
	}
}

// TestCharacterizerWorkingSetEstimate checks the linear-counting
// estimate against a known distinct-block count, and that the rotating
// clear ages the estimate out over chzClearFrac idle windows rather
// than dropping it at the first snapshot.
func TestCharacterizerWorkingSetEstimate(t *testing.T) {
	c := NewCharacterizer()
	const blocks = 200
	for i := 0; i < blocks; i++ {
		c.Note(false, 1, "f", int64(i)<<chzBlockShift, 1<<chzBlockShift, 0)
	}
	p := c.SnapshotReset()
	got := p.WorkingSetBytes >> chzBlockShift
	if got < blocks*85/100 || got > blocks*115/100 {
		t.Fatalf("working-set estimate = %d blocks, want ~%d", got, blocks)
	}

	// Idle windows: the sliding estimate decays but survives the first
	// few snapshots, then reaches zero once every segment has rotated.
	p = c.SnapshotReset()
	if p.WorkingSetBytes == 0 {
		t.Fatal("estimate collapsed after one idle window")
	}
	for i := 0; i < chzClearFrac; i++ {
		p = c.SnapshotReset()
	}
	if p.WorkingSetBytes != 0 {
		t.Fatalf("estimate = %d after full rotation, want 0", p.WorkingSetBytes)
	}
}

func TestCharacterizerRepeatFrac(t *testing.T) {
	c := NewCharacterizer()
	// One-touch scan: every block distinct.
	for i := 0; i < 100; i++ {
		c.Note(false, 1, "scan", int64(i)<<chzBlockShift, 1<<chzBlockShift, 0)
	}
	if f := c.SnapshotReset().RepeatFrac(); f > 0.05 {
		t.Fatalf("scan repeat fraction = %.2f, want ~0", f)
	}
	// Hot loop: the same four blocks over and over.
	for i := 0; i < 100; i++ {
		c.Note(false, 1, "hot", int64(i%4)<<chzBlockShift, 1<<chzBlockShift, 0)
	}
	if f := c.SnapshotReset().RepeatFrac(); f < 0.9 {
		t.Fatalf("hot-loop repeat fraction = %.2f, want ~1", f)
	}
}

func TestChoosePolicy(t *testing.T) {
	const cache = 1 << 20
	// A profile whose repeats mark it as re-referencing.
	rereferencing := func(ws int64) Profile {
		return Profile{Reads: 80, Writes: 20, RandReqs: 80, SeqReqs: 20,
			WorkingSetBytes: ws, Touches: 100, Repeats: 60}
	}
	cases := []struct {
		name    string
		p       Profile
		current string
		want    string
	}{
		{"empty keeps active", Profile{}, "", ""},
		{"write-heavy wants clean-lru",
			Profile{Writes: 60, Reads: 40, RandReqs: 100, Touches: 100, Repeats: 50}, "", cachespace.PolicyCleanLRU},
		{"sequential wants clean-lru",
			Profile{Reads: 100, SeqReqs: 90, RandReqs: 10, Touches: 100, Repeats: 50}, "", cachespace.PolicyCleanLRU},
		{"one-touch scan wants tinylfu",
			Profile{Reads: 100, RandReqs: 100, WorkingSetBytes: cache / 2, Touches: 100, Repeats: 2}, "", cachespace.PolicyTinyLFU},
		{"overflowing working set wants tinylfu",
			rereferencing(2 * cache), "", cachespace.PolicyTinyLFU},
		{"fitting working set wants s3fifo",
			rereferencing(cache), "", cachespace.PolicyS3FIFO},
		// Hysteresis: between 1.0× and 1.5× capacity the bar depends on
		// the active policy, so a hovering estimate cannot flap.
		{"dead band keeps tinylfu",
			rereferencing(cache + cache/4), cachespace.PolicyTinyLFU, cachespace.PolicyTinyLFU},
		{"dead band keeps s3fifo",
			rereferencing(cache + cache/4), cachespace.PolicyS3FIFO, cachespace.PolicyS3FIFO},
	}
	for _, tc := range cases {
		if got := ChoosePolicy(tc.p, cache, tc.current); got != tc.want {
			t.Errorf("%s: ChoosePolicy = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestThrashingPredicate(t *testing.T) {
	const cache = 1 << 20
	scan := Profile{Reads: 100, RandReqs: 100, WorkingSetBytes: 4 * cache}
	if !thrashing(scan, cache) {
		t.Fatal("cache-defeating scan not flagged")
	}
	for name, p := range map[string]Profile{
		"small working set": {Reads: 100, RandReqs: 100, WorkingSetBytes: 2 * cache},
		"sequential":        {Reads: 100, SeqReqs: 100, WorkingSetBytes: 4 * cache},
		"write-heavy":       {Reads: 50, Writes: 50, RandReqs: 100, WorkingSetBytes: 4 * cache},
	} {
		if thrashing(p, cache) {
			t.Errorf("%s flagged as thrashing", name)
		}
	}
}

// TestAdaptiveSwapsOnShift drives the sequential engine through a
// write burst followed by a one-touch random read scan and checks the
// characterizer reconfigures the live policy: clean-LRU during the
// writes, TinyLFU once the scan signature appears.
func TestAdaptiveSwapsOnShift(t *testing.T) {
	tb := newTestbed(t, func(cfg *Config) {
		cfg.CachePolicy = cachespace.PolicyS3FIFO
		cfg.AdaptivePeriod = 5 * time.Millisecond
		cfg.LazyFetch = false
	})
	if got := tb.s4d.Space().Stats().Policy; got != cachespace.PolicyS3FIFO {
		t.Fatalf("initial policy = %q", got)
	}
	// The self-rearming adapt ticker keeps the event queue non-empty, so
	// requests run to their own completion, not to queue drain.
	write := func(rank int, file string, off int64, data []byte) {
		done := false
		if err := tb.s4d.Write(rank, file, off, int64(len(data)), data, func(error) { done = true }); err != nil {
			t.Fatal(err)
		}
		tb.eng.RunWhile(func() bool { return !done })
	}
	read := func(rank int, file string, off, size int64) {
		done := false
		buf := make([]byte, size)
		if err := tb.s4d.Read(rank, file, off, size, buf, func(error) { done = true }); err != nil {
			t.Fatal(err)
		}
		tb.eng.RunWhile(func() bool { return !done })
	}

	// Write burst: scattered 16KB writes (critical, absorbed).
	for i := 0; i < 300; i++ {
		off := critOff + int64(i)*(1<<20)
		write(i%4, "burst", off, pattern(1, 16<<10))
	}
	if got := tb.s4d.Space().Stats().Policy; got != cachespace.PolicyCleanLRU {
		t.Fatalf("policy after write burst = %q, want %q", got, cachespace.PolicyCleanLRU)
	}

	// One-touch random read scan over cold data.
	for i := 0; i < 300; i++ {
		off := critOff + int64(i)*(1<<20) + (512 << 20)
		read(i%4, "scan", off, 16<<10)
	}
	if got := tb.s4d.Space().Stats().Policy; got != cachespace.PolicyTinyLFU {
		t.Fatalf("policy after scan = %q, want %q", got, cachespace.PolicyTinyLFU)
	}

	st := tb.s4d.Stats()
	if st.PolicySwaps < 2 {
		t.Fatalf("policy swaps = %d, want >= 2", st.PolicySwaps)
	}
	if st.AdaptTicks == 0 {
		t.Fatal("no adaptation ticks recorded")
	}
}

// TestAdaptiveDisabledByDefault pins the zero-config behavior: no
// characterizer, no ticks, no swaps.
func TestAdaptiveDisabledByDefault(t *testing.T) {
	tb := newTestbed(t, nil)
	for i := 0; i < 50; i++ {
		tb.write(t, i%4, "f", critOff+int64(i)*(1<<20), pattern(1, 16<<10))
	}
	st := tb.s4d.Stats()
	if st.AdaptTicks != 0 || st.PolicySwaps != 0 {
		t.Fatalf("adaptation ran without AdaptivePeriod: ticks=%d swaps=%d", st.AdaptTicks, st.PolicySwaps)
	}
}

// TestCharacterizerNoteConcurrent exercises Note from many goroutines
// racing SnapshotReset (run under -race in CI).
func TestCharacterizerNoteConcurrent(t *testing.T) {
	c := NewCharacterizer()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 2000; i++ {
				c.Note(i%2 == 0, int64(i%3), fmt.Sprintf("f%d", g), int64(i)<<chzBlockShift, 16<<10, time.Duration(i%5)*time.Millisecond)
			}
		}(g)
	}
	for i := 0; i < 100; i++ {
		c.SnapshotReset()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	p := c.SnapshotReset()
	_ = p
}

// TestConcurrentAdaptiveSwaps drives the sharded wall-clock engine with
// concurrent clients through a write burst then a one-touch read scan
// and checks the adapt ticker swaps the live policy both ways. Run
// under -race in CI: Note, SnapshotReset and SetPolicy all race real
// traffic here.
func TestConcurrentAdaptiveSwaps(t *testing.T) {
	tb := newConcTestbedCfg(t, 4, false, false, func(cfg *ConcurrentConfig) {
		cfg.CachePolicy = cachespace.PolicyS3FIFO
		cfg.AdaptivePeriod = 2 * time.Millisecond
	})

	phase := func(write bool, base int64) {
		var wg sync.WaitGroup
		for rank := 0; rank < 4; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				for i := 0; i < 150; i++ {
					off := base + int64(rank*150+i)*(1<<20)
					if write {
						await(t, func(done func(error)) error {
							return tb.eng.Write(rank, "adapt", off, 16<<10, nil, done)
						})
					} else {
						await(t, func(done func(error)) error {
							return tb.eng.Read(rank, "adapt", off, 16<<10, nil, done)
						})
					}
				}
			}(rank)
		}
		wg.Wait()
		// Let at least one adapt tick observe the finished window.
		time.Sleep(10 * time.Millisecond)
	}

	phase(true, 1<<30)
	if got := tb.eng.Stats().CachePolicy; got != cachespace.PolicyCleanLRU {
		t.Fatalf("policy after write burst = %q, want %q", got, cachespace.PolicyCleanLRU)
	}
	phase(false, 1<<40)
	if got := tb.eng.Stats().CachePolicy; got != cachespace.PolicyTinyLFU {
		t.Fatalf("policy after scan = %q, want %q", got, cachespace.PolicyTinyLFU)
	}
	st := tb.eng.Stats()
	if st.PolicySwaps < 2 || st.AdaptTicks == 0 {
		t.Fatalf("swaps=%d ticks=%d, want >=2 swaps and ticks>0", st.PolicySwaps, st.AdaptTicks)
	}
}
