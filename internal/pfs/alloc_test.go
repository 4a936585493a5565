package pfs

import (
	"testing"

	"s4dcache/internal/device"
	"s4dcache/internal/netmodel"
	"s4dcache/internal/sim"
)

// newPerfFS builds a performance-mode (metadata-only) FS for allocation
// measurement.
func newPerfFS(t testing.TB) (*sim.Engine, *FS) {
	t.Helper()
	eng := sim.NewEngine()
	fs, err := New(Config{
		Label:  "OPFS",
		Layout: Layout{Servers: 8, StripeSize: 64 << 10},
		Engine: eng,
		NewDevice: func(i int) device.Device {
			p := device.DefaultHDDParams()
			p.Seed = int64(i + 1)
			return device.NewHDD(p)
		},
		Net: netmodel.Gigabit(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, fs
}

// TestWritePerfModeZeroAllocs pins the performance-mode write serve path
// at zero heap allocations per request: split scratch, pooled contexts and
// hoisted completion closures must all hold.
func TestWritePerfModeZeroAllocs(t *testing.T) {
	eng, fs := newPerfFS(t)
	issue := func() {
		if err := fs.Write("f", 256<<10, 256<<10, sim.PriorityHigh, nil, nil); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	issue() // warm pools, file table, event queue
	if got := testing.AllocsPerRun(100, issue); got != 0 {
		t.Fatalf("perf-mode Write allocates %v per op, want 0", got)
	}
}

// TestReadPerfModeZeroAllocs pins the performance-mode read serve path at
// zero heap allocations per request.
func TestReadPerfModeZeroAllocs(t *testing.T) {
	eng, fs := newPerfFS(t)
	if err := fs.Write("f", 0, 8<<20, sim.PriorityHigh, nil, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	issue := func() {
		if err := fs.Read("f", 256<<10, 256<<10, sim.PriorityHigh, nil, nil); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	issue()
	if got := testing.AllocsPerRun(100, issue); got != 0 {
		t.Fatalf("perf-mode Read allocates %v per op, want 0", got)
	}
}

// BenchmarkWritePerf measures one 256KB performance-mode write fanned
// over the 8-server layout and run to completion.
func BenchmarkWritePerf(b *testing.B) {
	eng, fs := newPerfFS(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%1024) * (256 << 10)
		if err := fs.Write("f", off, 256<<10, sim.PriorityHigh, nil, nil); err != nil {
			b.Fatal(err)
		}
		eng.Run()
	}
}

// BenchmarkReadPerf measures one 256KB performance-mode read of a
// previously written 256MB file.
func BenchmarkReadPerf(b *testing.B) {
	eng, fs := newPerfFS(b)
	if err := fs.Write("f", 0, 256<<20, sim.PriorityHigh, nil, nil); err != nil {
		b.Fatal(err)
	}
	eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%1024) * (256 << 10)
		if err := fs.Read("f", off, 256<<10, sim.PriorityHigh, nil, nil); err != nil {
			b.Fatal(err)
		}
		eng.Run()
	}
}

// TestWriteWithDoneSteadyStateZeroAllocs pins the pooled-context path (a
// done callback forces a request context and join) at zero steady-state
// allocations.
func TestWriteWithDoneSteadyStateZeroAllocs(t *testing.T) {
	eng, fs := newPerfFS(t)
	finished := false
	done := func(error) { finished = true }
	issue := func() {
		finished = false
		if err := fs.Write("f", 256<<10, 256<<10, sim.PriorityHigh, nil, done); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if !finished {
			t.Fatal("done not called")
		}
	}
	issue()
	if got := testing.AllocsPerRun(100, issue); got != 0 {
		t.Fatalf("pooled-context Write allocates %v per op, want 0", got)
	}
}

// TestZeroSizeRequestNilDoneZeroAllocs pins the degenerate paths: zero-size
// requests and the nil-done fast path must not allocate at all.
func TestZeroSizeRequestNilDoneZeroAllocs(t *testing.T) {
	eng, fs := newPerfFS(t)
	if err := fs.Write("f", 0, 64<<10, sim.PriorityHigh, nil, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	issue := func() {
		if err := fs.Write("f", 0, 0, sim.PriorityHigh, nil, nil); err != nil {
			t.Fatal(err)
		}
		if err := fs.Read("f", 0, 0, sim.PriorityHigh, nil, nil); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	issue()
	if got := testing.AllocsPerRun(100, issue); got != 0 {
		t.Fatalf("zero-size requests allocate %v per op, want 0", got)
	}
}
