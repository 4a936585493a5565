package mpiio

import (
	"bytes"
	"testing"
	"time"

	"s4dcache/internal/chunkstore"
	"s4dcache/internal/device"
	"s4dcache/internal/netmodel"
	"s4dcache/internal/pfs"
	"s4dcache/internal/sim"
)

func newStockComm(t *testing.T, ranks int) (*Comm, *pfs.FS, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	fs, err := pfs.New(pfs.Config{
		Label:  "OPFS",
		Layout: pfs.Layout{Servers: 4, StripeSize: 64 << 10},
		Engine: eng,
		NewDevice: func(i int) device.Device {
			p := device.DefaultHDDParams()
			p.Seed = int64(i + 1)
			return device.NewHDD(p)
		},
		NewStore: func(int) chunkstore.Store { return chunkstore.NewSparse() },
		Net:      netmodel.Gigabit(),
	})
	if err != nil {
		t.Fatal(err)
	}
	comm, err := NewComm(eng, ranks, StockTransport{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	return comm, fs, eng
}

func TestNewCommValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewComm(nil, 4, StockTransport{}); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := NewComm(eng, 0, StockTransport{}); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := NewComm(eng, 4, nil); err == nil {
		t.Fatal("nil transport accepted")
	}
}

func TestWriteAtReadAtRoundTrip(t *testing.T) {
	comm, _, eng := newStockComm(t, 4)
	f := comm.Open("data")
	payload := []byte("mpi-io layer round trip")
	if err := f.WriteAt(2, 1000, int64(len(payload)), payload, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	got := make([]byte, len(payload))
	if err := f.ReadAt(3, 1000, int64(len(payload)), got, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !bytes.Equal(got, payload) {
		t.Fatal("round trip corrupted data")
	}
}

func TestFileValidation(t *testing.T) {
	comm, _, _ := newStockComm(t, 2)
	f := comm.Open("data")
	if err := f.WriteAt(5, 0, 10, nil, nil); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	f.Close()
	if err := f.WriteAt(0, 0, 10, nil, nil); err == nil {
		t.Fatal("I/O on closed file accepted")
	}
}

func TestViewValidation(t *testing.T) {
	comm, _, _ := newStockComm(t, 1)
	f := comm.Open("data")
	if err := f.SetView(0, View{BlockLen: 0, Stride: 10}); err == nil {
		t.Fatal("zero block length accepted")
	}
	if err := f.SetView(0, View{BlockLen: 20, Stride: 10}); err == nil {
		t.Fatal("stride < block accepted")
	}
	if err := f.SetView(0, View{Disp: -1, BlockLen: 5, Stride: 10}); err == nil {
		t.Fatal("negative disp accepted")
	}
	if err := f.WriteStrided(0, 4, nil); err == nil {
		t.Fatal("strided write without view accepted")
	}
}

// rangeTransport records the [lo, hi) of every request and completes it
// through the engine.
type rangeTransport struct {
	eng  *sim.Engine
	reqs []Span
}

func (t *rangeTransport) Read(rank int, file string, off, size int64, buf []byte, done func(error)) error {
	return t.Write(rank, file, off, size, buf, done)
}

func (t *rangeTransport) Write(_ int, _ string, off, size int64, _ []byte, done func(error)) error {
	t.reqs = append(t.reqs, Span{Off: off, Len: size})
	t.eng.After(0, func() { done(nil) })
	return nil
}

// TestWriteStridedRange checks the data-sieving span WriteStrided issues
// and the view position it leaves: n capped at the view's Count, a
// nonzero first block, and n = 0.
func TestWriteStridedRange(t *testing.T) {
	eng := sim.NewEngine()
	tr := &rangeTransport{eng: eng}
	comm, err := NewComm(eng, 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	f := comm.Open("data")
	v := View{Disp: 100, BlockLen: 8, Stride: 32, Count: 3}
	for _, c := range []struct {
		name   string
		reset  bool
		n      int64
		lo, hi int64 // lo == hi: no request
		pos    int64
	}{
		{"capped at Count", true, 5, 100, 172, 3},
		{"first two blocks", true, 2, 100, 140, 2},
		{"nonzero first block", false, 5, 164, 172, 3},
		{"zero blocks", true, 0, 0, 0, 0},
	} {
		if c.reset {
			if err := f.SetView(0, v); err != nil {
				t.Fatal(err)
			}
		}
		tr.reqs = nil
		fired := false
		if err := f.WriteStrided(0, c.n, func(error) { fired = true }); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if !fired {
			t.Fatalf("%s: done never ran", c.name)
		}
		want := []Span{{c.lo, c.hi - c.lo}, {c.lo, c.hi - c.lo}}
		if c.lo == c.hi {
			want = nil
		}
		if len(tr.reqs) != len(want) || (want != nil && (tr.reqs[0] != want[0] || tr.reqs[1] != want[1])) {
			t.Fatalf("%s: requests %+v, want %+v (read then write-back)", c.name, tr.reqs, want)
		}
		if got := f.offset[0]; got != c.pos {
			t.Fatalf("%s: view position %d, want %d", c.name, got, c.pos)
		}
	}
}

func TestStridedDataSievingWriteIsRMW(t *testing.T) {
	comm, fs, eng := newStockComm(t, 1)
	f := comm.Open("data")
	if err := f.SetView(0, View{Disp: 0, BlockLen: 8 << 10, Stride: 12 << 10}); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteStrided(0, 4, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// Span = 3 strides + final block = 3*12K + 8K = 44K, holes included,
	// read once and written back once.
	st := fs.Stats()
	if st.BytesRead != 44<<10 || st.BytesWritten != 44<<10 {
		t.Fatalf("RMW traffic read=%d written=%d, want 44K each", st.BytesRead, st.BytesWritten)
	}
	if st.Requests != 2 {
		t.Fatalf("data sieving issued %d requests, want 2 (one read, one write)", st.Requests)
	}
}

func TestStridedZeroBlocksCompletes(t *testing.T) {
	comm, fs, eng := newStockComm(t, 1)
	f := comm.Open("data")
	if err := f.SetView(0, View{BlockLen: 8, Stride: 16, Count: 2}); err != nil {
		t.Fatal(err)
	}
	// Consume the whole view, then request more: the empty request must
	// complete through the engine, never inside the call.
	if err := f.WriteStrided(0, 2, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	issued := fs.Stats().Requests
	done := false
	if err := f.WriteStrided(0, 2, func(error) { done = true }); err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("exhausted-view write completed inside the call")
	}
	eng.Run()
	if !done {
		t.Fatal("exhausted-view write never completed")
	}
	if got := fs.Stats().Requests; got != issued {
		t.Fatalf("exhausted-view write issued %d requests", got-issued)
	}
}

func TestMergeSpans(t *testing.T) {
	got := mergeSpans([]Span{{20, 10}, {0, 10}, {10, 10}, {50, 5}, {52, 3}})
	want := []Span{{0, 30}, {50, 5}}
	if len(got) != len(want) {
		t.Fatalf("mergeSpans = %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mergeSpans = %+v, want %+v", got, want)
		}
	}
	if mergeSpans(nil) != nil {
		t.Fatal("mergeSpans(nil) != nil")
	}
}

func TestCollectiveWriteAggregates(t *testing.T) {
	comm, fs, eng := newStockComm(t, 4)
	f := comm.Open("data")
	// Four ranks write interleaved 16KB blocks covering 0..256KB — the
	// merged result is one contiguous 256KB run.
	perRank := make([][]Span, 4)
	const block = 16 << 10
	for r := 0; r < 4; r++ {
		for i := 0; i < 4; i++ {
			off := int64((i*4 + r)) * block
			perRank[r] = append(perRank[r], Span{Off: off, Len: block})
		}
	}
	done := false
	if err := f.CollectiveWrite(perRank, CollectiveConfig{Aggregators: 2}, func(error) { done = true }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !done {
		t.Fatal("collective write never completed")
	}
	st := fs.Stats()
	if st.Requests != 1 {
		t.Fatalf("collective issued %d file requests, want 1 (fully merged)", st.Requests)
	}
	if st.BytesWritten != 16*block {
		t.Fatalf("collective wrote %d bytes", st.BytesWritten)
	}
}

func TestCollectiveWriteWithHoles(t *testing.T) {
	comm, fs, eng := newStockComm(t, 2)
	f := comm.Open("data")
	perRank := [][]Span{
		{{0, 100}, {300, 100}},
		{{100, 100}, {600, 100}},
	}
	// Merged runs: [0,200), [300,400), [600,700) → 3 requests, 400 bytes;
	// the holes are never written.
	if err := f.CollectiveWrite(perRank, CollectiveConfig{}, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if st := fs.Stats(); st.Requests != 3 || st.BytesWritten != 400 || st.BytesRead != 0 {
		t.Fatalf("collective write stats = %+v", st)
	}
}

func TestCollectiveEmptyCompletes(t *testing.T) {
	comm, _, eng := newStockComm(t, 2)
	f := comm.Open("data")
	done := false
	if err := f.CollectiveWrite([][]Span{nil, nil}, CollectiveConfig{}, func(error) { done = true }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !done {
		t.Fatal("empty collective never completed")
	}
}

func TestCollectiveValidation(t *testing.T) {
	comm, _, _ := newStockComm(t, 2)
	f := comm.Open("data")
	if err := f.CollectiveWrite(make([][]Span, 5), CollectiveConfig{}, nil); err == nil {
		t.Fatal("too many rank lists accepted")
	}
	f.Close()
	if err := f.CollectiveWrite(nil, CollectiveConfig{}, nil); err == nil {
		t.Fatal("collective on closed file accepted")
	}
}

func TestCollectiveShuffleCostDelaysIO(t *testing.T) {
	run := func(shuffle netmodel.Params) time.Duration {
		comm, _, eng := newStockComm(t, 2)
		f := comm.Open("data")
		var end time.Duration
		if err := f.CollectiveWrite([][]Span{{{0, 1 << 20}}, {{1 << 20, 1 << 20}}},
			CollectiveConfig{Aggregators: 1, Shuffle: shuffle},
			func(error) { end = eng.Now() }); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return end
	}
	free := run(netmodel.Params{})
	paid := run(netmodel.Gigabit())
	if paid <= free {
		t.Fatalf("shuffle cost not charged: %v vs %v", paid, free)
	}
}

func TestExchangeCost(t *testing.T) {
	if exchangeCost(netmodel.Params{}, 1<<20) != 0 {
		t.Fatal("zero network should be free")
	}
	if exchangeCost(netmodel.Gigabit(), 1<<20) == 0 {
		t.Fatal("gigabit exchange should cost time")
	}
}
