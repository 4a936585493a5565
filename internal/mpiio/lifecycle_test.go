package mpiio

import (
	"strings"
	"testing"
)

// TestClosedFileRejectsAllIO pins the lifecycle contract: once a file is
// closed, every I/O entry point fails synchronously with a "closed" error
// and no callback fires. A regression here would let late I/O race a
// freed handle in a real MPI program.
func TestClosedFileRejectsAllIO(t *testing.T) {
	comm, _, eng := newStockComm(t, 2)
	f := comm.Open("data")
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	fired := func(error) { t.Error("callback fired on closed file") }
	ops := map[string]error{
		"ReadAt":       f.ReadAt(0, 0, 8, make([]byte, 8), fired),
		"WriteAt":      f.WriteAt(0, 0, 8, make([]byte, 8), fired),
		"SetView":      f.SetView(0, View{BlockLen: 4, Stride: 8}),
		"WriteStrided": f.WriteStrided(0, 1, fired),
		"CollectiveWrite": f.CollectiveWrite([][]Span{{{0, 8}}, nil},
			CollectiveConfig{}, fired),
	}
	for name, err := range ops {
		if err == nil {
			t.Errorf("%s on closed file accepted", name)
		} else if !strings.Contains(err.Error(), "closed") {
			t.Errorf("%s error %q does not mention the closed handle", name, err)
		}
	}
	eng.Run()
}

// TestCloseIdempotent pins double-close safety: Close on an already
// closed file succeeds and changes nothing (deliberately safer than
// MPI_File_close on a freed handle).
func TestCloseIdempotent(t *testing.T) {
	comm, _, eng := newStockComm(t, 1)
	f := comm.Open("data")

	// Real I/O before close still works.
	done := false
	if err := f.WriteAt(0, 0, 4<<10, make([]byte, 4<<10), func(err error) {
		done = true
		if err != nil {
			t.Errorf("write before close: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !done {
		t.Fatal("write never completed")
	}

	for i := 0; i < 3; i++ {
		if err := f.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	if err := f.ReadAt(0, 0, 8, make([]byte, 8), nil); err == nil {
		t.Fatal("I/O accepted after repeated Close")
	}
}

// TestSetViewOnClosedFile is split out of the map above because SetView
// historically validated geometry before the handle state; the closed
// check must win.
func TestSetViewOnClosedFile(t *testing.T) {
	comm, _, _ := newStockComm(t, 1)
	f := comm.Open("data")
	f.Close()
	if err := f.SetView(0, View{BlockLen: 0, Stride: 0}); err == nil {
		t.Fatal("SetView on closed file accepted")
	} else if !strings.Contains(err.Error(), "closed") {
		t.Fatalf("SetView on closed file reported %q, want the closed-handle error", err)
	}
}
