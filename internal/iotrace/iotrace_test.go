package iotrace

import (
	"testing"
	"time"

	"s4dcache/internal/device"
	"s4dcache/internal/pfs"
)

func ev(fs string, server int, file string, op device.Op, off, size int64, end time.Duration) pfs.TraceEvent {
	return pfs.TraceEvent{FS: fs, Server: server, File: file, Op: op, LocalOff: off, Size: size, Start: end - 1, End: end}
}

func TestDistributionWindowAndShares(t *testing.T) {
	r := NewRecorder()
	h := r.Hook()
	for i := 0; i < 8; i++ {
		h(ev("CPFS", 0, "f", device.OpWrite, int64(i)*100, 100, time.Duration(50+i)))
	}
	for i := 0; i < 2; i++ {
		h(ev("OPFS", 0, "f", device.OpWrite, int64(i)*100, 400, time.Duration(50+i)))
	}
	d := r.Distribute(0, 0)
	if got := d.ByteShare("OPFS"); got != 0.5 {
		t.Fatalf("ByteShare = %v, want 0.5 (800 vs 800)", got)
	}
	// Window excludes everything before t=52.
	d = r.Distribute(52, 0)
	if d.Bytes["OPFS"] != 0 {
		t.Fatalf("windowed OPFS bytes = %d", d.Bytes["OPFS"])
	}
	if d.Bytes["CPFS"] != 600 {
		t.Fatalf("windowed CPFS bytes = %d, want 600", d.Bytes["CPFS"])
	}
	// Empty distribution shares are zero.
	if NewRecorder().Distribute(0, 0).ByteShare("OPFS") != 0 {
		t.Fatal("empty share not zero")
	}
}

func TestSequentiality(t *testing.T) {
	r := NewRecorder()
	h := r.Hook()
	// Server 0: perfectly sequential stream of 4.
	for i := int64(0); i < 4; i++ {
		h(ev("OPFS", 0, "f", device.OpWrite, i*100, 100, time.Duration(i+1)))
	}
	// Server 1: fully random stream of 4.
	for i, off := range []int64{5000, 100, 9000, 3} {
		h(ev("OPFS", 1, "f", device.OpWrite, off, 10, time.Duration(10+i)))
	}
	got := r.Sequentiality("OPFS")
	// 3 sequential transitions out of 6 total transitions.
	if got < 0.49 || got > 0.51 {
		t.Fatalf("Sequentiality = %v, want 0.5", got)
	}
	if NewRecorder().Sequentiality("OPFS") != 0 {
		t.Fatal("empty sequentiality not zero")
	}
}

func TestSequentialityPerFileCursors(t *testing.T) {
	r := NewRecorder()
	h := r.Hook()
	// Interleaved writes to two files on one server, each sequential.
	h(ev("OPFS", 0, "a", device.OpWrite, 0, 10, 1))
	h(ev("OPFS", 0, "b", device.OpWrite, 0, 10, 2))
	h(ev("OPFS", 0, "a", device.OpWrite, 10, 10, 3))
	h(ev("OPFS", 0, "b", device.OpWrite, 10, 10, 4))
	if got := r.Sequentiality("OPFS"); got != 1 {
		t.Fatalf("per-file sequentiality = %v, want 1", got)
	}
}
