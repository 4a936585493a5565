package netmodel

import (
	"testing"
	"time"
)

func TestGigabitTransferTime(t *testing.T) {
	p := Gigabit()
	// 117 MB at 117 MB/s = 1s, plus latency.
	got := p.TransferTime(117e6)
	want := time.Second + p.Latency
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if diff > time.Millisecond {
		t.Fatalf("TransferTime(117MB) = %v, want ~%v", got, want)
	}
}

func TestZeroSizeCostsLatencyOnly(t *testing.T) {
	p := Gigabit()
	if got := p.TransferTime(0); got != p.Latency {
		t.Fatalf("TransferTime(0) = %v, want %v", got, p.Latency)
	}
	if got := p.TransferTime(-5); got != p.Latency {
		t.Fatalf("TransferTime(-5) = %v, want %v", got, p.Latency)
	}
}

func TestZeroNetworkIsFree(t *testing.T) {
	if got := Zero().TransferTime(1 << 30); got != 0 {
		t.Fatalf("Zero network cost = %v, want 0", got)
	}
}

func TestTransferTimeMonotonic(t *testing.T) {
	p := Gigabit()
	prev := time.Duration(-1)
	for _, s := range []int64{0, 1, 1 << 10, 1 << 20, 1 << 30} {
		got := p.TransferTime(s)
		if got < prev {
			t.Fatalf("TransferTime not monotone at %d", s)
		}
		prev = got
	}
}
