package pfs

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLayoutValidate(t *testing.T) {
	if err := (Layout{Servers: 0, StripeSize: 64}).Validate(); err == nil {
		t.Fatal("zero servers accepted")
	}
	if err := (Layout{Servers: 4, StripeSize: 0}).Validate(); err == nil {
		t.Fatal("zero stripe accepted")
	}
	if err := (Layout{Servers: 4, StripeSize: 65536}).Validate(); err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}
}

func TestSplitSingleStripe(t *testing.T) {
	l := Layout{Servers: 4, StripeSize: 100}
	subs := l.Split(250, 30) // inside stripe 2 → server 2
	if len(subs) != 1 {
		t.Fatalf("got %d sub-requests, want 1", len(subs))
	}
	if subs[0].Server != 2 || subs[0].LocalOff != 50 || subs[0].Size != 30 {
		t.Fatalf("sub = %+v, want server 2, local 50, size 30", subs[0])
	}
}

func TestSplitSpansTwoServers(t *testing.T) {
	l := Layout{Servers: 4, StripeSize: 100}
	subs := l.Split(80, 60) // stripe 0 tail (20B) + stripe 1 head (40B)
	if len(subs) != 2 {
		t.Fatalf("got %d sub-requests, want 2", len(subs))
	}
	if subs[0].Server != 0 || subs[0].LocalOff != 80 || subs[0].Size != 20 {
		t.Fatalf("sub0 = %+v", subs[0])
	}
	if subs[1].Server != 1 || subs[1].LocalOff != 0 || subs[1].Size != 40 {
		t.Fatalf("sub1 = %+v", subs[1])
	}
}

func TestSplitWrapsAroundAllServers(t *testing.T) {
	l := Layout{Servers: 2, StripeSize: 10}
	// Stripes 0..4: servers 0,1,0,1,0.
	subs := l.Split(0, 50)
	if len(subs) != 2 {
		t.Fatalf("got %d sub-requests, want 2", len(subs))
	}
	if subs[0].Server != 0 || subs[0].Size != 30 || subs[0].LocalOff != 0 {
		t.Fatalf("server0 share = %+v, want size 30", subs[0])
	}
	if subs[1].Server != 1 || subs[1].Size != 20 {
		t.Fatalf("server1 share = %+v, want size 20", subs[1])
	}
}

func TestSplitExactStripeBoundaryEnd(t *testing.T) {
	l := Layout{Servers: 4, StripeSize: 100}
	// Ends exactly at a stripe boundary: stripe "E" per the paper's
	// floor((f+r)/str) would be 2, but stripe 2 holds zero bytes.
	subs := l.Split(100, 100)
	if len(subs) != 1 || subs[0].Server != 1 || subs[0].Size != 100 {
		t.Fatalf("subs = %+v, want single full stripe on server 1", subs)
	}
}

func TestSplitZeroAndNegative(t *testing.T) {
	l := Layout{Servers: 4, StripeSize: 100}
	if subs := l.Split(50, 0); subs != nil {
		t.Fatalf("zero size → %v, want nil", subs)
	}
	if subs := l.Split(-1, 10); subs != nil {
		t.Fatalf("negative offset → %v, want nil", subs)
	}
}

func TestSplitLargeRequestBalanced(t *testing.T) {
	l := Layout{Servers: 8, StripeSize: 64 << 10}
	size := int64(8 * 64 << 10 * 100) // 100 full rounds
	subs := l.Split(0, size)
	if len(subs) != 8 {
		t.Fatalf("got %d servers, want 8", len(subs))
	}
	for _, s := range subs {
		if s.Size != 100*64<<10 {
			t.Fatalf("server %d share %d, want %d", s.Server, s.Size, 100*64<<10)
		}
	}
}

// Property: Split agrees with the brute-force Pieces enumeration — same
// total bytes, same per-server byte counts, and per-server pieces form one
// contiguous local extent equal to the sub-request.
func TestSplitMatchesPiecesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := Layout{Servers: rng.Intn(12) + 1, StripeSize: int64(rng.Intn(2000) + 1)}
		off := rng.Int63n(100000)
		size := rng.Int63n(50000) + 1
		subs := l.Split(off, size)
		pieces := l.Pieces(off, size)

		perServer := make(map[int][2]int64) // min local off, total
		mins := make(map[int]int64)
		for s := range mins {
			_ = s
		}
		var total int64
		for _, p := range pieces {
			total += p.Size
			cur, ok := perServer[p.Server]
			if !ok {
				perServer[p.Server] = [2]int64{p.LocalOff, p.Size}
				continue
			}
			if p.LocalOff < cur[0] {
				cur[0] = p.LocalOff
			}
			cur[1] += p.Size
			perServer[p.Server] = cur
		}
		if total != size {
			return false
		}
		if len(subs) != len(perServer) {
			return false
		}
		var subTotal int64
		for _, s := range subs {
			subTotal += s.Size
			want, ok := perServer[s.Server]
			if !ok || want[0] != s.LocalOff || want[1] != s.Size {
				return false
			}
		}
		return subTotal == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: pieces are contiguous in file space and cover [off, off+size).
func TestPiecesCoverRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := Layout{Servers: rng.Intn(10) + 1, StripeSize: int64(rng.Intn(999) + 1)}
		off := rng.Int63n(10000)
		size := rng.Int63n(10000) + 1
		pos := off
		for _, p := range l.Pieces(off, size) {
			if p.FileOff != pos || p.Size <= 0 || p.Size > l.StripeSize {
				return false
			}
			if p.Server != int((p.FileOff/l.StripeSize)%int64(l.Servers)) {
				return false
			}
			pos += p.Size
		}
		return pos == off+size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestInvolvedServers(t *testing.T) {
	l := Layout{Servers: 4, StripeSize: 100}
	cases := []struct {
		off, size int64
		want      int
	}{
		{0, 1, 1},
		{0, 100, 1},
		{0, 101, 2},
		{50, 100, 2},
		{0, 400, 4},
		{0, 4000, 4}, // capped at M
		{0, 0, 0},
	}
	for _, c := range cases {
		if got := l.InvolvedServers(c.off, c.size); got != c.want {
			t.Errorf("InvolvedServers(%d,%d) = %d, want %d", c.off, c.size, got, c.want)
		}
	}
}

func TestMaxSubRequest(t *testing.T) {
	l := Layout{Servers: 4, StripeSize: 100}
	// 0..250: server0 gets 100, server1 gets 100, server2 gets 50.
	if got := l.MaxSubRequest(0, 250); got != 100 {
		t.Fatalf("MaxSubRequest = %d, want 100", got)
	}
	// Single small request.
	if got := l.MaxSubRequest(10, 20); got != 20 {
		t.Fatalf("MaxSubRequest = %d, want 20", got)
	}
}
