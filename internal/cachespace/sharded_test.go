package cachespace

import (
	"errors"
	"testing"
)

// TestShardedRegionRouting checks that each shard allocates inside its own
// region of the global offset space and that offset-routed operations land
// on the right region.
func TestShardedRegionRouting(t *testing.T) {
	s, err := NewSharded(256<<10, 4, "")
	if err != nil {
		t.Fatal(err)
	}
	victims := recordVictims(s)
	if got := s.RegionCapacity(); got != 64<<10 {
		t.Fatalf("RegionCapacity=%d, want %d", got, 64<<10)
	}
	for shard := 0; shard < 4; shard++ {
		frags, err := s.Allocate(nil, shard, 16<<10, Owner{File: "f", FileOff: 0}, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(*victims) != 0 {
			t.Fatalf("shard %d: unexpected evictions", shard)
		}
		lo, hi := int64(shard)*(64<<10), int64(shard+1)*(64<<10)
		for _, fr := range frags {
			if fr.CacheOff < lo || fr.CacheOff+fr.Len > hi {
				t.Fatalf("shard %d: fragment [%d,%d) outside region [%d,%d)",
					shard, fr.CacheOff, fr.CacheOff+fr.Len, lo, hi)
			}
		}
	}
	if got := s.Stats().UsedBytes; got != 4*(16<<10) {
		t.Fatalf("UsedBytes=%d, want %d", got, 4*(16<<10))
	}
	if got := s.Stats().DirtyBytes; got != 4*(16<<10) {
		t.Fatalf("DirtyBytes=%d, want %d", got, 4*(16<<10))
	}
	// Offset-routed: clean shard 2's allocation via its global offset.
	s.MarkClean(2*(64<<10), 16<<10)
	if got := s.Stats().DirtyBytes; got != 3*(16<<10) {
		t.Fatalf("DirtyBytes=%d after MarkClean, want %d", got, 3*(16<<10))
	}
	s.FreeRange(2*(64<<10), 16<<10)
	if got := s.Stats().UsedBytes; got != 3*(16<<10) {
		t.Fatalf("UsedBytes=%d after FreeRange, want %d", got, 3*(16<<10))
	}
	// Eviction victims reach the hook with global offsets: fill shard 3's
	// region with clean space, then allocate over it. f's range there was
	// cleaned after g was allocated, so g's head is the LRU victim.
	if _, err := s.Allocate(nil, 3, 48<<10, Owner{File: "g", FileOff: 0}, false); err != nil {
		t.Fatal(err)
	}
	s.MarkClean(3*(64<<10), 16<<10)
	if _, err := s.Allocate(nil, 3, 8<<10, Owner{File: "h", FileOff: 0}, true); err != nil {
		t.Fatal(err)
	}
	want := victim{Owner{File: "g", FileOff: 0}, 3*(64<<10) + 16<<10, 8 << 10}
	if len(*victims) != 1 || (*victims)[0] != want {
		t.Fatalf("victims = %+v, want %+v", *victims, want)
	}
}

// TestShardedPinBlocksReclaim checks the read-pin contract: pinned clean
// space survives reclaim, the allocation reports ErrNoSpace with its
// partial evictions, and unpinning makes the space reclaimable again.
func TestShardedPinBlocksReclaim(t *testing.T) {
	s := newSpace(t, 64<<10, "")
	victims := recordVictims(s)
	// Two separate clean allocations fill the region: two LRU candidates.
	fragsA, err := alloc(s, 32<<10, Owner{File: "a", FileOff: 0}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alloc(s, 32<<10, Owner{File: "b", FileOff: 0}, false); err != nil {
		t.Fatal(err)
	}
	// Pin A (an in-flight read holds it).
	for _, fr := range fragsA {
		s.Pin(fr.CacheOff, fr.Len)
	}
	if got := s.Stats().PinnedBytes; got != 32<<10 {
		t.Fatalf("PinnedBytes=%d, want %d", got, 32<<10)
	}
	// Need more than B alone can provide: reclaim evicts B, skips pinned A,
	// and the allocation fails — but B's eviction must still be reported.
	frags, err := alloc(s, 40<<10, Owner{File: "c", FileOff: 0}, true)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("Allocate over pinned space: err=%v, want ErrNoSpace", err)
	}
	if frags != nil {
		t.Fatal("failed allocation returned fragments")
	}
	var evictedB int64
	for _, ev := range *victims {
		if ev.Owner.File == "a" {
			t.Fatalf("pinned fragment of file a evicted: %+v", ev)
		}
		evictedB += ev.Len
	}
	if evictedB != 32<<10 {
		t.Fatalf("evicted %d bytes of b, want %d", evictedB, 32<<10)
	}
	// The pinned range is still resident.
	var aBytes int64
	s.Walk(func(_, length int64, owner Owner, _ bool) bool {
		if owner.File == "a" {
			aBytes += length
		}
		return true
	})
	if aBytes != 32<<10 {
		t.Fatalf("file a has %d resident bytes after reclaim, want %d", aBytes, 32<<10)
	}
	// Unpin; now A is reclaimable and the allocation succeeds.
	for _, fr := range fragsA {
		s.Unpin(fr.CacheOff, fr.Len)
	}
	if got := s.Stats().PinnedBytes; got != 0 {
		t.Fatalf("PinnedBytes=%d after unpin, want 0", got)
	}
	if _, err := alloc(s, 40<<10, Owner{File: "c", FileOff: 0}, true); err != nil {
		t.Fatalf("Allocate after unpin: %v", err)
	}
}

// TestShardedPinRefcount checks that nested pins require matching unpins.
func TestShardedPinRefcount(t *testing.T) {
	s := newSpace(t, 64<<10, "")
	s.Pin(0, 8<<10)
	s.Pin(4<<10, 8<<10) // overlapping second pin
	s.Unpin(0, 8<<10)
	if got := s.Stats().PinnedBytes; got != 8<<10 {
		t.Fatalf("PinnedBytes=%d after partial unpin, want %d", got, 8<<10)
	}
	s.Unpin(4<<10, 8<<10)
	if got := s.Stats().PinnedBytes; got != 0 {
		t.Fatalf("PinnedBytes=%d after full unpin, want 0", got)
	}
}
