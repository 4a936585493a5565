package cdt

import "testing"

func TestAddAndContains(t *testing.T) {
	c := New(0)
	c.Add("f", 100, 50)
	if !c.Contains("f", 100, 50) {
		t.Fatal("added range not contained")
	}
	if !c.Contains("f", 110, 20) {
		t.Fatal("sub-range not contained")
	}
	if c.Contains("f", 90, 20) {
		t.Fatal("partially uncovered range reported contained")
	}
	if c.Contains("g", 100, 50) {
		t.Fatal("other file contained")
	}
	if c.Bytes() != 50 || c.Entries() != 1 {
		t.Fatalf("Bytes=%d Entries=%d", c.Bytes(), c.Entries())
	}
}

func TestAddZeroLengthIgnored(t *testing.T) {
	c := New(0)
	c.Add("f", 0, 0)
	if c.Entries() != 0 {
		t.Fatal("zero-length add created an entry")
	}
}

func TestContainsAdjacentExtents(t *testing.T) {
	c := New(0)
	c.Add("f", 0, 100)
	c.Add("f", 100, 100)
	if !c.Contains("f", 50, 100) {
		t.Fatal("range spanning adjacent extents not contained")
	}
}

func TestCFlagLifecycle(t *testing.T) {
	c := New(0)
	c.Add("f", 0, 100)
	c.Add("f", 200, 100)
	if got := c.PendingFetches(0); len(got) != 0 {
		t.Fatalf("fresh entries already pending: %+v", got)
	}
	c.SetCFlag("f", 0, 100)
	got := c.PendingFetches(0)
	if len(got) != 1 || got[0].Off != 0 || got[0].Len != 100 || got[0].File != "f" {
		t.Fatalf("PendingFetches = %+v", got)
	}
	c.ClearCFlag("f", 0, 100)
	if got := c.PendingFetches(0); len(got) != 0 {
		t.Fatalf("cleared flag still pending: %+v", got)
	}
}

func TestSetCFlagOnMissingFileNoop(t *testing.T) {
	c := New(0)
	c.SetCFlag("missing", 0, 10)
	c.ClearCFlag("missing", 0, 10)
	c.Remove("missing", 0, 10)
	if c.Entries() != 0 {
		t.Fatal("no-ops mutated the table")
	}
}

func TestPendingFetchesLimit(t *testing.T) {
	c := New(0)
	for i := int64(0); i < 10; i++ {
		c.Add("f", i*100, 50)
	}
	c.SetCFlag("f", 0, 1000)
	if got := c.PendingFetches(3); len(got) != 3 {
		t.Fatalf("limited PendingFetches returned %d", len(got))
	}
}

func TestReAddPreservesCFlag(t *testing.T) {
	c := New(0)
	c.Add("f", 0, 100)
	c.SetCFlag("f", 0, 100)
	// The same range is identified as critical again (second run).
	c.Add("f", 0, 100)
	got := c.PendingFetches(0)
	if len(got) != 1 {
		t.Fatalf("re-add dropped the C_flag: %+v", got)
	}
}

func TestRemove(t *testing.T) {
	c := New(0)
	c.Add("f", 0, 100)
	c.Remove("f", 25, 50)
	if c.Contains("f", 0, 100) {
		t.Fatal("removed range still contained")
	}
	if !c.Contains("f", 0, 25) || !c.Contains("f", 75, 25) {
		t.Fatal("remove clipped too much")
	}
	if c.Bytes() != 50 {
		t.Fatalf("Bytes = %d, want 50", c.Bytes())
	}
}

func TestOverwriteAccounting(t *testing.T) {
	c := New(0)
	c.Add("f", 0, 100)
	c.Add("f", 50, 100) // overlaps 50 bytes
	if c.Bytes() != 150 {
		t.Fatalf("Bytes = %d, want 150 after overlapping add", c.Bytes())
	}
}

func TestBoundedEviction(t *testing.T) {
	c := New(250)
	for i := int64(0); i < 5; i++ {
		c.Add("f", i*1000, 100)
	}
	if c.Bytes() > 250 {
		t.Fatalf("Bytes = %d exceeds bound 250", c.Bytes())
	}
	if c.Evicted() == 0 {
		t.Fatal("no evictions recorded")
	}
	// Oldest entries go first.
	if c.Contains("f", 0, 100) {
		t.Fatal("oldest entry survived eviction")
	}
	if !c.Contains("f", 4000, 100) {
		t.Fatal("newest entry was evicted")
	}
}

func TestEvictionSkipsOverwrittenRanges(t *testing.T) {
	c := New(0) // unbounded; manipulate directly
	c = New(300)
	c.Add("f", 0, 100)
	c.Add("f", 0, 100) // overwrite: old FIFO ref is stale
	c.Add("f", 1000, 100)
	c.Add("f", 2000, 100)
	// Inserting one more (total would be 400 tracked across refs) forces
	// eviction; the stale ref must not evict the newer overwrite.
	c.Add("f", 3000, 100)
	if c.Bytes() > 300 {
		t.Fatalf("Bytes = %d exceeds bound", c.Bytes())
	}
}

// TestUnflaggedRunsMerge: in an unbounded table, unflagged Adds that
// overlap or touch merge into one run, while a gap keeps runs apart.
func TestUnflaggedRunsMerge(t *testing.T) {
	c := New(0)
	c.Add("f", 0, 100)
	c.Add("f", 100, 100) // touches
	c.Add("f", 150, 100) // overlaps
	c.Add("f", 400, 50)  // gap before it
	got := c.Extents()
	if len(got) != 2 || got[0].Off != 0 || got[0].Len != 250 || got[1].Off != 400 || got[1].Len != 50 {
		t.Fatalf("runs = %+v, want [0,250) and [400,450)", got)
	}
	if c.Bytes() != 300 {
		t.Fatalf("Bytes = %d, want 300", c.Bytes())
	}
	c.Add("f", 250, 150) // fills the gap
	if got := c.Extents(); len(got) != 1 || got[0].Len != 450 {
		t.Fatalf("runs = %+v, want one run of 450 bytes", got)
	}
}

// TestCoveredReAddWritesNothing pins the read-hit property: re-adding a
// range one unflagged run covers stamps no sequence, marks no slot
// changed and moves no byte or flag count.
func TestCoveredReAddWritesNothing(t *testing.T) {
	c := New(0)
	c.Add("f", 0, 4096)
	c.Add("f", 4096, 4096)
	c.TakeChanged(false, func(string, uint64) {})
	seq, bytes, flagged, before := c.seq, c.Bytes(), c.PendingBytes(), c.Extents()
	for off := int64(0); off < 8192-512; off += 333 {
		c.Add("f", off, 512)
	}
	if c.seq != seq || c.Bytes() != bytes || c.PendingBytes() != flagged {
		t.Fatalf("covered re-Adds moved seq %d→%d, bytes %d→%d, flagged %d→%d", seq, c.seq, bytes, c.Bytes(), flagged, c.PendingBytes())
	}
	c.TakeChanged(false, func(file string, _ uint64) { t.Fatalf("covered re-Adds marked %s changed", file) })
	if got := c.Extents(); len(got) != 1 || got[0] != before[0] {
		t.Fatalf("entries %+v, want %+v", got, before)
	}
}

// TestSetCFlagClipsToRange: flagging part of a run flags exactly the
// critical bytes inside the range, as one fetch unit, and leaves the rest
// of the run unflagged.
func TestSetCFlagClipsToRange(t *testing.T) {
	c := New(0)
	c.Add("f", 0, 1000)
	c.SetCFlag("f", 200, 100)
	if got := c.PendingFetches(0); len(got) != 1 || got[0].Off != 200 || got[0].Len != 100 {
		t.Fatalf("PendingFetches = %+v, want [200,300)", got)
	}
	if c.PendingBytes() != 100 || c.Bytes() != 1000 || c.Entries() != 3 {
		t.Fatalf("pending %d, bytes %d, entries %d; want 100, 1000, 3", c.PendingBytes(), c.Bytes(), c.Entries())
	}
}

// TestFlaggedEntriesKeepBoundaries: adjacent flagged entries stay separate
// fetch units, ClearCFlag clears a flagged entry whole, and a cleared
// entry merges back into the unflagged runs it touches.
func TestFlaggedEntriesKeepBoundaries(t *testing.T) {
	c := New(0)
	c.Add("f", 0, 300)
	c.SetCFlag("f", 0, 100)
	c.SetCFlag("f", 100, 100)
	if got := c.PendingFetches(0); len(got) != 2 {
		t.Fatalf("PendingFetches = %+v, want two fetch units", got)
	}
	c.ClearCFlag("f", 150, 1)
	if got := c.PendingFetches(0); len(got) != 1 || got[0].Off != 0 || got[0].Len != 100 {
		t.Fatalf("PendingFetches = %+v, want only [0,100) left", got)
	}
	if got := c.Extents(); len(got) != 2 || got[1].Off != 100 || got[1].Len != 200 || got[1].CFlag {
		t.Fatalf("entries = %+v, want flagged [0,100) and unflagged [100,300)", got)
	}
	c.ClearCFlag("f", 0, 1)
	if got := c.Extents(); len(got) != 1 || got[0].Len != 300 || c.PendingBytes() != 0 {
		t.Fatalf("entries = %+v, pending %d; want one unflagged run", got, c.PendingBytes())
	}
}

// TestBoundedTableDoesNotMerge: a bounded table stamps every Add for its
// FIFO, so a covered re-Add restamps the range and touching runs stay
// separate entries.
func TestBoundedTableDoesNotMerge(t *testing.T) {
	c := New(1 << 20)
	c.Add("f", 0, 100)
	c.Add("f", 100, 100)
	if c.Entries() != 2 {
		t.Fatalf("Entries = %d, want 2", c.Entries())
	}
	seq := c.seq
	c.Add("f", 0, 100)
	if c.seq != seq+1 || len(c.order) != 3 {
		t.Fatalf("re-Add in a bounded table: seq %d→%d, %d FIFO refs; want a fresh stamp and ref", seq, c.seq, len(c.order))
	}
}
