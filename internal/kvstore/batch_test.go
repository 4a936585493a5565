package kvstore

import (
	"fmt"
	"testing"
)

func TestBatchCommitAppliesAll(t *testing.T) {
	b := NewMemBackend()
	s, _ := Open(b, "dmt", Options{})
	batch := s.NewBatch()
	batch.Put("a", []byte("1"))
	batch.Put("b", []byte("2"))
	batch.Delete("missing")
	if batch.Len() != 3 {
		t.Fatalf("Len = %d", batch.Len())
	}
	if err := batch.Commit(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("store has %d keys", s.Len())
	}
	v, ok := s.Get("b")
	if !ok || string(v) != "2" {
		t.Fatal("batched put missing")
	}
	// Batch survives crash/reopen.
	s2, err := Open(b, "dmt", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Fatalf("recovered %d keys", s2.Len())
	}
	if s2.Stats().RecoveredRecords != 3 {
		t.Fatalf("recovered %d leaf records, want 3", s2.Stats().RecoveredRecords)
	}
}

func TestBatchAtomicUnderTornTail(t *testing.T) {
	b := NewMemBackend()
	s, _ := Open(b, "dmt", Options{})
	if err := s.Put("before", []byte("x")); err != nil {
		t.Fatal(err)
	}
	batch := s.NewBatch()
	for i := 0; i < 10; i++ {
		batch.Put(fmt.Sprintf("k%d", i), []byte("v"))
	}
	if err := batch.Commit(); err != nil {
		t.Fatal(err)
	}
	// Tear the WAL inside the batch record: the whole batch must vanish,
	// the earlier put must survive.
	wal, _ := b.ReadAll("dmt.wal")
	b.Truncate("dmt.wal", len(wal)-20)
	s2, err := Open(b, "dmt", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("recovered %d keys, want 1 (half-applied batch?)", s2.Len())
	}
	if _, ok := s2.Get("before"); !ok {
		t.Fatal("pre-batch put lost")
	}
}

func TestBatchEmptyCommitNoop(t *testing.T) {
	b := NewMemBackend()
	s, _ := Open(b, "dmt", Options{})
	if err := s.NewBatch().Commit(); err != nil {
		t.Fatal(err)
	}
	wal, _ := b.ReadAll("dmt.wal")
	if len(wal) != 0 {
		t.Fatal("empty batch wrote to the WAL")
	}
}

func TestBatchDeleteAndOverwrite(t *testing.T) {
	b := NewMemBackend()
	s, _ := Open(b, "dmt", Options{})
	if err := s.Put("k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	batch := s.NewBatch()
	batch.Delete("k")
	batch.Put("k", []byte("new"))
	if err := batch.Commit(); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Get("k")
	if !ok || string(v) != "new" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	// Order within the batch matters on replay too.
	s2, _ := Open(b, "dmt", Options{})
	v, ok = s2.Get("k")
	if !ok || string(v) != "new" {
		t.Fatalf("recovered Get = %q,%v", v, ok)
	}
}

func TestBatchFailurePropagates(t *testing.T) {
	b := NewMemBackend()
	s, _ := Open(b, "dmt", Options{})
	batch := s.NewBatch()
	batch.Put("k", []byte("v"))
	b.FailAppends = true
	if err := batch.Commit(); err == nil {
		t.Fatal("commit on failing backend succeeded")
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("failed batch visible in memory")
	}
}

func TestBatchCompactionRoundTrip(t *testing.T) {
	b := NewMemBackend()
	s, _ := Open(b, "dmt", Options{})
	batch := s.NewBatch()
	for i := 0; i < 20; i++ {
		batch.Put(fmt.Sprintf("k%02d", i), []byte{byte(i)})
	}
	if err := batch.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(b, "dmt", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 20 {
		t.Fatalf("post-compact recovery: %d keys", s2.Len())
	}
}

func TestDeletePrefixBatches(t *testing.T) {
	s, _ := Open(NewMemBackend(), "dmt", Options{})
	const n = 2*deletePrefixBatch + 7
	for i := 0; i < n; i++ {
		if err := s.Put(fmt.Sprintf("op|%05d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put("keep", []byte("y")); err != nil {
		t.Fatal(err)
	}
	commits := s.Stats().GroupCommits
	if err := s.DeletePrefix("op|"); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().GroupCommits - commits; got != 3 {
		t.Fatalf("DeletePrefix committed %d WAL frames for %d keys, want 3", got, n)
	}
	if s.Len() != 1 || len(s.Keys("op|")) != 0 {
		t.Fatalf("store left %d keys (%d under the prefix)", s.Len(), len(s.Keys("op|")))
	}
}
