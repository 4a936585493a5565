package kvstore

import "fmt"

// Batch is an atomic group of mutations: either every operation in the
// batch survives a crash, or none does. The batch is framed as a single
// WAL record (opBatch) whose payload is the concatenated sub-records, so
// a torn tail can never apply half a batch. Berkeley DB offers the same
// through transactions; the DMT uses batches for multi-fragment mapping
// updates.
type Batch struct {
	store   *Store
	payload []byte
	count   int
	ops     []logRecord
}

type logRecord struct {
	op  byte
	key string
	val []byte
}

// NewBatch starts an empty batch against the store.
func (s *Store) NewBatch() *Batch {
	return &Batch{store: s}
}

// Put queues a put.
func (b *Batch) Put(key string, val []byte) {
	b.payload = appendRecord(b.payload, opPut, key, val)
	b.ops = append(b.ops, logRecord{op: opPut, key: key, val: append([]byte(nil), val...)})
	b.count++
}

// Delete queues a delete.
func (b *Batch) Delete(key string) {
	b.payload = appendRecord(b.payload, opDel, key, nil)
	b.ops = append(b.ops, logRecord{op: opDel, key: key})
	b.count++
}

// Len returns the number of queued operations.
func (b *Batch) Len() int { return b.count }

// Commit atomically applies the batch. An empty batch is a no-op. The
// batch must not be reused after Commit.
//
// Every shard the batch touches is locked (in index order, so concurrent
// batches cannot deadlock) for the duration of the commit; single-key
// writers in other shards are unaffected. A batch committed concurrently
// with other writers may be grouped by the commit leader, nesting its
// opBatch record inside the group's frame — replay unpacks nested frames.
func (b *Batch) Commit() error {
	if b.count == 0 {
		return nil
	}
	s := b.store
	var touched [numShards]bool
	for _, op := range b.ops {
		touched[shardIndex(op.key)] = true
	}
	for i := range s.shards {
		if touched[i] {
			s.shards[i].mu.Lock()
		}
	}
	defer func() {
		for i := range s.shards {
			if touched[i] {
				s.shards[i].mu.Unlock()
			}
		}
	}()

	w := newWaiter()
	w.buf = appendRecord(w.buf, opBatch, "", b.payload)
	if err := s.groupCommit(w); err != nil {
		return fmt.Errorf("kvstore: batch commit: %w", err)
	}
	for _, op := range b.ops {
		sh := &s.shards[shardIndex(op.key)]
		switch op.op {
		case opPut:
			sh.data[op.key] = op.val
			sh.puts++
		case opDel:
			delete(sh.data, op.key)
			sh.dels++
		}
	}
	b.payload = nil
	b.ops = nil
	b.count = 0
	return nil
}

// deletePrefixBatch caps the deletes per batch in DeletePrefix, so one
// sweep never produces an unbounded WAL record.
const deletePrefixBatch = 256

// DeletePrefix removes every key under prefix, committing the deletes
// in bounded batches (one commit per batch, not per key). Each batch is
// atomic; the sweep as a whole is not.
func (s *Store) DeletePrefix(prefix string) error {
	keys := s.Keys(prefix)
	for len(keys) > 0 {
		n := min(len(keys), deletePrefixBatch)
		b := s.NewBatch()
		for _, k := range keys[:n] {
			b.Delete(k)
		}
		if err := b.Commit(); err != nil {
			return err
		}
		keys = keys[n:]
	}
	return nil
}
