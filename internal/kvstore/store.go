package kvstore

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Options configures a Store. It has no fields: every mutation is durable
// before it returns — the paper's choice: "changes to the mapping table
// are synchronously written to the storage in order to survive power
// failures" (§III.D). Concurrent committers are merged by a group commit
// (see groupcommit.go): a committer still never returns before its record
// is durable, but one WAL append can carry a whole group.
type Options struct{}

// numShards stripes the key space. Must be a power of two.
const numShards = 16

// shard is one lock stripe of the store: a slice of the key space with
// its own mutex, so operations on keys in different shards never contend.
// The shard mutex is held for the full duration of a mutation — encode,
// group commit, apply — which keeps per-key WAL order identical to
// per-key apply order (recovery then always reproduces the live state).
type shard struct {
	mu   sync.RWMutex
	data map[string][]byte
	// cow marks a copy-on-write snapshot in progress: Compact has cloned
	// this shard's map and still shares the value slices, so overwrites
	// must allocate fresh slices instead of reusing old capacity in place.
	cow bool
	// free recycles commit waiters for this shard's mutations. It is only
	// touched under mu (a committer holds its shard lock across the whole
	// commit), so no extra synchronization is needed.
	free []*commitWaiter

	// puts and dels are guarded by mu (write lock); gets is atomic because
	// lookups only hold the read lock.
	puts, dels uint64
	gets       atomic.Uint64
}

// shardIndex hashes a key to its lock stripe (FNV-1a, allocation-free).
func shardIndex(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return h & (numShards - 1)
}

// Store is a durable hash-table key-value store, sharded by key hash for
// concurrent access. Durability flows through a single write-ahead log
// fed by a leader/follower group commit.
type Store struct {
	backend Backend
	name    string
	// walFile and snapFile are the derived backend names, computed once so
	// the commit hot path does not concatenate strings per append.
	walFile  string
	snapFile string

	shards [numShards]shard

	// Group-commit state (groupcommit.go). queue holds waiters whose
	// records the next leader will drain; qspare is the ping-pong buffer
	// that lets queue swaps reuse capacity; leading marks an active leader.
	qmu     sync.Mutex
	queue   []*commitWaiter
	qspare  []*commitWaiter
	leading bool
	// frameBuf and frameScratch are leader-only scratch for building a
	// multi-record group frame; leaders are serialized, so one pair per
	// store is safe.
	frameBuf     []byte
	frameScratch []byte

	// walMu serializes WAL appends against each other and against the
	// compaction swap. side captures, in append order, every frame
	// committed while a background snapshot is being written (sideActive),
	// so the snapshot can be brought forward to the swap point.
	walMu      sync.Mutex
	sideActive bool
	side       []byte

	// compactMu serializes Compact calls.
	compactMu sync.Mutex

	walBytes       atomic.Int64
	groupCommits   atomic.Uint64
	groupedRecords atomic.Uint64
	recovered      int
	// tornWALBytes counts trailing WAL garbage truncated away at Open (a
	// mid-write crash); snapQuarantined marks a snapshot whose whole-frame
	// CRC failed at Open, so recovery continued from the WAL alone.
	tornWALBytes    int64
	snapQuarantined bool
}

// walName and snapName derive the backend file names of a store.
func walName(name string) string  { return name + ".wal" }
func snapName(name string) string { return name + ".snap" }

// Open loads (or creates) the named store on backend: the snapshot is read
// first, then the write-ahead log is replayed over it.
func Open(backend Backend, name string, _ Options) (*Store, error) {
	if backend == nil {
		return nil, fmt.Errorf("kvstore: backend is required")
	}
	s := &Store{
		backend:  backend,
		name:     name,
		walFile:  walName(name),
		snapFile: snapName(name),
	}
	for i := range s.shards {
		s.shards[i].data = make(map[string][]byte)
	}
	snap, err := backend.ReadAll(snapName(name))
	if err != nil {
		return nil, fmt.Errorf("kvstore: read snapshot: %w", err)
	}
	if payload, ok := openSnapshot(snap); ok {
		replay(payload, s.applyRecord)
	} else {
		// Damaged frame: quarantine the whole snapshot — a prefix of a
		// corrupt snapshot could silently miss keys that later WAL records
		// assume exist. The store still opens and replays the WAL; the
		// caller sees the quarantine in Stats and recovers degraded.
		s.snapQuarantined = true
	}
	wal, err := backend.ReadAll(walName(name))
	if err != nil {
		return nil, fmt.Errorf("kvstore: read wal: %w", err)
	}
	count, consumed := replayConsumed(wal, s.applyRecord)
	s.recovered = count
	if consumed < len(wal) {
		// A torn tail from a mid-write crash (or mid-log corruption).
		// Truncate it away so the next append starts on a record boundary:
		// appending after garbage would strand every later record behind
		// bytes replay refuses to cross.
		s.tornWALBytes = int64(len(wal) - consumed)
		if err := backend.Replace(s.walFile, wal[:consumed]); err != nil {
			return nil, fmt.Errorf("kvstore: truncate torn wal tail: %w", err)
		}
	}
	return s, nil
}

// applyRecord routes one replayed record to its shard. Only used during
// Open, which runs before any concurrent access.
func (s *Store) applyRecord(op byte, key string, val []byte) {
	sh := &s.shards[shardIndex(key)]
	switch op {
	case opPut:
		sh.data[key] = val
	case opDel:
		delete(sh.data, key)
	}
}

// Put stores val under key. The call does not return until the record is
// durable.
func (s *Store) Put(key string, val []byte) error {
	sh := &s.shards[shardIndex(key)]
	sh.mu.Lock()
	sh.puts++
	w := sh.getWaiter()
	w.buf = appendRecord(w.buf[:0], opPut, key, val)
	if err := s.groupCommit(w); err != nil {
		sh.putWaiter(w)
		sh.mu.Unlock()
		return err
	}
	if old, ok := sh.data[key]; ok && !sh.cow && cap(old) >= len(val) {
		// Overwrite in place: reuse the existing value slice. Forbidden
		// while a copy-on-write snapshot shares it (cow).
		sh.data[key] = append(old[:0], val...)
	} else {
		sh.data[key] = append([]byte(nil), val...)
	}
	sh.putWaiter(w)
	sh.mu.Unlock()
	return nil
}

// Get returns the value for key and whether it exists. The returned slice
// is a copy.
func (s *Store) Get(key string) ([]byte, bool) {
	sh := &s.shards[shardIndex(key)]
	sh.mu.RLock()
	sh.gets.Add(1)
	v, ok := sh.data[key]
	if !ok {
		sh.mu.RUnlock()
		return nil, false
	}
	out := append([]byte(nil), v...)
	sh.mu.RUnlock()
	return out, true
}

// Delete removes key; deleting a missing key is a no-op.
func (s *Store) Delete(key string) error {
	sh := &s.shards[shardIndex(key)]
	sh.mu.Lock()
	sh.dels++
	if _, ok := sh.data[key]; !ok {
		sh.mu.Unlock()
		return nil
	}
	w := sh.getWaiter()
	w.buf = appendRecord(w.buf[:0], opDel, key, nil)
	if err := s.groupCommit(w); err != nil {
		sh.putWaiter(w)
		sh.mu.Unlock()
		return err
	}
	delete(sh.data, key)
	sh.putWaiter(w)
	sh.mu.Unlock()
	return nil
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.data)
		sh.mu.RUnlock()
	}
	return n
}

// Keys returns all keys with the given prefix, sorted.
func (s *Store) Keys(prefix string) []string {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k := range sh.data {
			if strings.HasPrefix(k, prefix) {
				out = append(out, k)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Scan calls fn for every key/value with the given prefix, in sorted key
// order. The value slice must not be retained.
func (s *Store) Scan(prefix string, fn func(key string, val []byte) bool) {
	for _, k := range s.Keys(prefix) {
		sh := &s.shards[shardIndex(k)]
		sh.mu.RLock()
		v, ok := sh.data[k]
		sh.mu.RUnlock()
		if !ok {
			continue
		}
		if !fn(k, v) {
			return
		}
	}
}

// Compact writes a full snapshot and truncates the write-ahead log. Only
// the caller waits: concurrent readers and writers proceed while the
// snapshot is encoded. The shards are cloned copy-on-write under their
// stripes (cheap — map headers and shared value slices), and every frame
// committed during the encode is captured in a side log that is appended
// to the snapshot before the swap, so the snapshot always lands at the
// swap point's state.
func (s *Store) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	// Start the side capture before cloning: a frame committed after this
	// point lands in the side log; one committed before a shard's clone is
	// also reflected in the clone, and replaying it again is idempotent
	// (records carry absolute values and the side log preserves order).
	s.walMu.Lock()
	s.sideActive = true
	s.side = s.side[:0]
	s.walMu.Unlock()

	// Copy-on-write clone of every shard. The clone shares value slices
	// with the live map; cow makes writers allocate instead of mutating
	// them in place until the swap completes.
	type kv struct {
		key string
		val []byte
	}
	var entries []kv
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, v := range sh.data {
			entries = append(entries, kv{k, v})
		}
		sh.cow = true
		sh.mu.Unlock()
	}
	defer func() {
		for i := range s.shards {
			sh := &s.shards[i]
			sh.mu.Lock()
			sh.cow = false
			sh.mu.Unlock()
		}
	}()

	// Encode the snapshot off every lock: writers proceed.
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	total := 0
	for _, e := range entries {
		total += recordSize(e.key, e.val)
	}
	snap := make([]byte, 0, total+snapFrameOverhead)
	snap = append(snap, snapMagic...)
	for _, e := range entries {
		snap = appendRecord(snap, opPut, e.key, e.val)
	}

	// Swap: bring the snapshot forward with the side log, seal the frame
	// with its whole-file CRC, install it, and truncate the WAL. Appends
	// are excluded for the swap's duration only.
	s.walMu.Lock()
	defer s.walMu.Unlock()
	snap = append(snap, s.side...)
	snap = appendSnapshotCRC(snap)
	s.sideActive = false
	s.side = s.side[:0]
	if err := s.backend.Replace(s.snapFile, snap); err != nil {
		return fmt.Errorf("kvstore: compact: %w", err)
	}
	if err := s.backend.Remove(s.walFile); err != nil {
		return fmt.Errorf("kvstore: truncate wal: %w", err)
	}
	s.walBytes.Store(0)
	return nil
}

// StoreStats is a snapshot of store counters.
type StoreStats struct {
	Puts, Gets, Deletes uint64
	Keys                int
	WALBytes            int64
	RecoveredRecords    int
	// TornWALBytes is the trailing garbage truncated from the WAL at Open;
	// SnapQuarantined reports a snapshot rejected wholesale by its frame CRC.
	TornWALBytes    int64
	SnapQuarantined bool
	// GroupCommits counts durable WAL frames written by group-commit
	// leaders; GroupedRecords counts the committer records they carried.
	// Equal when every commit ran alone (the single-threaded simulation);
	// GroupedRecords/GroupCommits is the mean group size under load.
	GroupCommits   uint64
	GroupedRecords uint64
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() StoreStats {
	st := StoreStats{
		WALBytes:         s.walBytes.Load(),
		RecoveredRecords: s.recovered,
		TornWALBytes:     s.tornWALBytes,
		SnapQuarantined:  s.snapQuarantined,
		GroupCommits:     s.groupCommits.Load(),
		GroupedRecords:   s.groupedRecords.Load(),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		st.Puts += sh.puts
		st.Gets += sh.gets.Load()
		st.Deletes += sh.dels
		st.Keys += len(sh.data)
		sh.mu.RUnlock()
	}
	return st
}

// appendFrame durably appends one WAL frame, feeding the compaction side
// log under the WAL mutex.
func (s *Store) appendFrame(frame []byte) error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if err := s.backend.Append(s.walFile, frame); err != nil {
		return fmt.Errorf("kvstore: wal append: %w", err)
	}
	s.walBytes.Add(int64(len(frame)))
	if s.sideActive {
		s.side = append(s.side, frame...)
	}
	return nil
}
