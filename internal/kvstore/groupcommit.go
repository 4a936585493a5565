package kvstore

// Leader/follower group commit.
//
// A committer encodes its record into a pooled waiter, enqueues it, and
// elects itself leader if no leader is active; otherwise it blocks on its
// waiter channel. The leader drains the whole queue as one group,
// appends a single WAL frame — the raw record when the group has one
// member (byte-identical to a sequential commit, which keeps the
// single-threaded simulation's WAL unchanged), or one opBatch frame
// wrapping the concatenated records otherwise — then hands leadership to
// the head of the next group (if any) and wakes its group's waiters.
//
// Durability is unchanged from the sequential store: a committer's call
// does not return until the frame carrying its record has been appended.
// What the group buys is one backend append (one device sync) amortized
// across every committer in the group.

// waiterSignal is the message a blocked committer receives.
type waiterSignal byte

const (
	// waiterDone: the waiter's record is durable (or failed); err is set.
	waiterDone waiterSignal = iota
	// waiterLead: the previous leader retired with this waiter at the head
	// of the queue — it must take over leadership.
	waiterLead
)

// commitWaiter carries one committer's encoded record through the queue.
// Put/Delete waiters are pooled per shard (the shard lock is held for the
// whole commit, so the freelist needs no locking of its own); batch
// waiters are allocated per commit.
type commitWaiter struct {
	buf []byte
	err error
	ch  chan waiterSignal
}

func (sh *shard) getWaiter() *commitWaiter {
	if n := len(sh.free); n > 0 {
		w := sh.free[n-1]
		sh.free = sh.free[:n-1]
		return w
	}
	return newWaiter()
}

func (sh *shard) putWaiter(w *commitWaiter) {
	sh.free = append(sh.free, w)
}

func newWaiter() *commitWaiter {
	return &commitWaiter{ch: make(chan waiterSignal, 1)}
}

// groupCommit makes w's record durable through the group-commit queue and
// returns its commit error. The caller holds the shard lock(s) covering
// the keys in w.buf for the whole call, so a record becomes visible in
// memory only after — and in the same per-key order as — its WAL frame.
func (s *Store) groupCommit(w *commitWaiter) error {
	w.err = nil
	s.qmu.Lock()
	s.queue = append(s.queue, w)
	lead := !s.leading
	if lead {
		s.leading = true
	}
	s.qmu.Unlock()

	if !lead {
		if <-w.ch == waiterDone {
			return w.err
		}
		// Promoted: the retiring leader saw this waiter at the head of the
		// queue. Its record is still queued — fall through and lead.
	}
	s.lead(w)
	return w.err
}

// lead drains the current queue as one group, commits it, then either
// promotes the next leader or retires. self is always a member of the
// drained group: an elected leader enqueued before electing itself, and a
// promoted leader was queued when the previous leader chose it.
func (s *Store) lead(self *commitWaiter) {
	s.qmu.Lock()
	group := s.queue
	// Ping-pong the queue buffers so steady-state enqueues reuse capacity.
	s.queue = s.qspare
	s.qspare = nil
	s.qmu.Unlock()

	err := s.appendFrame(s.buildFrame(group))
	s.groupCommits.Add(1)
	s.groupedRecords.Add(uint64(len(group)))

	// Hand off leadership before waking the group: a woken follower may
	// immediately start another commit, and it must find either an active
	// leader or a fully retired one — never a half-retired leader that
	// would strand its record in the queue.
	s.qmu.Lock()
	var next *commitWaiter
	if len(s.queue) > 0 {
		next = s.queue[0]
	} else {
		s.leading = false
	}
	s.qmu.Unlock()
	if next != nil {
		next.ch <- waiterLead
	}

	for _, gw := range group {
		gw.err = err
		if gw != self {
			gw.ch <- waiterDone
		}
	}
	self.err = err

	// Return the drained slice for reuse by a later drain.
	for i := range group {
		group[i] = nil
	}
	s.qmu.Lock()
	if s.qspare == nil {
		s.qspare = group[:0]
	}
	s.qmu.Unlock()
}

// buildFrame encodes one WAL frame for the group: a single committer's
// record passes through verbatim; a larger group is wrapped in one opBatch
// frame so the whole group commits atomically under one CRC. frameBuf and
// frameScratch are safe leader-only scratch: leadership is exclusive, and
// the frame is fully consumed by appendFrame (backends copy) before the
// next leader is promoted.
func (s *Store) buildFrame(group []*commitWaiter) []byte {
	if len(group) == 1 {
		return group[0].buf
	}
	s.frameBuf = s.frameBuf[:0]
	for _, w := range group {
		s.frameBuf = append(s.frameBuf, w.buf...)
	}
	s.frameScratch = appendRecord(s.frameScratch[:0], opBatch, "", s.frameBuf)
	return s.frameScratch
}
