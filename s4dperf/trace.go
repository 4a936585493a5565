package main

import (
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"s4dcache/internal/core"
	"s4dcache/internal/kvstore"
	"s4dcache/internal/netserve"
	"s4dcache/internal/pfs"
	"s4dcache/internal/sim"
)

// tracer records spans and counts at the public interfaces of each layer,
// from outside the program: the wrappers below stand between the layers
// when the traced run assembles the deployment. Spans are kept in memory
// and analysed when the round ends. Times are ns since origin.
type tracer struct {
	origin time.Time

	// Each record list has its own mutex so that engine calls, backend
	// completions and timer firings do not queue behind one another.
	// gen bumps on reset; a span end from before it is dropped.
	engMu, backMu, lateMu, kvMu sync.Mutex
	gen                         atomic.Int64
	eng                         []engSpan
	back                        []backSpan
	late                        []int64
	kvAppend                    []int64

	timers               atomic.Int64
	kvBytes              atomic.Int64
	wireCalls, wireBytes atomic.Int64
	fgBytes, bgBytes     atomic.Int64
	opfsCalls, cpfsCalls atomic.Int64
}

// engSpan is one engine call: start and end of the request, ret when the
// synchronous call returned. ptr/size locate the caller's buffer.
type engSpan struct {
	start, ret, end int64
	file            string
	off, size       int64
	ptr             uintptr
	write           bool
}

// backSpan is one foreground PFS call made by the engine.
type backSpan struct {
	start, end int64
	file       string
	ptr        uintptr
	opfs       bool
}

// clientSpan is one request as the client saw it.
type clientSpan struct {
	file       string
	off        int64
	write      bool
	send, recv int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64               { return int64(time.Since(t.origin)) }
func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.origin)) }

// reset drops everything recorded so far (the set-up traffic).
func (t *tracer) reset() {
	t.engMu.Lock()
	t.backMu.Lock()
	t.lateMu.Lock()
	t.kvMu.Lock()
	t.gen.Add(1)
	t.eng, t.back, t.late, t.kvAppend = nil, nil, nil, nil
	t.kvMu.Unlock()
	t.lateMu.Unlock()
	t.backMu.Unlock()
	t.engMu.Unlock()
	for _, c := range []*atomic.Int64{&t.timers, &t.kvBytes, &t.wireCalls, &t.wireBytes, &t.fgBytes, &t.bgBytes, &t.opfsCalls, &t.cpfsCalls} {
		c.Store(0)
	}
}

func bufPtr(b []byte) uintptr {
	if len(b) == 0 {
		return 0
	}
	return uintptr(unsafe.Pointer(&b[0]))
}

// tracedEngine times every engine call from netserve's side.
type tracedEngine struct {
	inner netserve.Engine
	t     *tracer
}

func (e *tracedEngine) Write(rank int, file string, off, size int64, data []byte, done func(error)) error {
	gen, i := e.t.beginEng(file, off, size, data, true)
	err := e.inner.Write(rank, file, off, size, data, func(err error) { e.t.endEng(gen, i); done(err) })
	e.t.retEng(gen, i)
	return err
}

func (e *tracedEngine) Read(rank int, file string, off, size int64, buf []byte, done func(error)) error {
	gen, i := e.t.beginEng(file, off, size, buf, false)
	err := e.inner.Read(rank, file, off, size, buf, func(err error) { e.t.endEng(gen, i); done(err) })
	e.t.retEng(gen, i)
	return err
}

func (t *tracer) beginEng(file string, off, size int64, b []byte, write bool) (int64, int) {
	s := engSpan{start: t.now(), file: file, off: off, size: size, ptr: bufPtr(b), write: write}
	t.engMu.Lock()
	t.eng = append(t.eng, s)
	gen, i := t.gen.Load(), len(t.eng)-1
	t.engMu.Unlock()
	return gen, i
}

func (t *tracer) retEng(gen int64, i int) {
	now := t.now()
	t.engMu.Lock()
	if gen == t.gen.Load() {
		t.eng[i].ret = now
	}
	t.engMu.Unlock()
}

func (t *tracer) endEng(gen int64, i int) {
	now := t.now()
	t.engMu.Lock()
	if gen == t.gen.Load() {
		t.eng[i].end = now
	}
	t.engMu.Unlock()
}

// tracedBackend counts every PFS call and times the foreground ones; the
// Rebuilder's background calls run at low priority.
type tracedBackend struct {
	inner *pfs.WallFS
	t     *tracer
	opfs  bool
}

var _ core.Backend = (*tracedBackend)(nil)

func (b *tracedBackend) Write(file string, off, size int64, pri sim.Priority, data []byte, done func(error)) error {
	done = b.t.backCall(b.opfs, file, size, pri, data, done)
	return b.inner.Write(file, off, size, pri, data, done)
}

func (b *tracedBackend) Read(file string, off, size int64, pri sim.Priority, buf []byte, done func(error)) error {
	done = b.t.backCall(b.opfs, file, size, pri, buf, done)
	return b.inner.Read(file, off, size, pri, buf, done)
}

func (b *tracedBackend) RangeDown(off, size int64) bool { return b.inner.RangeDown(off, size) }
func (b *tracedBackend) Layout() pfs.Layout             { return b.inner.Layout() }

// backCall records one PFS call and returns its completion wrapper.
func (t *tracer) backCall(opfs bool, file string, size int64, pri sim.Priority, b []byte, done func(error)) func(error) {
	if opfs {
		t.opfsCalls.Add(1)
	} else {
		t.cpfsCalls.Add(1)
	}
	if pri != sim.PriorityHigh {
		t.bgBytes.Add(size)
		return done
	}
	t.fgBytes.Add(size)
	s := backSpan{start: t.now(), file: file, ptr: bufPtr(b), opfs: opfs}
	t.backMu.Lock()
	t.back = append(t.back, s)
	gen, i := t.gen.Load(), len(t.back)-1
	t.backMu.Unlock()
	return func(err error) {
		now := t.now()
		t.backMu.Lock()
		if gen == t.gen.Load() {
			t.back[i].end = now
		}
		t.backMu.Unlock()
		done(err)
	}
}

// tracedClock counts timers and how late each fired.
type tracedClock struct {
	inner *sim.WallClock
	t     *tracer
}

func (c *tracedClock) Now() time.Duration { return c.inner.Now() }

func (c *tracedClock) After(d time.Duration, fn func()) {
	c.t.timers.Add(1)
	due := c.inner.Now() + d
	c.inner.After(d, func() {
		late := int64(c.inner.Now() - due)
		c.t.lateMu.Lock()
		c.t.late = append(c.t.late, late)
		c.t.lateMu.Unlock()
		fn()
	})
}

// tracedKV times the metadata store's WAL appends.
type tracedKV struct {
	inner kvstore.Backend
	t     *tracer
}

func (k *tracedKV) ReadAll(name string) ([]byte, error)    { return k.inner.ReadAll(name) }
func (k *tracedKV) Replace(name string, data []byte) error { return k.inner.Replace(name, data) }
func (k *tracedKV) Remove(name string) error               { return k.inner.Remove(name) }

func (k *tracedKV) Append(name string, data []byte) error {
	start := time.Now()
	err := k.inner.Append(name, data)
	d := int64(time.Since(start))
	k.t.kvBytes.Add(int64(len(data)))
	k.t.kvMu.Lock()
	k.t.kvAppend = append(k.t.kvAppend, d)
	k.t.kvMu.Unlock()
	return err
}

// tracedConn counts socket calls and bytes written on either endpoint.
type tracedConn struct {
	net.Conn
	t *tracer
}

func (t *tracer) wrapConn(c net.Conn, _ int) net.Conn { return &tracedConn{Conn: c, t: t} }

func (c *tracedConn) Read(b []byte) (int, error) {
	c.t.wireCalls.Add(1)
	return c.Conn.Read(b)
}

func (c *tracedConn) Write(b []byte) (int, error) {
	c.t.wireCalls.Add(1)
	n, err := c.Conn.Write(b)
	c.t.wireBytes.Add(int64(n))
	return n, err
}

// breakdown is the per-request decomposition of a traced round.
type breakdown struct {
	wire, core []int64 // self times, ns
	residual   float64
	issueNS    float64 // mean synchronous engine call time
	waits      []int64 // foreground backend durations
}

// attribute splits each client round trip into wire, engine and backend
// time. The wire is the round trip minus the matched engine span; the
// engine's self time is its span minus the part its backend calls cover.
//
// Client calls match engine spans exactly: per (file, offset, direction)
// they arrive in send order, as each block belongs to one connection.
// Which engine call issued a backend call cannot be seen from outside, so
// it is attributed by time overlap: among the engine calls whose
// synchronous section contains the backend call's start (else those in
// flight then), prefer the one whose buffer the call uses, then, on the
// DServers, the one naming the same file, then the latest started.
//
// The residual compares the sum of all wire, engine-self and backend
// times with the sum of round trips. It is 0 when every piece is found
// once and nests in its parent; an unmatched span, a backend call that no
// request covers or two calls overlapping inside one request move it.
func attribute(eng []engSpan, back []backSpan, client []clientSpan) breakdown {
	var bd breakdown
	sort.Slice(eng, func(i, j int) bool { return eng[i].start < eng[j].start })
	sort.Slice(back, func(i, j int) bool { return back[i].start < back[j].start })

	covered := make([][][2]int64, len(eng))
	var backSum int64
	for _, b := range back {
		if b.end == 0 {
			continue
		}
		bd.waits = append(bd.waits, b.end-b.start)
		backSum += b.end - b.start
		hi := sort.Search(len(eng), func(i int) bool { return eng[i].start > b.start })
		best, bestScore := -1, -1
		for i := hi - 1; i >= 0 && i >= hi-256; i-- {
			e := &eng[i]
			score := 0
			switch {
			case e.ret >= b.start:
				score = 8
			case e.end >= b.end:
				score = 4
			default:
				continue
			}
			if b.ptr != 0 && e.ptr != 0 && b.ptr >= e.ptr && b.ptr < e.ptr+uintptr(e.size) {
				score += 2
			}
			if b.opfs && b.file == e.file {
				score++
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		if best >= 0 {
			covered[best] = append(covered[best], [2]int64{b.start, b.end})
		}
	}

	var coreSum, engIssue int64
	for i := range eng {
		e := &eng[i]
		self := e.end - e.start - union(covered[i], e.start, e.end)
		bd.core = append(bd.core, self)
		coreSum += self
		engIssue += e.ret - e.start
	}
	bd.issueNS = share(float64(engIssue), float64(len(eng)))

	type key struct {
		file  string
		off   int64
		write bool
	}
	byKey := map[key][]int{}
	for i := range eng {
		k := key{eng[i].file, eng[i].off, eng[i].write}
		byKey[k] = append(byKey[k], i)
	}
	sort.Slice(client, func(i, j int) bool { return client[i].send < client[j].send })
	var wireSum, rttSum int64
	for _, c := range client {
		rtt := c.recv - c.send
		rttSum += rtt
		k := key{netserve.TenantName(tenant, c.file), c.off, c.write}
		q := byKey[k]
		if len(q) == 0 {
			continue
		}
		e := &eng[q[0]]
		byKey[k] = q[1:]
		w := rtt - (e.end - e.start)
		bd.wire = append(bd.wire, w)
		wireSum += w
	}
	bd.residual = share(float64(wireSum+coreSum+backSum-rttSum), float64(rttSum))
	return bd
}

// union is the length of the union of intervals, clipped to [lo, hi].
func union(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// netLayers computes a traced network round's per-layer metrics.
func netLayers(t *tracer, client []clientSpan, b, a counters, completed int64) map[string]float64 {
	t.engMu.Lock()
	eng := append([]engSpan(nil), t.eng...)
	t.engMu.Unlock()
	t.backMu.Lock()
	back := append([]backSpan(nil), t.back...)
	t.backMu.Unlock()
	t.lateMu.Lock()
	late := append([]int64(nil), t.late...)
	t.lateMu.Unlock()
	t.kvMu.Lock()
	kv := append([]int64(nil), t.kvAppend...)
	t.kvMu.Unlock()
	bd := attribute(eng, back, client)
	ops := float64(completed)
	wrBytes := float64(a.eng.BytesWritten - b.eng.BytesWritten)
	de, ds := a.eng, b.eng
	fetched := float64(de.BytesFlushed - ds.BytesFlushed + de.BytesFetched - ds.BytesFetched)
	wasted := float64(de.FlushRetries - ds.FlushRetries + de.FetchRetries - ds.FetchRetries + de.FetchFailures - ds.FetchFailures)
	moves := float64(de.Flushes-ds.Flushes+de.Fetches-ds.Fetches) + wasted
	admits := float64(de.Admissions - ds.Admissions)
	fg, bg := float64(t.fgBytes.Load()), float64(t.bgBytes.Load())
	return map[string]float64{
		"wire.self_us_p50":             quantileUS(bd.wire, 0.5),
		"wire.syscalls_per_op":         share(float64(t.wireCalls.Load()), ops),
		"wire.bytes_per_op":            share(float64(t.wireBytes.Load()), ops),
		"netserve.busy_share":          share(float64(a.srv.Busy-b.srv.Busy), float64(a.srv.Requests-b.srv.Requests)),
		"core.self_us_p50":             quantileUS(bd.core, 0.5),
		"core.self_us_p99":             quantileUS(bd.core, 0.99),
		"core.critical_share":          share(float64(de.Critical-ds.Critical), float64(de.Identified-ds.Identified)),
		"core.issue_us_per_op":         bd.issueNS / 1e3,
		"cachespace.read_hit_share":    readHitShare(ds, de),
		"cachespace.admit_share":       share(admits, admits+float64(de.AdmitFailures-ds.AdmitFailures)),
		"cachespace.evictions_per_op":  share(float64(de.CacheEvictions-ds.CacheEvictions), ops),
		"cdt.entries":                  float64(a.cdt),
		"dmt.entries":                  float64(a.dmt),
		"rebuild.bytes_per_write_byte": share(fetched, wrBytes),
		"rebuild.wasted_share":         share(wasted, moves),
		"pfs.bg_bytes_share":           share(bg, fg+bg),
		"kvstore.append_us_p50":        quantileUS(kv, 0.5),
		"kvstore.bytes_per_user_byte":  share(float64(t.kvBytes.Load()), wrBytes),
		"kvstore.group_size":           share(float64(a.kv.GroupedRecords-b.kv.GroupedRecords), float64(a.kv.GroupCommits-b.kv.GroupCommits)),
		"pfs.opfs_calls_per_op":        share(float64(t.opfsCalls.Load()), ops),
		"pfs.cpfs_calls_per_op":        share(float64(t.cpfsCalls.Load()), ops),
		"pfs.wait_us_p50":              quantileUS(bd.waits, 0.5),
		"clock.timers_per_op":          share(float64(t.timers.Load()), ops),
		"clock.late_us_p99":            quantileUS(late, 0.99),
		"trace.residual_share":         bd.residual,
	}
}
