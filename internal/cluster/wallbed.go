package cluster

import (
	"fmt"
	"net"
	"time"

	"s4dcache/internal/core"
	"s4dcache/internal/costmodel"
	"s4dcache/internal/device"
	"s4dcache/internal/kvstore"
	"s4dcache/internal/netmodel"
	"s4dcache/internal/netserve"
	"s4dcache/internal/pfs"
	"s4dcache/internal/sim"
)

// WallParams parameterizes a wall-clock deployment: the concurrent engine
// over WallFS backends, optionally fronted by a netserve listener. The
// zero value gives the standard small testbed (8+8 servers, 16 shards,
// 512MB cache, performance mode).
type WallParams struct {
	// Shards is the engine concurrency; 0 means 16.
	Shards int
	// CacheCapacity is the cache size; 0 means 512MB.
	CacheCapacity int64
	// PerOpSSD / PerOpHDD are the modeled per-subrequest service times of
	// the cache and original servers; 0 means 100µs / 200µs (small so the
	// network-layer tortures cycle fast).
	PerOpSSD, PerOpHDD time.Duration
	// PersistMeta keeps DMT durability on an in-memory backend so
	// RestartS4D can warm-restart. Implies a 20ms snapshot period.
	PersistMeta bool
	// Payload serves functional mode (payload bytes cross the wire).
	Payload bool
	// Window / WrapConn pass through to netserve.Config.
	Window   int
	WrapConn func(c net.Conn, id int) net.Conn
}

func (p WallParams) withDefaults() WallParams {
	if p.Shards <= 0 {
		p.Shards = 16
	}
	if p.CacheCapacity <= 0 {
		p.CacheCapacity = 512 << 20
	}
	if p.PerOpSSD <= 0 {
		p.PerOpSSD = 100 * time.Microsecond
	}
	if p.PerOpHDD <= 0 {
		p.PerOpHDD = 200 * time.Microsecond
	}
	return p
}

// WallTestbed is a wall-clock deployment: concurrent engine, WallFS
// backends, and a netserve frontend. It mirrors Testbed for the
// goroutine-parallel stack; RestartS4D models an abrupt server-process
// crash (listener and engine die, in-flight requests fail at clients)
// followed by recovery on the same address.
type WallTestbed struct {
	Clock       *sim.WallClock
	OPFS, CPFS  *pfs.WallFS
	Model       costmodel.Params
	Eng         *core.Concurrent
	Server      *netserve.Server
	MetaBackend *kvstore.MemBackend

	params WallParams
	addr   string
}

// NewWallS4D builds the deployment and starts serving on a fresh loopback
// port (WallTestbed.Addr).
func NewWallS4D(p WallParams) (*WallTestbed, error) {
	p = p.withDefaults()
	tb := &WallTestbed{Clock: sim.NewWallClock(), params: p}
	mkWall := func(label string, perOp time.Duration) (*pfs.WallFS, error) {
		return pfs.NewWallFS(pfs.WallConfig{
			Label:       label,
			Layout:      pfs.Layout{Servers: 8, StripeSize: 16 << 10},
			Clock:       tb.Clock,
			Functional:  p.Payload,
			PerOp:       perOp,
			BytesPerSec: 1 << 33,
		})
	}
	var err error
	if tb.OPFS, err = mkWall("OPFS", p.PerOpHDD); err != nil {
		return nil, err
	}
	if tb.CPFS, err = mkWall("CPFS", p.PerOpSSD); err != nil {
		return nil, err
	}
	curve, err := device.ProfileSeekCurve(device.NewHDD(device.DefaultHDDParams()), device.DefaultProfileConfig())
	if err != nil {
		return nil, err
	}
	tb.Model = costmodel.Calibrate(device.DefaultHDDParams(), device.DefaultSSDParams(), netmodel.Gigabit(), curve)
	tb.Model.M = 8
	tb.Model.N = 8
	tb.Model.Stripe = 16 << 10
	if p.PersistMeta {
		tb.MetaBackend = kvstore.NewMemBackend()
	}
	if err := tb.buildEngine(tb.MetaBackend); err != nil {
		return nil, err
	}
	if err := tb.serve(""); err != nil {
		tb.Eng.Close()
		return nil, err
	}
	return tb, nil
}

// buildEngine constructs the concurrent engine; given a meta backend it
// opens the durable meta store there, and the engine recovers whatever
// that store holds.
func (tb *WallTestbed) buildEngine(meta *kvstore.MemBackend) error {
	cfg := core.ConcurrentConfig{
		Clock:         tb.Clock,
		OPFS:          tb.OPFS,
		CPFS:          tb.CPFS,
		Model:         tb.Model,
		CacheCapacity: tb.params.CacheCapacity,
		Concurrency:   tb.params.Shards,
	}
	if meta != nil {
		store, err := kvstore.Open(meta, "dmt", kvstore.Options{})
		if err != nil {
			return fmt.Errorf("cluster: wall meta store: %w", err)
		}
		cfg.MetaStore = store
		cfg.SnapshotPeriod = 20 * time.Millisecond
	}
	eng, err := core.NewConcurrent(cfg)
	if err != nil {
		return fmt.Errorf("cluster: wall engine: %w", err)
	}
	tb.Eng = eng
	return nil
}

// serve starts the netserve frontend; addr "" picks a fresh loopback port,
// otherwise it rebinds the given address (retrying briefly — the old
// listener's port may take a moment to free after a crash).
func (tb *WallTestbed) serve(addr string) error {
	cfg := netserve.Config{
		Engine:   tb.Eng,
		Addr:     addr,
		Window:   tb.params.Window,
		Payload:  tb.params.Payload,
		WrapConn: tb.params.WrapConn,
	}
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		var srv *netserve.Server
		if srv, err = netserve.Serve(cfg); err == nil {
			tb.Server = srv
			tb.addr = srv.Addr()
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("cluster: wall serve: %w", err)
}

// Addr is the frontend's listen address; stable across RestartS4D.
func (tb *WallTestbed) Addr() string { return tb.addr }

// WallRestartOptions configures RestartS4D.
type WallRestartOptions struct {
	// Warm recovers cache residency from the durable metadata (requires
	// PersistMeta); false restarts cold with an empty cache.
	Warm bool
}

// RestartS4D crash-restarts the serving process: the listener and engine
// are torn down abruptly — every connected client sees its in-flight
// pipeline fail — then the engine is rebuilt (warm or cold) and the
// frontend comes back on the same address. Connections do not survive;
// clients must Reconnect.
func (tb *WallTestbed) RestartS4D(opts WallRestartOptions) error {
	if opts.Warm && tb.MetaBackend == nil {
		return fmt.Errorf("cluster: wall restart: warm needs PersistMeta")
	}
	tb.Server.Close()
	tb.Eng.Close()
	meta := tb.MetaBackend
	if !opts.Warm && meta != nil {
		// Cold: fresh meta state; the old durable bytes stay on
		// MetaBackend for a later warm restart, mirroring Testbed.
		meta = kvstore.NewMemBackend()
	}
	if err := tb.buildEngine(meta); err != nil {
		return err
	}
	return tb.serve(tb.addr)
}

// Close tears the deployment down.
func (tb *WallTestbed) Close() {
	tb.Server.Close()
	tb.Eng.Close()
}
