// Package cluster assembles complete testbeds: the paper's 65-node SUN
// Fire configuration (§V.A) — 8 HDD DServers and 4 SSD CServers on Gigabit
// Ethernet, PVFS2-style striping, MPI ranks — in either stock or
// S4D-Cache form. Benchmarks, examples and the public API all build their
// deployments through this package.
package cluster

import (
	"fmt"
	"time"

	"s4dcache/internal/chunkstore"
	"s4dcache/internal/core"
	"s4dcache/internal/costmodel"
	"s4dcache/internal/device"
	"s4dcache/internal/faults"
	"s4dcache/internal/iotrace"
	"s4dcache/internal/kvstore"
	"s4dcache/internal/memcache"
	"s4dcache/internal/mpiio"
	"s4dcache/internal/netmodel"
	"s4dcache/internal/pfs"
	"s4dcache/internal/sim"
)

// Params describes the hardware and software configuration of a testbed.
type Params struct {
	// DServers is the number of HDD file servers (paper: 8).
	DServers int
	// CServers is the number of SSD file servers (paper: 4).
	CServers int
	// Stripe is the PFS stripe size (PVFS2 default: 64 KB).
	Stripe int64
	// HDD configures every DServer's disk.
	HDD device.HDDParams
	// SSD configures every CServer's flash device.
	SSD device.SSDParams
	// Net is the interconnect (paper: Gigabit Ethernet).
	Net netmodel.Params
	// Functional selects payload-carrying stores (tests, examples) over
	// metadata-only stores (large performance runs).
	Functional bool
	// CacheCapacity is the S4D cache size in bytes (paper: 20% of the
	// application data size).
	CacheCapacity int64
	// RebuildPeriod is the Rebuilder trigger period; 0 disables it.
	RebuildPeriod time.Duration
	// RebuildBatch caps per-cycle reorganization work; 0 = default.
	RebuildBatch int
	// Policy is the admission policy (zero = the paper's selective one).
	Policy core.AdmissionPolicy
	// EagerFetch disables the paper's lazy read caching (ablation).
	EagerFetch bool
	// CachePolicy selects the cache-space eviction/admission policy by
	// name (cachespace.PolicyNames); empty means clean-LRU.
	CachePolicy string
	// AdaptivePeriod enables the online workload characterizer, which
	// swaps the cache policy and retunes the criticality threshold
	// every period; 0 keeps the configured policy fixed.
	AdaptivePeriod time.Duration
	// PersistMeta persists the DMT in an embedded store.
	PersistMeta bool
	// SnapshotPeriod streams a durable residency snapshot every period
	// (DESIGN.md §14); 0 disables it. Needs PersistMeta.
	SnapshotPeriod time.Duration
	// ChargeMetaIO charges DMT commits as CServer I/O (needs PersistMeta).
	ChargeMetaIO bool
	// MetaBudget bounds the DMT's resident metadata bytes (DESIGN.md §16):
	// over budget, cold clean files spill to sealed store records and fault
	// back in on demand. 0 means unbounded. Needs PersistMeta.
	MetaBudget int64
	// Trace installs an iotrace.Recorder on both file systems.
	Trace bool
	// PaperTableII switches the cost model to the verbatim Table II
	// formulas (ablation).
	PaperTableII bool
	// MemCacheBytes layers a client-side memory cache of this capacity
	// over the transport — the paper's stated future work (§II.B). 0
	// disables it.
	MemCacheBytes int64
	// MemCachePageBytes is the memory-cache page granularity; the zero
	// value means 16 KB (pages must be no larger than the requests they
	// should capture).
	MemCachePageBytes int64
	// FaultPlan injects deterministic failures (see internal/faults). The
	// zero value disables injection entirely — no fault state is built and
	// the testbed behaves bit-for-bit like a fault-free one.
	FaultPlan faults.Plan
	// FaultSeed derives the per-server random streams of FaultPlan.
	FaultSeed int64
}

// Default returns the paper's testbed configuration.
func Default() Params {
	return Params{
		DServers:      8,
		CServers:      4,
		Stripe:        64 << 10,
		HDD:           device.DefaultHDDParams(),
		SSD:           device.DefaultSSDParams(),
		Net:           netmodel.Gigabit(),
		CacheCapacity: 2 << 30, // overridden per experiment (20% of data)
		RebuildPeriod: 250 * time.Millisecond,
	}
}

// Testbed is an assembled deployment.
type Testbed struct {
	// Eng is the shared virtual clock.
	Eng *sim.Engine
	// OPFS and CPFS are the two file systems; CPFS is nil in stock mode.
	OPFS, CPFS *pfs.FS
	// S4D is the cache instance; nil in stock mode.
	S4D *core.S4D
	// Recorder is non-nil when Params.Trace is set.
	Recorder *iotrace.Recorder
	// MemCache is non-nil after Comm() when Params.MemCacheBytes is set.
	MemCache *memcache.Cache
	// Model is the calibrated cost model (valid in S4D mode).
	Model costmodel.Params
	// MetaBackend holds the metadata store's persisted bytes when
	// Params.PersistMeta is set — the durable state RestartS4D reopens.
	MetaBackend kvstore.Backend
	// Params echoes the configuration.
	Params Params

	closed bool
}

// NewStock builds the baseline testbed: DServers only, no cache.
func NewStock(p Params) (*Testbed, error) {
	tb, err := build(p, false)
	if err != nil {
		return nil, fmt.Errorf("cluster: stock testbed: %w", err)
	}
	return tb, nil
}

// NewS4D builds the full S4D-Cache testbed.
func NewS4D(p Params) (*Testbed, error) {
	tb, err := build(p, true)
	if err != nil {
		return nil, fmt.Errorf("cluster: s4d testbed: %w", err)
	}
	return tb, nil
}

// Comm returns an MPI communicator of the given size over this testbed:
// through S4D when present, otherwise straight to the OPFS, with an
// optional memory-cache layer on top.
func (tb *Testbed) Comm(ranks int) (*mpiio.Comm, error) {
	var transport mpiio.Transport
	if tb.S4D != nil {
		transport = tb.S4D
	} else {
		transport = mpiio.StockTransport{FS: tb.OPFS}
	}
	if tb.Params.MemCacheBytes > 0 {
		page := tb.Params.MemCachePageBytes
		if page <= 0 {
			page = 16 << 10
		}
		mc, err := memcache.New(memcache.Config{
			Engine:        tb.Eng,
			Below:         transport,
			CapacityBytes: tb.Params.MemCacheBytes,
			PageSize:      page,
		})
		if err != nil {
			return nil, err
		}
		tb.MemCache = mc
		transport = mc
	}
	return mpiio.NewComm(tb.Eng, ranks, transport)
}

// Close stops background activity (the Rebuilder ticker), letting
// Engine.Run terminate. Closing an already-closed testbed is a no-op.
func (tb *Testbed) Close() {
	if tb.closed {
		return
	}
	tb.closed = true
	if tb.S4D != nil {
		tb.S4D.Close()
	}
}

func build(p Params, withCache bool) (*Testbed, error) {
	if p.DServers <= 0 {
		return nil, fmt.Errorf("need at least one DServer, got %d", p.DServers)
	}
	if withCache && p.CServers <= 0 {
		return nil, fmt.Errorf("need at least one CServer, got %d", p.CServers)
	}
	eng := sim.NewEngine()
	tb := &Testbed{Eng: eng, Params: p}

	newStore := func(int) chunkstore.Store { return chunkstore.NewNull() }
	if p.Functional {
		newStore = func(int) chunkstore.Store { return chunkstore.NewSparse() }
	}
	var trace pfs.TraceFunc
	if p.Trace {
		tb.Recorder = iotrace.NewRecorder()
		trace = tb.Recorder.Hook()
	}
	var injector *faults.Injector
	if !p.FaultPlan.Empty() {
		injector = faults.NewInjector(p.FaultPlan, p.FaultSeed)
	}

	opfs, err := pfs.New(pfs.Config{
		Label:  "OPFS",
		Layout: pfs.Layout{Servers: p.DServers, StripeSize: p.Stripe},
		Engine: eng,
		NewDevice: func(i int) device.Device {
			hp := p.HDD
			hp.Seed = int64(i + 1)
			return device.NewHDD(hp)
		},
		NewStore: newStore,
		Net:      p.Net,
		Trace:    trace,
		Faults:   injector,
	})
	if err != nil {
		return nil, err
	}
	tb.OPFS = opfs
	if !withCache {
		return tb, nil
	}

	cpfs, err := pfs.New(pfs.Config{
		Label:  "CPFS",
		Layout: pfs.Layout{Servers: p.CServers, StripeSize: p.Stripe},
		Engine: eng,
		NewDevice: func(i int) device.Device {
			return device.NewSSD(p.SSD)
		},
		NewStore: newStore,
		Net:      p.Net,
		Trace:    trace,
		Faults:   injector,
	})
	if err != nil {
		return nil, err
	}
	tb.CPFS = cpfs

	// Offline profiling of the HDD model, as the paper profiles its disks.
	curve, err := device.ProfileSeekCurve(device.NewHDD(p.HDD), device.DefaultProfileConfig())
	if err != nil {
		return nil, err
	}
	model := costmodel.Calibrate(p.HDD, p.SSD, p.Net, curve)
	model.M = p.DServers
	model.N = p.CServers
	model.Stripe = p.Stripe
	model.PaperTableII = p.PaperTableII
	tb.Model = model

	var metaStore *kvstore.Store
	if p.PersistMeta {
		tb.MetaBackend = kvstore.NewMemBackend()
		metaStore, err = kvstore.Open(tb.MetaBackend, "dmt", kvstore.Options{})
		if err != nil {
			return nil, err
		}
	}
	s4d, err := core.New(core.Config{
		Engine:         eng,
		OPFS:           opfs,
		CPFS:           cpfs,
		Model:          model,
		CacheCapacity:  p.CacheCapacity,
		RebuildPeriod:  p.RebuildPeriod,
		RebuildBatch:   p.RebuildBatch,
		MetaStore:      metaStore,
		SnapshotPeriod: p.SnapshotPeriod,
		ChargeMetaIO:   p.ChargeMetaIO,
		MetaBudget:     p.MetaBudget,
		Policy:         p.Policy,
		LazyFetch:      !p.EagerFetch,
		CachePolicy:    p.CachePolicy,
		AdaptivePeriod: p.AdaptivePeriod,
	})
	if err != nil {
		return nil, err
	}
	tb.S4D = s4d
	if injector != nil {
		// CServer crash/restart events drive the S4D's degraded-mode
		// transitions (mapping invalidation, failover, deferred reads).
		cpfs.SetStateHook(s4d.OnCServerState)
	}
	return tb, nil
}

// RestartOptions configures a simulated crash/restart of the S4D layer.
type RestartOptions struct {
	// Warm re-opens the persisted metadata and recovers the cache image
	// (DESIGN.md §14). False models losing the metadata entirely: the
	// restarted instance comes up with a cold cache.
	Warm bool
	// CorruptPlan damages the persisted metadata bytes as they are read
	// back (corrupt: clauses, see internal/faults); the zero plan reads
	// them back intact. CorruptSeed derives the damage streams.
	CorruptPlan faults.Plan
	CorruptSeed int64
}

// RestartS4D simulates an S4D crash and restart: the running instance is
// abandoned (its background activity stopped), and a fresh one is built
// over the same engine, file systems and calibrated model. DServer and
// CServer payloads survive — only the S4D process dies. Requires an S4D
// testbed with PersistMeta.
func (tb *Testbed) RestartS4D(opts RestartOptions) error {
	if tb.S4D == nil {
		return fmt.Errorf("cluster: restart: not an S4D testbed")
	}
	if tb.MetaBackend == nil {
		return fmt.Errorf("cluster: restart: needs PersistMeta")
	}
	tb.S4D.Close()
	var store *kvstore.Store
	var err error
	var spillRead func(string, []byte) []byte
	if opts.Warm {
		backend := tb.MetaBackend
		// Plan.Empty deliberately ignores corrupt rules (they are not
		// serve-path faults), so check them directly here.
		if len(opts.CorruptPlan.Corrupt) > 0 || !opts.CorruptPlan.Empty() {
			inj := faults.NewInjector(opts.CorruptPlan, opts.CorruptSeed)
			backend = inj.WrapBackend(backend, "dmt")
			// corrupt:dmt.spill rules damage spilled metadata as it faults
			// back in, rather than the backend files.
			spillRead = inj.SpillRead("dmt")
		}
		store, err = kvstore.Open(backend, "dmt", kvstore.Options{})
	} else {
		// Cold: a fresh, empty store. The old durable state stays on
		// MetaBackend untouched (a later warm restart could still use it).
		store, err = kvstore.Open(kvstore.NewMemBackend(), "dmt", kvstore.Options{})
	}
	if err != nil {
		return fmt.Errorf("cluster: restart: %w", err)
	}
	p := tb.Params
	s4d, err := core.New(core.Config{
		Engine:         tb.Eng,
		OPFS:           tb.OPFS,
		CPFS:           tb.CPFS,
		Model:          tb.Model,
		CacheCapacity:  p.CacheCapacity,
		RebuildPeriod:  p.RebuildPeriod,
		RebuildBatch:   p.RebuildBatch,
		MetaStore:      store,
		SnapshotPeriod: p.SnapshotPeriod,
		ChargeMetaIO:   p.ChargeMetaIO,
		MetaBudget:     p.MetaBudget,
		SpillRead:      spillRead,
		Policy:         p.Policy,
		LazyFetch:      !p.EagerFetch,
		CachePolicy:    p.CachePolicy,
		AdaptivePeriod: p.AdaptivePeriod,
	})
	if err != nil {
		return fmt.Errorf("cluster: restart: %w", err)
	}
	tb.S4D = s4d
	tb.closed = false
	return nil
}
