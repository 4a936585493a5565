# Development targets. `make check` is the full pre-merge gate.

GO ?= go

.PHONY: all build vet test race bench bench-json bench-serve bench-serve-scale bench-hitrate bench-recovery bench-net bench-metascale alloc-check check-run check

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One pass over every microbenchmark — compile + smoke, not a measurement.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Regenerate the committed machine-readable perf report (micro ns/op +
# allocs/op plus quick-suite wall-clock). Numbers are machine-dependent;
# regenerate when the serve path changes.
BENCH_JSON ?= BENCH_pr4.json
bench-json:
	$(GO) run ./cmd/s4dbench -bench-json $(BENCH_JSON)

# Regenerate the multi-client serve throughput report: the concurrent
# engine on the wall-clock backend at 1/4/16 clients. Numbers are
# machine-dependent; the shape (speedup_max_vs_1) is the signal.
BENCH_SERVE ?= BENCH_pr5.json
bench-serve:
	$(GO) run ./cmd/s4dbench -bench-serve $(BENCH_SERVE)

# Regenerate the GOMAXPROCS contention sweep: read-heavy/mixed/write-heavy
# mixes at GOMAXPROCS 1/2/4/8, epoch (lock-free read path) vs locked
# (stripe-locked baseline). Numbers are machine-dependent; read num_cpu
# before interpreting the procs axis (see README "Serve scaling").
BENCH_SCALE ?= BENCH_pr6.json
bench-serve-scale:
	$(GO) run ./cmd/s4dbench -bench-serve-scale $(BENCH_SCALE)

# Regenerate the cache-policy hit-rate report: the policy × workload lab
# (clean-lru / s3fifo / tinylfu over zipf, ior-rand, hpio, tileio, mixed)
# plus the adaptive shifting-workload bench. The tables are deterministic;
# only the wall-clock stamp varies across machines.
BENCH_HITRATE ?= BENCH_pr7.json
bench-hitrate:
	$(GO) run ./cmd/s4dbench -bench-hitrate $(BENCH_HITRATE)

# Regenerate the warm-restart report: cold / warm / torn-WAL / bit-rotted
# snapshot restarts, with recovered residency, quarantine counters,
# virtual time-to-warm and post-restart hit rates. Fully deterministic
# (virtual time); only the wall-clock stamp varies across machines.
BENCH_RECOVERY ?= BENCH_pr8.json
bench-recovery:
	$(GO) run ./cmd/s4dbench -bench-recovery $(BENCH_RECOVERY)

# Regenerate the network frontend tail-latency report: loopback TCP
# connections through netserve (conns × pipeline depth, up to 128
# connections), p50/p99/p999 per cell, plus the capped-budget overload
# cell demonstrating BUSY backpressure. Numbers are machine-dependent;
# the shape (pipeline_speedup > 1, bounded overload p999) is the signal.
BENCH_NET ?= BENCH_pr9.json
bench-net:
	$(GO) run ./cmd/s4dbench -bench-net $(BENCH_NET)

# Regenerate the metadata-at-scale report: legacy vs packed bytes/extent
# at 100k and 1M distinct files, the resident-budget sweep (spill and
# fault-in counters, lookup p50/p99), and the budgeted-vs-unbounded
# engine hit-rate cells. Heap numbers are machine-dependent; the
# accounting columns and hit-rate delta are deterministic.
BENCH_META ?= BENCH_pr10.json
bench-metascale:
	$(GO) run ./cmd/s4dbench -bench-metascale $(BENCH_META)

# Just the allocation-regression tests: pins the performance-mode serve
# and identify paths, the metadata store's durable commit path, the
# striped-table dirty/pending counters, the packed-extent lookup and
# resident-budget spill bookkeeping, every cache policy's
# touch/eviction paths, the latency histogram's record path, and the
# network server's decode→dispatch→encode request path, at 0 allocs/op.
alloc-check:
	$(GO) test -run 'ZeroAllocs' ./internal/pfs/ ./internal/core/ ./internal/iotrace/ ./internal/kvstore/ ./internal/dmt/ ./internal/cdt/ ./internal/cachespace/ ./internal/netserve/ ./internal/bench/ -v

# Test-selection guard: every -run regex in this Makefile and the CI
# workflow must still select tests (a renamed test would otherwise leave
# its step green while running nothing).
check-run:
	bash scripts/check-run-regexes.sh

check: vet build check-run race bench
