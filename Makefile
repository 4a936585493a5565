# Development targets. `make check` is the full pre-merge gate.

GO ?= go

.PHONY: all build vet test race bench bench-metascale alloc-check check-run check

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
# Wall-clock performance is measured by the repository benchmark
# (s4dperf/README.md); the paper's tables by s4dbench/s4dreport.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

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
