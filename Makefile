GO ?= go

.PHONY: all build vet test race fuzz bench bench-core bench-delta bench-pair gray

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# bench/ is a nested module (it carries the benchmark behind
# BENCHMARK.json) compiled against core, the three patterns and
# statebackend; `./...` does not reach it, so it is vetted and tested
# here — an API slip must not surface first in the benchmark gate.
test:
	$(GO) test ./...
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# The stress battery interleaves differently at different GOMAXPROCS;
# CI runs this at 2 and 8.
race:
	$(GO) test -race ./...

# Short smoke run of every fuzz target (CI cadence); raise FUZZTIME for a
# real hunt.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/binio/ -fuzz 'FuzzDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/binio/ -fuzz 'FuzzDecodeRecordFrame$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/ -fuzz FuzzParseManifest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ckpt/ -fuzz FuzzDecodeMeta -fuzztime $(FUZZTIME)
	$(GO) test ./internal/logfile/ -fuzz FuzzDecodeSegmentBlock -fuzztime $(FUZZTIME)
	$(GO) test ./internal/logfile/ -fuzz FuzzSegmentEntryAt -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/aur/ -fuzz FuzzDecodeSegmentsSnapshot -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core/aar/ -fuzz FuzzDecodeAARChunk -fuzztime $(FUZZTIME)
	$(GO) test ./internal/window/ -fuzz FuzzWindowDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/spe/ -fuzz FuzzDecodeJobRecord -fuzztime $(FUZZTIME)
	$(GO) test ./internal/spe/ -fuzz FuzzDecodeMigrationRecord -fuzztime $(FUZZTIME)
	$(GO) test ./internal/spe/ -fuzz FuzzDecodeOperatorSnapshot -fuzztime $(FUZZTIME)
	$(GO) test ./internal/spe/ -fuzz FuzzDecodeLedgerBlock -fuzztime $(FUZZTIME)

# Gray-failure battery: stall injection, deadline-bounded I/O, progress
# watchdogs, and the manager hung-fsync failover + latency-driven
# rebalancing legs, under -race. Raise GRAY_ITERS to deepen the
# randomized failover battery (CI's nightly schedule runs 20).
GRAY_ITERS ?=
gray:
	$(GO) test -race -count=1 ./internal/faultfs/ -run 'TestStall' -timeout 5m
	$(GO) test -race -count=1 ./internal/logfile/ -run 'TestDeadline' -timeout 5m
	$(GO) test -race -count=1 ./internal/core/ -run 'TestPureSlowDiskDegradesOnLatency|TestHungSyncDegradesWithStallReason' -timeout 10m
	$(GO) test -race -count=1 ./internal/spe/ -run 'TestJobProgressWatchdog' -timeout 10m
	FLOWKV_GRAY_ITERS=$(GRAY_ITERS) $(GO) test -race -count=1 ./internal/jobmanager/ -run 'TestGrayFailure|TestAutoRebalance|TestRebalanceTick|TestPoolAcquire|TestPoolAwaitStatus' -timeout 20m

# One testing.B benchmark per paper figure lives in bench_test.go;
# store microbenchmarks live under the internal packages.
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# Concurrent composite-store benchmark: 1 vs 8 workers on one core.Store,
# results recorded in BENCH_core.json.
bench-core:
	$(GO) run ./cmd/storebench -parallel 8 -syncEvery 250 -json BENCH_core.json

# Incremental-checkpoint benchmark: commit bytes and p99 commit latency
# as state grows 100x, full base vs incremental vs incremental+group-commit,
# merged into BENCH_core.json under the "delta" key.
bench-delta:
	$(GO) run ./cmd/storebench -delta -json BENCH_core.json

# Paired runs of one BENCHMARK.json workload, a parent commit against the
# working tree, alternating which goes first: per metric both sides'
# median and quartiles, the change's wins/ties/losses and the parent's
# IQR — what a performance claim is judged on.
#   make bench-pair PARENT=HEAD~1 WORKLOAD=rmw_session_job PAIRS=10
# JSON=<file> also writes the table as a BENCH_flowkvbench.json row;
# KEEP=<dir> keeps every run's full output there.
PARENT ?= HEAD~1
WORKLOAD ?= rmw_session_job
PAIRS ?= 10
BENCHARGS ?=
JSON ?=
KEEP ?=
bench-pair:
	bash scripts/benchpair.sh $(if $(JSON),-json $(JSON)) $(if $(KEEP),-keep $(KEEP)) $(PARENT) $(WORKLOAD) $(PAIRS) $(BENCHARGS)
