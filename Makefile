# CI entry points for the reproduction. `make ci` is what a pipeline runs.

GO ?= go

.PHONY: all build vet test race fuzz lint inline cover bench bench-json bench-diff bench-baseline bench-large suite suite-large ci

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. The tree (including the -tags large files)
# must stay clean. staticcheck is not vendored; the lint CI job installs it,
# and a machine without it still gets the vet pass instead of a hard error.
# staticcheck.conf adds ST1000 (package doc comments) to the default checks.
# mdlint (in-repo, no dependency) verifies every local link in the markdown
# docs resolves. The gofmt gate fails the target when gofmt would rewrite
# any Go file in the tree (perfbench/ included).
lint: vet inline
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet -tags large ./...
	$(GO) run ./cmd/mdlint *.md
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... && staticcheck -tags large ./...; \
	else \
		echo "lint: staticcheck not installed; ran go vet only (CI installs it)"; \
	fi

test:
	$(GO) test ./...

# The trigger fold's hot helpers must stay inlined: the level head, the four
# level-1 guards, Listing 3's mode switch, the clock step and the
# certificate test of the decide step. The target reads the inliner's report
# on internal/core (the build cache replays it) and fails when one of them
# is no longer inlinable, or when the fold and the decide step stop
# inlining the level head and the certificate test. On internal/transport
# it fails unless transport.go inlines topo's index-keyed reads (SeesAt,
# ParamsAt) on the send and delivery paths and the queue's entry, the key
# copy of a bucket walk, stays inlinable.
inline:
	@out=$$($(GO) build -gcflags=-m ./internal/core 2>&1) || { echo "$$out"; exit 1; }; \
	for f in '\(\*Algorithm\)\.level' FastWitness1 FastBlocked1 SlowWitness1 SlowBlocked1 NextMode Integrate '\(\*Algorithm\)\.certified'; do \
		echo "$$out" | grep -qE ": can inline $$f\$$" || { echo "inline: $$f no longer inlines"; exit 1; }; \
	done; \
	for f in '(*Algorithm).level' '(*Algorithm).certified'; do \
		echo "$$out" | grep -qF "inlining call to $$f" || { echo "inline: no call to $$f is inlined"; exit 1; }; \
	done
	@out=$$($(GO) build -gcflags=-m ./internal/transport 2>&1) || { echo "$$out"; exit 1; }; \
	for f in SeesAt ParamsAt; do \
		echo "$$out" | grep -qE "transport\.go:[0-9:]+ inlining call to topo\.\(\*Dynamic\)\.$$f\$$" || { echo "inline: transport.go no longer inlines $$f"; exit 1; }; \
	done; \
	echo "$$out" | grep -qE ': can inline \(\*deadlineQueue\[.*\]\)\.entry$$' || { echo "inline: the queue's entry no longer inlines"; exit 1; }

# Coverage profile for the whole module; CI uploads coverage.out as an
# artifact alongside BENCH_sweep.json.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# The sweep layer fans replicas across goroutines and the integration tick
# shards node work across a worker pool; the race target proves both
# concurrent paths clean (the determinism tests run replicated experiments
# at parallelism 8, and the sharded-tick differential replays random
# topologies/scenarios at TickParallelism 8, all under the detector).
race:
	$(GO) test -race ./...

# Fuzzes each target for 10 s. Plain `go test` only replays the seed
# corpora; this searches past them. go test -fuzz takes one target in one
# package per run, and a failing input lands in that package's
# testdata/fuzz/ directory as a new seed to commit. FuzzReplayTrace caps
# minimization at 1 s: its JSON input turns up new coverage so often that
# the default 60 s minimization of each find would use its whole budget.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadWire$$' -fuzztime 10s ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzDeadlineQueue$$' -fuzztime 10s ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzRows$$' -fuzztime 10s ./internal/csr
	$(GO) test -run '^$$' -fuzz '^FuzzTopoChurn$$' -fuzztime 10s ./internal/topo
	$(GO) test -run '^$$' -fuzz '^FuzzShardRange$$' -fuzztime 10s ./internal/par
	$(GO) test -run '^$$' -fuzz '^FuzzTriggerLevels$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzReplayTrace$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/live
	$(GO) test -run '^$$' -fuzz '^FuzzParseRange$$' -fuzztime 10s ./cmd/gradsyncd
	$(GO) test -run '^$$' -fuzz '^FuzzClockQuery$$' -fuzztime 10s ./cmd/gradsyncd

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# Archives the hot-path and sweep-engine benchmarks as a JSON perf record
# (the repo's perf trajectory): substrate micro-benchmarks at full
# precision (core, topo, engine, transport delivery, estimates, pool), the
# multi-seed sweep engine and the E15 scale tier (the 10k-node ring with
# churn, whose events/sec is the throughput headline) at one pass each,
# and the gradsyncd query-plane benchmarks (whose qps metric and 0
# allocs/op are the serving headline).
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkCoreStep|BenchmarkCoreTick|BenchmarkNeighborLevels|BenchmarkBlockSyncStep|BenchmarkNeighbors|BenchmarkTopoChurn' -benchmem ./internal/core ./internal/baselines ./internal/topo > BENCH_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkEngine' -benchmem ./internal/sim >> BENCH_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkNetworkDeliver' -benchmem ./internal/transport >> BENCH_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkMessagingInvalidate' -benchmem ./internal/estimate >> BENCH_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkPoolRun' -benchmem ./internal/par >> BENCH_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkSimulationStep' -benchmem -benchtime=20x . >> BENCH_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkSweep|BenchmarkRuntime10k' -benchmem -benchtime=1x . >> BENCH_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkSkewQuery|BenchmarkClockQuery' -benchmem ./cmd/gradsyncd >> BENCH_raw.txt
	$(GO) run ./cmd/benchjson -out BENCH_sweep.json < BENCH_raw.txt
	rm -f BENCH_raw.txt

# Trend checker: compare the fresh sweep against the committed baseline and
# fail on >20% ns/op regressions. CI runs this as a non-blocking step, so
# perf drift warns without gating merges.
bench-diff: bench-json
	$(GO) run ./cmd/benchjson -compare BENCH_baseline.json BENCH_sweep.json

# Refresh the committed perf baseline from the current tree (run after a
# deliberate perf-relevant change and commit the result).
bench-baseline: bench-json
	cp BENCH_sweep.json BENCH_baseline.json

# The N=10⁵ throughput rung. Nightly-only: -tags large compiles the
# extreme-scale sizing of E16 and the 100k-node benchmark; PR CI never
# builds with the tag, so the big tier cannot slow interactive pipelines.
# The E16 bench re-runs the tier's shape assertions at full size.
bench-large:
	$(GO) test -tags large -run '^$$' -bench 'BenchmarkRuntime100k|BenchmarkE16ExtremeScale' -benchmem -benchtime=1x .

# The full reproduction report with multi-seed aggregation.
suite:
	$(GO) run ./cmd/experiments -seeds 8 -parallel 8

# The large tiers at full nightly size (E15 at 10⁴, E16 at 10⁵), written to
# E_LARGE_report.txt for the nightly artifact upload.
suite-large:
	$(GO) run -tags large ./cmd/experiments -only E15,E16 -out E_LARGE_report.txt

ci: build vet test race
