# CI entry points for the reproduction. `make ci` is what a pipeline runs.

GO ?= go

.PHONY: all build vet test race fuzz lint inline cover bench bench-json bench-diff bench-baseline bench-large suite suite-large perfbench-vet ci

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
	$(GO) run ./cmd/mdlint *.md .claude/skills/verify/SKILL.md
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
# copy of a bucket walk, stays inlinable. On internal/estimate it fails
# unless Messaging.EstimateAt, the fold's estimate query, inlines the
# sample window's derivation: maxSampleAgeHW and topo's ParamsAt.
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
	@out=$$($(GO) build -gcflags=-m ./internal/estimate 2>&1) || { echo "$$out"; exit 1; }; \
	span=$$(awk '/^func \(m \*Messaging\) EstimateAt\(/ { a = NR } a && !b && /^}/ { b = NR } END { print a, b }' internal/estimate/messaging.go); \
	for f in maxSampleAgeHW 'topo.(*Dynamic).ParamsAt'; do \
		echo "$$out" | awk -F: -v span="$$span" -v want=" inlining call to $$f" \
			'BEGIN { split(span, r, " ") } $$1 ~ /messaging\.go$$/ && $$2 >= r[1] && $$2 <= r[2] && $$4 == want { ok = 1 } END { exit !ok }' || \
			{ echo "inline: Messaging.EstimateAt no longer inlines $$f"; exit 1; }; \
	done

# Coverage profile for the whole module; CI uploads coverage.out as an
# artifact alongside BENCH_sweep.json.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# The sweep layer fans replicas across goroutines and the integration tick
# shards node work across a worker pool; the race target proves both
# concurrent paths clean (the determinism tests run replicated experiments
# at parallelism 8, and the sharded-tick differentials replay random
# topologies/scenarios at TickParallelism 8, all under the detector). The
# second pass repeats internal/sim's window and tick-crossing tests ten
# times: they are the engine's concurrent drains (every window pooled, and
# crossed ticks stepped per shard inside them) and take well under a second
# each, so the repeats widen the interleavings the detector sees at little
# cost. The third pass repeats the random walk's tests ten times: the
# sharded tick and the event shards stepping a crossed tick extend distinct
# nodes' walk paths concurrently, and only the per-node streams keep those
# calls apart. A network below 12,000 nodes
# ticks on one goroutine whatever TickParallelism says, so few tests still
# replay pooled ticks: the root package's TestShardedTickScale* (ring,
# messaging ring and geometric mobility at 12,000 nodes), and
# internal/runner's tests that force the pool on small networks
# (TestPooledTickDifferential,
# TestScaleTierDeterministicAcrossTickParallelism, TestRateEnvelope). The
# golden, layout, drain and trigger differentials run their small networks
# on the serial tick. The fourth pass repeats the scale replays, the random
# pooled differential and the root crossing tests three times (about a
# minute on 2 vCPUs): a crossed tick's StepNode calls on the event shards,
# checked by a recording decorator, and TestTickCrossingDifferential's one
# case per drift schedule. Its random-walk case is the end-to-end run in
# which the event shards' goroutines call RandomWalk.Rate for their own
# nodes concurrently. The fifth pass repeats internal/live's tests five
# times (about 11 s on 2 vCPUs): beacon hand-off runs on the node
# goroutines, each sending straight into its neighbours' inboxes and the
# peer links' buffers, and a peer link's writer exits through Close's quit
# channel while node loops may still send. The live tests run on real
# tickers, so the repeats widen the interleavings the detector sees.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'Window|TickCrossing|SerialSource' ./internal/sim
	$(GO) test -race -count=10 -run RandomWalk ./internal/drift
	$(GO) test -race -count=3 -run 'ShardedTickScale|PooledTick|CrossedTick|TickCrossing|CrossingArmed' . ./internal/runner
	$(GO) test -race -count=5 ./internal/live

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
# the set-up of the repository benchmark's two network shapes
# (BenchmarkNewNetwork: gradsync.New alone, topology build included), and
# the gradsyncd query-plane benchmarks (whose qps metric and 0 allocs/op
# are the serving headline).
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkCoreStep|BenchmarkCoreTick|BenchmarkNeighborLevels|BenchmarkBlockSyncStep|BenchmarkNeighbors|BenchmarkTopoChurn' -benchmem ./internal/core ./internal/baselines ./internal/topo > BENCH_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkEngine' -benchmem ./internal/sim >> BENCH_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkNetworkDeliver' -benchmem ./internal/transport >> BENCH_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkMessagingInvalidate' -benchmem ./internal/estimate >> BENCH_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkPoolRun' -benchmem ./internal/par >> BENCH_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkSimulationStep' -benchmem -benchtime=20x . >> BENCH_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkSweep|BenchmarkRuntime10k' -benchmem -benchtime=1x . >> BENCH_raw.txt
	$(GO) test -run '^$$' -bench 'BenchmarkNewNetwork' -benchmem . >> BENCH_raw.txt
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

# perfbench/ is its own module, so the root ./... never compiles it, and a
# change to a type it forwards (transport.Delivery, say) would otherwise
# fail only in CI's perfbench job. -short skips its smoke run, so both
# steps take about a second.
perfbench-vet:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

ci: build vet test race perfbench-vet
