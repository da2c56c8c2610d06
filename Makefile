# Local dev and CI run the identical commands: .github/workflows/ci.yml
# invokes these targets, so a green `make ci` locally means a green CI run.

GO ?= go
# Coverage gate: total statement coverage must not fall below this floor
# (baseline was 87.9% when the gate was introduced).
COVER_FLOOR ?= 85.0

.PHONY: build test test-procs1 race inline-check fuzz-smoke bench-smoke bench-e2e-smoke vet lint stress cover policy-smoke docs-check bench-check bench-baseline trace-smoke introspect-smoke chaos-smoke ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	$(GO) vet -tags docsexamples ./internal/docexamples

# Static analysis beyond vet: a gofmt gate over every .go file (bench/
# included), staticcheck, plus fieldalignment in advisory mode (the hot
# structs — OwnerDeque, Adaptive, Membership — deliberately order fields
# by cache-line contract, not minimal padding, so its suggestions inform
# rather than gate; the layout tests are the binding check). Both binaries are optional: CI installs them, local
# runs without them print a skip note instead of fetching anything.
# Policies reach the pools as plans and spawned controllers, never by
# probing a policy value's dynamic type, so the gate below fails on any
# type assertion to a policy interface in the non-test code that
# consumes them.
POLICY_ASSERT = \.\((policy\.)?(StealAmount|VictimOrder|Placement|Controller|Control)\)
lint: vet
	@test -z "$$(gofmt -l .)" || { echo "lint: files not gofmt-clean:"; gofmt -l .; exit 1; }
	@grep -rnE --include='*.go' --exclude='*_test.go' '$(POLICY_ASSERT)' \
		internal/policy internal/engine internal/core internal/sim internal/keyed; \
		test $$? -eq 1 || { echo "lint: policy values type-asserted outside tests (above)"; exit 1; }
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipped (CI installs it)"; \
	fi
	@if command -v fieldalignment >/dev/null 2>&1; then \
		echo "lint: fieldalignment (advisory, does not fail the build)"; \
		fieldalignment ./... || true; \
	else \
		echo "lint: fieldalignment not installed; skipped (CI installs it)"; \
	fi

test:
	$(GO) test ./...

# The wall-clock suites on a single P: one proc is the shape where a test
# that spins without yielding starves the goroutines it waits on.
test-procs1:
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/harness ./internal/core ./internal/engine ./internal/keyed

race:
	$(GO) test -race ./...

# Deque/steal stress: the raced concurrency suites (owner-path deque,
# steal, churn, kill/revive, conservation, and the substrate
# conformance table over core, keyed and sim, whose raced rows and churn
# script run here, RealRun under churn, burst batches included, and the
# tic-tac-toe engine's parallel and duplicate-delivery searches, whose
# child slabs pass between workers through a sync.Pool) repeated
# STRESS_COUNT times at several GOMAXPROCS shapes. The shape sweep
# matters more than the core count of the machine running it:
# GOMAXPROCS above the physical cores forces preemption inside the
# lock-free owner/thief windows that a matched count rarely interleaves.
STRESS_COUNT ?= 20
STRESS_PROCS ?= 1 2 8 32
STRESS_RUN ?= Steal|Churn|Concurrent|Kill|Revive|Owner|Fallback|Conformance

stress:
	@for procs in $(STRESS_PROCS); do \
		echo "== stress: GOMAXPROCS=$$procs -race -count=$(STRESS_COUNT) =="; \
		GOMAXPROCS=$$procs $(GO) test -race -count=$(STRESS_COUNT) -run '$(STRESS_RUN)' ./internal/segment ./internal/core ./internal/keyed ./internal/engine || exit 1; \
		GOMAXPROCS=$$procs $(GO) test -race -count=$(STRESS_COUNT) -run 'RealRunChurn' ./internal/harness || exit 1; \
		GOMAXPROCS=$$procs $(GO) test -race -count=$(STRESS_COUNT) -run 'EngineParallel|Duplicate' ./internal/ttt || exit 1; \
	done

fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzDequeScript -fuzztime=10s ./internal/segment
	$(GO) test -run='^$$' -fuzz=FuzzEngineSearch -fuzztime=10s ./internal/engine
	$(GO) test -run='^$$' -fuzz=FuzzBoardScript -fuzztime=10s ./internal/ttt
	$(GO) test -run='^$$' -fuzz=FuzzMembership -fuzztime=10s ./internal/core

bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# End-to-end benchmark smoke: bench/ is its own module, which the root
# `go test ./...` does not reach. Its short tests run every workload
# briefly, untraced and traced, with the benchmark's own correctness
# checks (LIFO values, no false empties, exactly-once handoff, the
# minimax result) on, against the stats and tracing paths users enable.
bench-e2e-smoke:
	cd bench && $(GO) test -short ./...

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out > cover.txt
	awk -v floor=$(COVER_FLOOR) \
		'/^total:/ { found = 1; sub("%","",$$3); pct = $$3 + 0 } \
		 END { \
		   if (!found) { print "coverage gate: no total: line in cover.txt"; exit 1 } \
		   if (pct < floor) { printf "coverage %.1f%% is below the %.1f%% gate\n", pct, floor; exit 1 } \
		   printf "coverage %.1f%% (gate %.1f%%)\n", pct, floor }' cover.txt

policy-smoke:
	$(GO) run ./cmd/poolbench -exp policy -trials 1 -ops 1000 -csv > /dev/null
	$(GO) run ./cmd/poolbench -exp hier -trials 1 -ops 1000 -csv > /dev/null

# Benchmark-regression gate: rerun the bench suite and compare per-
# benchmark ns/op against the committed baseline via the geomean rule
# (internal/tools/benchdiff; a geomean regression beyond BENCH_THRESHOLD
# percent fails). The gate is the geomean over the suite, smoothed by
# -count=4, and only benchmarks whose baseline is >= BENCH_MIN_NS gate:
# at -benchtime=1x a sub-100µs benchmark times a handful of operations —
# timer noise, not signal — and would flap the geomean (such rows are
# still printed). The baseline is machine-shaped: after an intentional
# performance change — or when CI runners drift from the machine that
# recorded it — run `make bench-baseline` in the checking environment and
# commit the new BENCH_BASELINE.json.
BENCH_THRESHOLD ?= 15
BENCH_MIN_NS ?= 100000

# Per-cpu scaling sweep appended to the main suite: the hot-path and
# contended benchmarks rerun at each -cpu shape, and benchdiff's
# -keep-cpu keeps their -N suffixes distinct (for every other benchmark
# the suffix is runner shape and is stripped). The per-cpu entries are
# ns-scale, far below BENCH_MIN_NS, so they are recorded and reported
# but never gate the geomean — scaling-shape noise cannot flap CI.
# BENCH_KEEP_CPU must also match the bare name Go prints at -cpu=1
# (BenchmarkGetHotPath, no suffix): an unmatched bare row would land in
# the strippable set and cancel suffix stripping for the whole run.
# internal/tools/benchdiff's TestMakefileKeepCPUPattern reads this line.
BENCH_CPUS ?= 1,2,4,8,16,32
BENCH_SCALING ?= ^(BenchmarkGetHotPath|BenchmarkPoolContended)$$
BENCH_KEEP_CPU ?= ^Benchmark(GetHotPath|PoolContended)(-|/|$$)

bench-check:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -count=4 . > bench.out || (cat bench.out; exit 1)
	$(GO) test -run='^$$' -bench='$(BENCH_SCALING)' -benchtime=1x -count=4 -cpu=$(BENCH_CPUS) . >> bench.out || (cat bench.out; exit 1)
	$(GO) run ./internal/tools/benchdiff -baseline BENCH_BASELINE.json -threshold $(BENCH_THRESHOLD) -min-ns $(BENCH_MIN_NS) -keep-cpu '$(BENCH_KEEP_CPU)' bench.out

bench-baseline:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -count=4 . > bench.out || (cat bench.out; exit 1)
	$(GO) test -run='^$$' -bench='$(BENCH_SCALING)' -benchtime=1x -count=4 -cpu=$(BENCH_CPUS) . >> bench.out || (cat bench.out; exit 1)
	$(GO) run ./internal/tools/benchdiff -baseline BENCH_BASELINE.json -keep-cpu '$(BENCH_KEEP_CPU)' -update bench.out

# Documentation gate: the handbooks exist and are linked from README,
# every exported identifier in the policy/numa packages carries a doc
# comment (their godoc doubles as the paper-section cross-reference), and
# the Go code fences in the docs still compile (internal/docexamples
# mirrors them under the docsexamples build tag).
docs-check:
	test -f docs/ARCHITECTURE.md
	test -f docs/EXPERIMENTS.md
	test -f docs/WORKLOADS.md
	test -f docs/OBSERVABILITY.md
	grep -q "docs/ARCHITECTURE.md" README.md
	grep -q "docs/EXPERIMENTS.md" README.md
	grep -q "docs/WORKLOADS.md" README.md
	grep -q "docs/OBSERVABILITY.md" README.md
	grep -q "Membership epochs" docs/ARCHITECTURE.md
	grep -q "The owner path" docs/ARCHITECTURE.md
	grep -q "claim-then-validate" docs/ARCHITECTURE.md
	grep -q "false-sharing audit" docs/ARCHITECTURE.md
	grep -q '`chaos`' docs/EXPERIMENTS.md
	grep -q "workload.Churn" docs/WORKLOADS.md
	grep -q "member_leave" docs/OBSERVABILITY.md
	$(GO) run ./internal/tools/doclint ./internal/policy ./internal/numa ./internal/engine ./internal/workload ./internal/trace ./internal/introspect \
		./internal/metrics ./internal/baseline ./internal/rng ./internal/ttt ./internal/search ./internal/keyed ./internal/core ./internal/segment \
		./internal/plot ./cmd/poolbench ./internal/tools/benchdiff ./internal/tools/doclint ./internal/tools/inlinecheck ./internal/tools/tracecheck .
	$(GO) build -tags docsexamples ./internal/docexamples

# Owner-path inlining gate: a disabled feature must cost Put/Get one
# inlined field test. The compiler's -m report must show each feature
# check (NUMA delay, placement candidates, controller/recorder feedback,
# membership redirect, stats sampler) inlined at every owner-path call
# site in core, keyed and sim; internal/tools/inlinecheck holds the list.
inline-check:
	$(GO) build -gcflags=-m ./internal/core ./internal/keyed ./internal/sim 2> inline.out || (cat inline.out; exit 1)
	$(GO) run ./internal/tools/inlinecheck inline.out
	rm -f inline.out

# Flight-recorder smoke: a seeded poolbench -trace dump must validate
# against the Chrome trace-event schema (internal/tools/tracecheck), and
# the sim's golden-trace test must agree byte-for-byte with the committed
# export (internal/sim/testdata/golden_trace.json).
trace-smoke:
	$(GO) run ./cmd/poolbench -trace trace-smoke.json -ops 2000 -procs 8 > /dev/null
	$(GO) run ./internal/tools/tracecheck trace-smoke.json
	rm -f trace-smoke.json
	$(GO) test -run 'TestGoldenChromeTrace|TestGoldenChromeChaosTrace|TestEventTimelineContent|TestGoldenRuns' -count=1 ./internal/sim

# Introspection smoke: boot a live run on an ephemeral port, scrape the
# printed address, and hit every endpoint the flag promises (pprof,
# expvar poolstats, /stats, /trace).
introspect-smoke:
	@rm -f introspect-smoke.out
	@$(GO) run ./cmd/poolbench -debug-addr 127.0.0.1:0 -serve 8s -ops 100000 -procs 8 > introspect-smoke.out & \
	for i in $$(seq 1 50); do grep -q 'introspection: http://' introspect-smoke.out 2>/dev/null && break; sleep 0.2; done; \
	ADDR=$$(grep -o 'http://[0-9.:]*' introspect-smoke.out | head -1); \
	test -n "$$ADDR" || { echo "introspect-smoke: server never printed its address"; cat introspect-smoke.out; exit 1; }; \
	set -e; \
	curl -sf $$ADDR/stats | grep -q 'ops='; \
	curl -sf $$ADDR/debug/vars | grep -q 'poolstats'; \
	curl -sf $$ADDR/debug/pprof/ > /dev/null; \
	curl -sf "$$ADDR/trace?handle=0" | grep -q 'traceEvents'; \
	echo "introspect-smoke: all endpoints ok"; \
	wait; rm -f introspect-smoke.out

# Chaos smoke: a short seeded failure-injection sweep must run end to
# end and report recovery in its greppable footer (the full experiment
# is `-exp chaos`; see docs/EXPERIMENTS.md).
chaos-smoke:
	$(GO) run ./cmd/poolbench -exp chaos -trials 1 -ops 2000 > chaos-smoke.out || (cat chaos-smoke.out; exit 1)
	grep -q 'recovered ' chaos-smoke.out
	rm -f chaos-smoke.out

ci: build vet lint inline-check test test-procs1 race stress fuzz-smoke bench-smoke bench-e2e-smoke cover policy-smoke docs-check trace-smoke introspect-smoke chaos-smoke bench-check
