# Developer entry points. CI runs the same targets.

GO      ?= go
# BENCH_OUT is the perf snapshot consumed by CI artifacts and by future
# perf PRs; the _N suffix tracks the PR number that produced it.
BENCH_OUT ?= BENCH_30.json
# BENCH_PREV is the previous PR's committed snapshot; bench-check fails when
# a guarded benchmark allocates more than 1% above it.
BENCH_PREV ?= BENCH_29.json

# The serial-path benchmarks bench-check and bench-ab judge: the micro
# benchmarks, and the campaign-sized ones bench-ab runs once per side.
GUARDED_MICRO    = EngineEventThroughput|EngineStandingQueue|ProcHandoff|SemaphoreWake|TransportThroughput|HDDElevator|HDDManyFiles|FairShareScheduler|TraceRecord|WhatIfCacheHit|WhatIfCacheMiss|SamplerTick|SpanRecord
GUARDED_CAMPAIGN = Figure2SyncOn|FleetScenario

# bench-ab compares BASE against the working tree on this host.
BASE ?= HEAD

.PHONY: test race bench bench-check bench-ab fuzz-short scenarios mitigate trace faults fleet serve obs

# Tier-1: everything, full grids.
test:
	$(GO) build ./...
	$(GO) test ./...

# The CI-sized suite.
race:
	$(GO) vet ./...
	$(GO) test -race -short ./...

# scenarios executes every built-in N-application scenario (SCENARIOS.md)
# on HDD and SSD at the smoke scale — the same tiny grid the scenario
# golden test pins — so a broken scenario fails fast on every push.
scenarios:
	$(GO) run ./cmd/scenarios -smoke -run all

# mitigate runs every built-in scenario on HDD at the smoke scale once under
# each named server-side QoS scheduler ({off, fairshare, tokenbucket,
# controller}, internal/qos) — the same grid the mitigation golden test pins
# — then paperrepro's scheduling ablation, a sweep over FIFO and the related
# work's app-ordered and round-robin orders (the table
# cmd/paperrepro's TestAblationPolicyTable pins). So all six scheduler kinds
# run from a CLI on every push, and a broken one fails fast. The side-by-side
# Pareto view of the named arms is the what-if service's pareto_text
# (SCENARIOS.md).
mitigate:
	for q in off fairshare tokenbucket controller; do \
		$(GO) run ./cmd/scenarios -smoke -backend hdd -run all -qos $$q || exit 1; \
	done
	$(GO) run ./cmd/paperrepro -exp ablation-policy -scale 8 -format tsv

# trace smoke: record the periodic-checkpoint builtin at smoke scale,
# summarize it (Darshan-style), replay it — the -replay step exits nonzero
# unless every app's completion window reproduces bit-for-bit — and replay
# it once more under fair-share QoS (the counterfactual arm). Then record
# and replay the server-crash fault builtin: its replay rides out the crash
# on the same retry path the recorded run took.
trace:
	$(GO) run ./cmd/scenarios -smoke -backend hdd -run periodic-checkpoint-4 -trace ckpt_smoke.trace
	$(GO) run ./cmd/scenarios -replay ckpt_smoke.trace
	$(GO) run ./cmd/scenarios -replay ckpt_smoke.trace -qos fairshare
	rm -f ckpt_smoke.trace
	$(GO) run ./cmd/scenarios -smoke -backend hdd -run server-crash-checkpoint -trace crash_smoke.trace
	$(GO) run ./cmd/scenarios -replay crash_smoke.trace
	rm -f crash_smoke.trace

# bench runs the simulator microbenchmarks plus one figure-level campaign
# bench and writes the combined `go test -json` stream to $(BENCH_OUT).
# The stream embeds standard benchmark lines, so it stays
# benchstat-comparable:
#
#	jq -r 'select(.Action=="output") | .Output' BENCH_4.json | benchstat -
#
# Compare two snapshots by extracting each to text first:
#
#	jq -r 'select(.Action=="output") | .Output' OLD.json > old.txt
#	jq -r 'select(.Action=="output") | .Output' BENCH_4.json > new.txt
#	benchstat old.txt new.txt
bench:
	$(GO) test -run '^$$' -bench '^Benchmark($(GUARDED_MICRO))$$' \
		-benchmem -benchtime 0.5s -count 5 -json . > $(BENCH_OUT)
	$(GO) test -run '^$$' -bench 'BenchmarkFigure2SyncOn$$' \
		-benchmem -benchtime 1x -count 3 -json . >> $(BENCH_OUT)
	$(GO) test -run '^$$' -bench 'BenchmarkSharded(Figure2|Scenario)' \
		-benchmem -benchtime 1x -count 3 -json . >> $(BENCH_OUT)
	$(GO) test -run '^$$' -bench 'BenchmarkFleetScenario$$' \
		-benchmem -benchtime 1x -count 3 -json . >> $(BENCH_OUT)
	@echo "wrote $(BENCH_OUT)"

# bench-check guards the serial-path allocation trajectory: the previous
# committed snapshot against the fresh one by a fixed 1% rule on allocs/op,
# which does not depend on the machine (see cmd/benchguard). Time is judged
# on one host by bench-ab, not across snapshots. The sharded benches are
# recorded with -benchmem but not guarded: the sharded kernel they time is
# due for deletion (ROADMAP.md).
bench-check:
	$(GO) run ./cmd/benchguard -old $(BENCH_PREV) -new $(BENCH_OUT) \
		-match '^Benchmark($(GUARDED_MICRO)|$(GUARDED_CAMPAIGN))'

# bench-ab is the on-host A/B of bench-check's benchmarks: it builds the
# root test binary of BASE (default HEAD) from a git worktree in a temp
# directory and the working tree's beside it, then runs both in 10 pairs,
# alternating which goes first, each benchmark once per run (the micro
# ones at -benchtime 0.2s, the campaign-sized ones at 1x). benchguard -ab
# prints both sides' medians and quartiles, the pairs the working tree won
# and a verdict by bench/compare's rule, then fails if any benchmark is
# "slower" ("too few pairs" fails nothing). CI runs it on pull requests
# against the base commit, beside bench-check.
bench-ab:
	@set -e; tmp=$$(mktemp -d); \
	trap 'git worktree remove --force "$$tmp/base" >/dev/null 2>&1 || true; rm -rf "$$tmp"' EXIT; \
	git worktree add --quiet --detach "$$tmp/base" $(BASE); \
	(cd "$$tmp/base" && $(GO) test -c -o "$$tmp/base.test" .); \
	$(GO) test -c -o "$$tmp/head.test" .; \
	for i in $$(seq 10); do \
		order="base head"; if [ $$((i % 2)) = 0 ]; then order="head base"; fi; \
		for side in $$order; do \
			dir=.; if [ $$side = base ]; then dir="$$tmp/base"; fi; \
			echo "pair $$i: $$side" >&2; \
			(cd "$$dir" && "$$tmp/$$side.test" -test.run '^$$' -test.benchtime 0.2s \
				-test.bench '^Benchmark($(GUARDED_MICRO))$$' && \
			"$$tmp/$$side.test" -test.run '^$$' -test.benchtime 1x \
				-test.bench '^Benchmark($(GUARDED_CAMPAIGN))$$') >> "$$tmp/$$side.txt"; \
		done; \
	done; \
	$(GO) run ./cmd/benchguard -ab -old "$$tmp/base.txt" -new "$$tmp/head.txt"

# fuzz-short gives each native fuzz target a brief coverage-guided run on
# top of its committed seed corpus — long enough to catch a fresh parser
# or codec panic, short enough for every CI push.
fuzz-short:
	$(GO) test -run '^$$' -fuzz 'FuzzScenarioSpec' -fuzztime 20s ./internal/scenario/
	$(GO) test -run '^$$' -fuzz 'FuzzFaultSpec' -fuzztime 20s ./internal/scenario/
	$(GO) test -run '^$$' -fuzz 'FuzzPopulationSpec' -fuzztime 20s ./internal/scenario/
	$(GO) test -run '^$$' -fuzz 'FuzzTraceFormat' -fuzztime 20s ./internal/trace/

# fleet smoke: run the generated 1024-tenant population builtin at smoke
# scale under the race detector — the Runner pool's fleet fan-out is the
# widest concurrent surface. Smoke keeps the tenant count and class mix and
# shrinks per-tenant weight, so this still exercises a ≥1000-app launch.
# The fleet conformance test then re-checks the fleet at shard counts
# {1, 2, 4} against the serial oracle, also on a GOMAXPROCS-wide pool, so
# the race detector watches the pool once more.
fleet:
	$(GO) run -race ./cmd/scenarios -smoke -run fleet
	$(GO) test -race -count=1 -run 'TestFleetConformance' ./internal/scenario/

# faults smoke: run every fault-injection builtin on HDD at smoke scale
# (faulted vs healthy-twin comparison plus availability telemetry), then
# re-check faulted runs on the sharded kernel against the serial oracle
# under the race detector, which still watches every proc's coroutine
# switches to and from the engine.
faults:
	$(GO) run ./cmd/scenarios -faults -smoke -backend hdd -run all
	$(GO) test -race -run 'FaultShardConformance|FaultScenarioShardConformance' \
		./internal/core/ ./internal/scenario/

# obs smoke: the observability layer end to end. Runs the aggressor-victim
# builtin with -timeline attached (sampled per-app/per-server series plus
# the span breakdown on stdout), then re-checks the timeline golden and its
# conformance across shard counts and concurrent runs under the race
# detector, and finally the
# /metrics + /healthz exposition contract of the what-if service (scrape
# must be non-empty, line-parseable 0.0.4 text carrying the serving
# counters and, after a session, the last-run simulation series).
obs:
	$(GO) run ./cmd/scenarios -smoke -backend hdd -run aggressor-victim -timeline
	$(GO) test -race -count=1 -run 'TestGoldenTimeline|TestTimelineShardConformance' ./internal/scenario/
	$(GO) test -race -count=1 -run 'TestMetrics|TestHealthzUptime' ./internal/whatif/

# serve smoke: the end-to-end what-if service contract, under the race
# detector. Builds whatifd (with -race) and the scenarios CLI, records a
# trace, starts the daemon, POSTs the smoke aggressor-victim scenario and
# the recording, and asserts every arm text in the JSON responses matches
# the equivalent CLI stdout bit-for-bit — cold and cache-hit alike — then
# SIGTERMs the daemon and requires a drained exit 0.
serve:
	$(GO) test -race -count=1 -run 'TestServeSmoke' ./cmd/whatifd/
