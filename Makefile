# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet fmt-check loc test test-short race staticcheck ci bench bench-diff trace-demo cover fuzz audit chaos chaos-live chaos-crash serve-smoke perfbench-check experiments report examples

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate (the CI step of the same name): fail listing every file
# gofmt would rewrite.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Non-test Go lines outside the benchmark harness: the code-size figure
# each change reports.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './perfbench/*' -not -path './.bench_build/*' | xargs cat | wc -l

test:
	$(GO) test ./...

# The benchmark harness is its own module, so the root ./... patterns
# skip it: vet and test it on its own, so a change to an API it calls
# cannot break the benchmark unseen.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test .

test-short:
	$(GO) test -short ./...

# Race-enabled run of the concurrency-sensitive packages (what CI runs).
race:
	$(GO) test -race ./internal/parallel ./internal/sim ./internal/core ./internal/online ./internal/fault ./internal/obs ./internal/serve ./internal/workload ./internal/loadbalance

# Static analysis; CI installs the binary, locally this no-ops with a
# notice when staticcheck is not on PATH.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# Everything .github/workflows/ci.yml checks, locally.
ci: build vet fmt-check test perfbench-check race audit chaos serve-smoke chaos-live chaos-crash staticcheck bench bench-diff trace-demo

# Benchmark run recorded as JSON (see cmd/bench and DESIGN.md §8). CI uses
# the short BENCHTIME as a smoke pass; for tracked numbers use the default
# go benchtime:  make bench BENCHTIME=1s BENCH_LABEL=post-workspace
BENCHTIME ?= 100ms
BENCH_LABEL ?= local
BENCH_OUT ?= BENCH_$(shell date +%F).json
bench:
	$(GO) test -run '^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) . \
		| $(GO) run ./cmd/bench -label "$(BENCH_LABEL)" -out "$(BENCH_OUT)" -merge

# Perf gate: fail when any benchmark's ns/op regressed more than
# BENCH_THRESHOLD percent — or its allocs/op more than
# BENCH_ALLOC_THRESHOLD percent, with zero-alloc baselines held to
# exactly zero — against the tracked baseline suite (DESIGN.md §8, §12).
# Run `make bench` first to record the current suite. The baseline is
# the `incremental` suite of BENCH_2026-08-08.json. It still times the
# window-solve pair (BenchmarkWarmWindowSolve_{Cold,Incremental}), the
# from-scratch kernel rows (BenchmarkMCFlow_Resolve/fresh,
# BenchmarkP1_DualSweep/fresh, BenchmarkP2_DualSweep/reused) and the
# figure, controller and substrate rows, and the alloc gate holds its
# zero-alloc rows at zero. Its rows for deleted code
# (BenchmarkMCFlow_Resolve/incremental, BenchmarkP1_DualSweep/incremental,
# BenchmarkP2_DualSweep/dirty and /fresh) show in the diff as removed.
BENCH_BASELINE ?= BENCH_2026-08-08.json
BENCH_BASELINE_LABEL ?= incremental
BENCH_THRESHOLD ?= 15
BENCH_ALLOC_THRESHOLD ?= 25
bench-diff:
	$(GO) run ./cmd/bench -in "$(BENCH_OUT)" -label "$(BENCH_LABEL)" \
		-diff "$(BENCH_BASELINE)" -diff-label "$(BENCH_BASELINE_LABEL)" \
		-threshold $(BENCH_THRESHOLD) -alloc-threshold $(BENCH_ALLOC_THRESHOLD)

# Trace demo: run a small faulted scenario with span tracing on and
# assert the emitted Chrome trace parses with the expected hierarchy
# (run > version > window_solve > solve > dual_batch > phase). The
# artifact is viewable at https://ui.perfetto.dev.
TRACE_OUT ?= trace-demo.json
trace-demo:
	$(GO) run ./cmd/jocsim -T 16 -algs rhc -w 4 -trace-spans "$(TRACE_OUT)" \
		-faults "outage:n=0,from=6,to=10" -fault-seed 1 -flight
	$(GO) run ./cmd/tracecheck -min-depth 4 \
		-require run,version,window_solve,solve,dual_batch,loadbalance "$(TRACE_OUT)"

cover:
	$(GO) test -short -cover ./...

# Short fuzzing bursts over the numerical substrates, the differential
# solver cross-checks (the P2 dual kernel vs the generic convex path,
# solvers vs the exact oracle and the trajectory auditor), the durable
# store's snapshot and WAL decoders and instance validation (seed corpora
# live in each package's testdata/fuzz or in its f.Add calls).
fuzz:
	$(GO) test -fuzz FuzzBoxKnapsack -fuzztime 30s ./internal/projection
	$(GO) test -fuzz FuzzDualKernel -fuzztime 30s ./internal/loadbalance
	$(GO) test -fuzz FuzzSolve -fuzztime 30s ./internal/lp
	$(GO) test -fuzz FuzzDifferentialOffline -fuzztime 30s ./internal/core
	$(GO) test -fuzz FuzzDifferentialOnline -fuzztime 30s ./internal/online
	$(GO) test -fuzz FuzzSnapshotAndWALDecode -fuzztime 30s ./internal/serve
	$(GO) test -fuzz FuzzInstanceValidate -fuzztime 30s ./internal/model

# Differentially audit real runs end to end: every committed trajectory
# is re-derived (feasibility, integrality, independent cost recomputation)
# and any violation fails the command (DESIGN.md §9).
audit:
	$(GO) run ./cmd/jocsim -T 30 -audit -algs offline,rhc,chc,afhc,lrfu
	$(GO) run ./cmd/jocsim -T 30 -audit -slot-budget 5ms -algs rhc,chc
	$(GO) run ./cmd/experiments -scale quick -fig headline,rho -audit -progress=false

# Fixed-seed fault-matrix smoke: inject every failure class the fault
# subsystem models into audited runs — survival plus a clean audit of the
# faulted trajectory is the pass criterion (DESIGN.md §10).
chaos:
	$(GO) run ./cmd/jocsim -T 30 -audit -algs rhc,chc,afhc,lrfu \
		-faults "outage:n=0,from=10,to=18" -fault-seed 1
	$(GO) run ./cmd/jocsim -T 30 -audit -algs rhc,chc \
		-faults "bw:n=-1,from=5,to=25,factor=0.25; cap:n=0,from=8,to=16,lose=3" -fault-seed 1
	$(GO) run ./cmd/jocsim -T 30 -audit -algs rhc,chc \
		-faults "randoutage:rate=0.03,mean=3; corrupt:mode=spike,from=3,to=20,mag=5; solvererr:t=7; panic:t=12,attempts=2" -fault-seed 1
	$(GO) run ./cmd/experiments -scale quick -fig outage -audit -progress=false -seed 2

# Service smoke: boot jocserve with a mock clock, replay a deterministic
# request trace over real HTTP, kill and restore the service from its
# state dir at mid-horizon, and require the final trajectory to match a
# golden batch replay bit for bit (DESIGN.md §13).
serve-smoke:
	$(GO) run ./cmd/jocserve -smoke -T 16 -K 10 -classes 6 -sbs 2 -C 3 -B 10 \
		-algo chc -w 4 -r 2
	$(GO) run ./cmd/jocserve -smoke -T 16 -K 10 -classes 6 -sbs 2 -C 3 -B 10 \
		-algo rhc -w 4

# Point the PR 5 fault schedules at the running service: the smoke
# harness under solver errors, an injected panic, prediction corruption
# and a bandwidth fault, with the kill/restore straddling the faults.
chaos-live:
	$(GO) run ./cmd/jocserve -smoke -T 16 -K 10 -classes 6 -sbs 2 -C 3 -B 10 \
		-algo rhc -w 4 -fault-seed 7 \
		-faults "solvererr:t=3,attempts=3; panic:t=10; corrupt:mode=spike,from=5,to=9,mag=3; bw:n=0,from=6,to=12,factor=0.5"
	$(GO) run ./cmd/jocserve -smoke -T 16 -K 10 -classes 6 -sbs 2 -C 3 -B 10 \
		-algo chc -w 4 -r 2 -fault-seed 3 \
		-faults "solvererr:t=2,attempts=3; corrupt:mode=dropout,rate=0.3,from=4,to=12; cap:n=1,from=8,to=14,lose=1"

# Crash chaos: kill -9 a real jocserve child process at seeded-random
# points — plain SIGKILL between HTTP operations plus exit(137) injected
# in the middle of WAL appends and snapshot publishes — at least 20
# times while replaying a deterministic trace, and require the recovered
# trajectory to be byte-identical to an unkilled run with zero
# acknowledged reports lost (DESIGN.md §14).
chaos-crash:
	$(GO) run ./cmd/jocserve -chaos 20 -chaos-seed 7 \
		-T 12 -K 6 -classes 4 -sbs 1 -C 2 -B 6 -beta 5 -algo rhc -w 4
	$(GO) run ./cmd/jocserve -chaos 20 -chaos-seed 3 \
		-T 12 -K 6 -classes 4 -sbs 1 -C 2 -B 6 -beta 5 -algo chc -w 4 -r 2 \
		-faults "solvererr:t=2,attempts=3" -fault-seed 7

# Regenerate every figure (slow: full sweeps on the default scale), then
# assemble EXPERIMENTS.md with machine-checked paper claims.
experiments:
	$(GO) run ./cmd/experiments -all -csv results/csv | tee results/tables.txt

report:
	$(GO) run ./cmd/report -csv results/csv -out EXPERIMENTS.md

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/videostream
	$(GO) run ./examples/flashcrowd
	$(GO) run ./examples/multisbs
	$(GO) run ./examples/livecontrol
