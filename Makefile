# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test race cover bench bench-smoke bench-batched bench-obs-overhead bench-fleet perfbench experiments fuzz golden serve-e2e fleet-e2e clean

all: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Per-function coverage report; the profile lands in cover.out for
# `go tool cover -html=cover.out` drill-down.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out

bench:
	$(GO) test -bench=. -benchmem ./...

# Quick benchmark pass: every benchmark at a 100ms budget. CI runs this
# as a smoke job and uploads the output next to BENCH_perf_parallel.json.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchmem -benchtime=100ms ./... | tee bench_smoke.txt

# The batched-replay perf surface: scalar vs batched replay, the K-ary
# search's pass economics, and the Table1 consolidation. Hand-captured
# runs of this target feed BENCH_perf_batched.json; CI runs it as part
# of the bench smoke job.
bench-batched:
	$(GO) test -run '^$$' -bench 'BenchmarkReplayScalar|BenchmarkReplayBatch|BenchmarkSearchBisect|BenchmarkSearchKary' -benchmem -benchtime 100x ./internal/sim/ | tee bench_batched.txt
	$(GO) test -run '^$$' -bench 'BenchmarkTable1Consolidation' -benchtime 1x . | tee -a bench_batched.txt

# Prove the disabled-observability hot paths are still an inlined nil
# check: run the no-op benchmarks, record them in BENCH_obs_overhead.json
# and fail if any exceeds the 5 ns/op budget.
bench-obs-overhead:
	$(GO) test -run '^$$' -bench 'BenchmarkTelemetryOverhead/nop' -benchtime 100ms ./internal/telemetry/ | tee bench_obs.txt
	@awk 'BEGIN { printf "{\n  \"budget_ns_per_op\": 5,\n  \"benchmarks\": [\n"; n = 0; bad = 0 } \
	  / ns\/op/ && /nop-/ { if (n++) printf ",\n"; printf "    {\"name\": \"%s\", \"ns_per_op\": %s}", $$1, $$3; if ($$3 + 0 > 5) bad++ } \
	  END { printf "\n  ],\n  \"pass\": %s\n}\n", (bad == 0 && n > 0) ? "true" : "false"; exit (bad > 0 || n == 0) }' \
	  bench_obs.txt > BENCH_obs_overhead.json \
	  || { cat BENCH_obs_overhead.json; echo "FAIL: a disabled observability path exceeds the 5 ns/op budget"; exit 1; }
	@rm -f bench_obs.txt
	@cat BENCH_obs_overhead.json

# Fleet-scale placement benchmark: the full 1000-app hierarchical
# pipeline, recorded in BENCH_fleet_scale.json with a wall-clock
# regression gate. CI runs this in the bench smoke job.
bench-fleet:
	ROPUS_BENCH_FLEET=1 $(GO) test -run TestFleetScaleBench -count=1 -v .

# One run of the repository benchmark (perfbench/, declared in
# BENCHMARK.json) on workload W: table1, failover, fleet-1k or serve-mix.
W ?= table1
perfbench:
	bash perfbench/run.sh --workload $(W) --seed 42 --seconds 20 --trace 0

# Regenerate every table and figure of the paper's evaluation into results/.
experiments:
	$(GO) run ./cmd/experiments

fuzz:
	$(GO) test -fuzz FuzzReadCSV -fuzztime 30s ./internal/trace/
	$(GO) test -fuzz FuzzReadJSON -fuzztime 30s ./internal/trace/
	$(GO) test -fuzz FuzzDecode -fuzztime 30s ./internal/checkpoint/
	$(GO) test -fuzz FuzzBreakpoint -fuzztime 30s ./internal/portfolio/
	$(GO) test -fuzz FuzzTranslate -fuzztime 30s ./internal/portfolio/
	$(GO) test -fuzz FuzzScenarioDSL -fuzztime 30s ./internal/scenario/
	$(GO) test -fuzz FuzzPartition -fuzztime 30s ./internal/partition/
	$(GO) test -fuzz FuzzFleetGen -fuzztime 30s ./internal/workload/

# Regenerate the golden corpus after a deliberate behavioural change.
golden:
	$(GO) test ./cmd/ropus -run Golden -update

# Drain/resume contract of `ropus serve` against a real process.
serve-e2e: build
	$(GO) build -o ropus-cli ./cmd/ropus
	ROPUS=./ropus-cli bash scripts/serve_e2e.sh

# Fleet contract: three instances, one state dir, loadgen-driven, one
# instance kill -9ed mid-sweep; emits BENCH_serve_fleet.json.
fleet-e2e: build
	$(GO) build -o ropus-cli ./cmd/ropus
	$(GO) build -o ropus-loadgen ./cmd/loadgen
	ROPUS=./ropus-cli LOADGEN=./ropus-loadgen bash scripts/fleet_e2e.sh

clean:
	rm -rf results test_output.txt bench_output.txt bench_smoke.txt bench_batched.txt bench_obs.txt cover.out ropus-cli ropus-loadgen
