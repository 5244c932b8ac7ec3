GO ?= go

.PHONY: all build vet test bench bench-e2e gate baseline pgo serve loadtest smoke

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Compile-and-run every benchmark once (the CI smoke; the million-agent
# agent-vector convergence reference is minutes long and skipped here too).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -skip 'CountEngineConvergence/batch/n=1000000' ./...

# Run the end-to-end benchmark (perfbench/, declared in BENCHMARK.json): each
# workload once, untraced, stopping at the first failing run.
bench-e2e:
	for w in paper-sims counts-consensus popsimd-jobs; do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 20 --trace 0 || exit 1; \
	done

# Enforce the ns/op budgets locally — the same perf/budgets_*.json rules CI
# applies to the BENCH_* artifacts.
gate:
	{ $(GO) test -run '^$$' -bench 'CountEngineThroughput' -benchtime 2000000x . ; \
	  $(GO) test -run '^$$' -bench 'RunUntilArming' -benchtime 200000x . ; } \
	    | $(GO) run ./cmd/benchgate -budgets perf/budgets_counts.json
	$(GO) test -run '^$$' -bench 'EdgeSampler' -benchtime 2000000x ./internal/sched \
	    | $(GO) run ./cmd/benchgate -budgets perf/budgets_topology.json
	@if [ "$$(getconf _NPROCESSORS_ONLN)" -ge 4 ]; then \
	  { $(GO) test -run '^$$' -bench 'BatchDynamicsThroughput|HybridThroughput' -benchtime 100000000x -cpu 4 . ; \
	    $(GO) test -run '^$$' -bench 'BatchConsensus' -benchtime 1x -timeout 30m . ; } \
	      | $(GO) run ./cmd/benchgate -budgets perf/budgets_batch.json ; \
	else \
	  echo "skipping batch gate: the hybrid P=4 ratio needs 4 cores (CI enforces it on 4-core runners)" ; \
	fi
	{ $(GO) test -run '^$$' -bench 'ObsOverhead/counts' -benchtime 2000000x . ; \
	  $(GO) test -run '^$$' -bench 'ObsOverhead/batch' -benchtime 100000000x . ; } \
	    | $(GO) run ./cmd/benchgate -budgets perf/budgets_obs.json

# Refresh the committed benchstat baselines (perf/baseline_*.txt) from this
# machine. CI's delta report compares its fresh runs against these, so
# regenerate them on a quiet machine and commit alongside perf changes.
baseline:
	{ $(GO) test -run '^$$' -bench 'CountEngineThroughput' -benchtime 2000000x -count 3 . ; \
	  $(GO) test -run '^$$' -bench 'RunUntilArming' -benchtime 200000x -count 3 . ; } \
	    | $(GO) run ./cmd/benchgate -extract > perf/baseline_counts.txt

# Run the simulation job server (see cmd/popsimd for the flag set and
# internal/serve for the API).
serve:
	$(GO) run ./cmd/popsimd

# End-to-end server smoke: million-agent job over HTTP, cache hit on
# resubmission, metrics, clean SIGTERM drain (the CI serve-smoke job).
smoke:
	./examples/serve/smoke.sh

# Load-test the job server over its real HTTP API and record the throughput
# trajectory the way the engine benchmarks do (BENCH_serve.json in CI).
loadtest:
	$(GO) test -json -run '^$$' -bench 'ServeLoad' -benchtime 20x ./internal/serve \
	    | tee BENCH_serve.json

# Refresh the committed PGO profiles: profile the hot benchmark families
# (count sampler, batched engine, wrapped simulators) and
# install the profile as default.pgo next to each main package — go ≥ 1.21
# consumes it automatically on `go build`.
pgo:
	$(GO) test -run '^$$' -bench 'CountEngineThroughput|EngineThroughputLarge|SimWrapped$$' \
	    -benchtime 1000000x -cpuprofile cpu.prof -o bench.test .
	$(GO) tool pprof -proto cpu.prof > cmd/ppsim/default.pgo
	cp cmd/ppsim/default.pgo cmd/experiments/default.pgo
	rm -f cpu.prof bench.test
