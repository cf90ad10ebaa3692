# Developer entry points. `make ci` is the full gate: build, vet, format
# check, the benchmark module's self-test, the test suite under the race
# detector (the concurrent sweep harness in internal/runner makes -race
# load-bearing), and a short fuzz budget on the event order. CI layers the
# targets into lanes: the fast PR lane runs build+vet+fmt-check+bench-check+
# short tests, the full lane runs `make ci`, and separate lanes run lint
# (staticcheck) and the benchmarks + chaos scenarios.

GO ?= go
STATICCHECK_VERSION ?= 2025.1

.PHONY: all build vet fmt-check tidy-check lint test test-short test-race fuzz bench-check bench bench-json bench-predict bench-http bench-sim bench-autoscale chaos trend workload examples ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# On failure, prints the actual diff so a CI log is enough to fix the
# formatting without reproducing locally.
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; gofmt -d .; exit 1; \
	fi

# go.mod/go.sum must already be tidy; -diff prints what tidy would change
# and exits nonzero instead of rewriting the files.
tidy-check:
	$(GO) mod tidy -diff

# Uses a staticcheck binary from PATH when present (CI installs one);
# otherwise falls back to `go run`, which needs network access, so lint is
# a separate lane rather than part of `ci`.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The experiments package alone can exceed go test's default 10-minute
# per-package timeout under the race detector on small machines.
test-race:
	$(GO) test -race -timeout 45m ./...

# FuzzEngineOrder drives sim.Engine and a sort-a-slice reference with the
# same byte-string program and compares everything observable; a short
# budget on every full-lane run keeps hunting past the committed corpus.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzEngineOrder -fuzztime 20s ./internal/sim

# bench/ is a nested module: `go build ./... && go test ./...` never compile
# it, so an internal signature change can leave tier-1 green and the
# repository's benchmark unrunnable. This builds it and runs every workload
# at 1/50 scale.
bench-check:
	cd bench && $(GO) test .

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Chaos scenarios double as the gateway benchmark: deterministic QoS
# counters plus a wall-clock figure, uploaded from CI as an artifact.
bench-json:
	$(GO) run ./cmd/abacus-chaos -bench -json -o BENCH_gateway.json

# Prediction hot-path benchmarks (batched MLP forward, span search,
# gateway round) as a machine-readable artifact; allocs/op is deterministic
# and trend-gated tightly, ns/op generously.
bench-predict:
	$(GO) run ./cmd/abacus-predictbench -o BENCH_predict.json

# HTTP ingest saturation benchmark: closed-loop ramp against an in-process
# gateway; the artifact records peak sustained QPS at the goodput floor,
# latency at peak, allocs/request, and the wire-codec component benchmarks.
bench-http:
	$(GO) run ./cmd/abacus-httpbench -o BENCH_http.json

# Simulation hot-path benchmarks: event schedule/fire, heap churn,
# overlapped kernel chains, and a full executor group cycle. Allocation-free
# in steady state by construction (PR 10); the trend gate holds allocs/op
# tightly so the floor cannot quietly erode.
bench-sim:
	$(GO) run ./cmd/abacus-simbench -o BENCH_sim.json

# Elastic-autoscaler benchmark: the diurnal-autoscale scenario distilled
# into the trend artifact abacus-trend gates on — goodput held to an
# absolute 0.98 floor, node-milliseconds (the cost the scaler exists to
# save) gated against growth.
bench-autoscale:
	$(GO) run ./cmd/abacus-chaos -bench -scenario diurnal-autoscale -autoscale-out BENCH_autoscale.json > /dev/null

# Bench-trend check: rebuild both benchmark artifacts at TREND_BASE
# (default origin/main) in a throwaway worktree, then diff against the
# working tree's artifacts. Fails on a dropped scenario or benchmark, a
# goodput drop, p99 growth, a per-service shed spike or admitted drop, or
# hot-path allocs/op growth beyond the abacus-trend tolerances. The predict
# and http gates only engage when the base ref has the matching bench
# command (so they are skipped against pre-artifact history).
TREND_BASE ?= origin/main

trend: bench-json bench-predict bench-http bench-sim bench-autoscale
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'git worktree remove --force "$$tmp" 2>/dev/null || rm -rf "$$tmp"' EXIT; \
	git worktree add --detach "$$tmp" $(TREND_BASE) >/dev/null; \
	(cd "$$tmp" && $(GO) run ./cmd/abacus-chaos -o BENCH_base.json >/dev/null); \
	mv "$$tmp/BENCH_base.json" BENCH_base.json; \
	predict_flags=""; \
	if [ -d "$$tmp/cmd/abacus-predictbench" ]; then \
		(cd "$$tmp" && $(GO) run ./cmd/abacus-predictbench -o PREDICT_base.json >/dev/null); \
		mv "$$tmp/PREDICT_base.json" PREDICT_base.json; \
		predict_flags="-predict-base PREDICT_base.json -predict-head BENCH_predict.json"; \
	fi; \
	http_flags=""; \
	if [ -d "$$tmp/cmd/abacus-httpbench" ]; then \
		(cd "$$tmp" && $(GO) run ./cmd/abacus-httpbench -o HTTP_base.json >/dev/null); \
		mv "$$tmp/HTTP_base.json" HTTP_base.json; \
		http_flags="-http-base HTTP_base.json -http-head BENCH_http.json -max-http-allocs 300"; \
	fi; \
	sim_flags=""; \
	if [ -d "$$tmp/cmd/abacus-simbench" ]; then \
		(cd "$$tmp" && $(GO) run ./cmd/abacus-simbench -o SIM_base.json >/dev/null); \
		mv "$$tmp/SIM_base.json" SIM_base.json; \
		sim_flags="-sim-base SIM_base.json -sim-head BENCH_sim.json"; \
	fi; \
	autoscale_flags=""; \
	if grep -qs autoscale-out "$$tmp/cmd/abacus-chaos/main.go"; then \
		(cd "$$tmp" && $(GO) run ./cmd/abacus-chaos -scenario diurnal-autoscale -autoscale-out AUTOSCALE_base.json >/dev/null); \
		mv "$$tmp/AUTOSCALE_base.json" AUTOSCALE_base.json; \
		autoscale_flags="-autoscale-base AUTOSCALE_base.json -autoscale-head BENCH_autoscale.json"; \
	fi; \
	$(GO) run ./cmd/abacus-trend -base BENCH_base.json -head BENCH_gateway.json $$predict_flags $$http_flags $$sim_flags $$autoscale_flags

# Run the built-in fault suite and hold the recovery scenarios to their QoS
# floor (the throttle50 baseline intentionally fails it, so the floor is
# asserted on the degraded run only). The cluster scenario additionally pins
# fault-driven migration: one of four nodes throttled to half speed must not
# pull cluster goodput below the same floor.
chaos:
	$(GO) run ./cmd/abacus-chaos
	$(GO) run ./cmd/abacus-chaos -scenario throttle50-degraded -assert-goodput 0.99
	$(GO) run ./cmd/abacus-chaos -scenario cluster-node-throttle -assert-goodput 0.99
	$(GO) run ./cmd/abacus-chaos -scenario flash-crowd -assert-goodput 0.99
	$(GO) run ./cmd/abacus-chaos -scenario heavy-tail -assert-goodput 0.99
	$(GO) run ./cmd/abacus-chaos -scenario diurnal-ramp -assert-goodput 0.98
	$(GO) run ./cmd/abacus-chaos -scenario diurnal-autoscale -assert-goodput 0.98

# Validate every example workload spec: parse, bind against the model zoo,
# materialize, and a tracev2 write→read→write round trip that must be
# byte-identical.
workload:
	$(GO) run ./cmd/abacus-workload -validate examples/workloads/*

# Run the executable examples that double as end-to-end smoke tests; the
# autoscale example drives the live elastic scaler through a full diurnal
# cycle in virtual time, so a lifecycle regression fails `make ci` even
# before the test suite points at it.
examples:
	$(GO) run ./examples/autoscale

ci: build vet fmt-check bench-check test-race fuzz workload examples
