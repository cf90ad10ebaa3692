# Developer entry points. `make ci` is the full gate: build, vet, format
# check, the benchmark module's self-test, the test suite under the race
# detector (the concurrent sweep harness in internal/runner makes -race
# load-bearing), and a short budget on every fuzz target. CI layers the
# targets into lanes: the fast PR lane runs build+vet+fmt-check+bench-check+
# short tests, the full lane runs `make ci`, and separate lanes run lint
# (staticcheck) and the benchmarks + chaos scenarios.

GO ?= go
STATICCHECK_VERSION ?= 2025.1

.PHONY: all build vet fmt-check tidy-check lint test test-short test-race test-paced fuzz bench-check bench chaos workload examples ci

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

# The wall-clock-paced gateway tests (build tag paced). Whether they pass
# depends on the host keeping up with a compressed real-time schedule, so
# they stay out of `go test ./...`; a failure logs the host's lag per wall
# second. CI runs this as its own named step.
test-paced:
	$(GO) test -tags paced -count=1 ./internal/server

# Every fuzz target, ~10 s each; a short budget on every full-lane run keeps
# hunting past the committed corpora. FuzzEngineOrder drives sim.Engine and a
# sort-a-slice reference with the same byte-string program; FuzzSpecSpan
# checks spec-table spans against the cost model bit for bit; the predictor
# pair checks the feature codec's round trip and the sampler's groups.
# `go test -fuzz` takes one target per run.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzEngineOrder$$' -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzSpecSpan$$' -fuzztime 10s ./internal/dnn
	$(GO) test -run '^$$' -fuzz '^FuzzCodecEncode$$' -fuzztime 10s ./internal/predictor
	$(GO) test -run '^$$' -fuzz '^FuzzSamplerSeeds$$' -fuzztime 10s ./internal/predictor

# bench/ is a nested module: `go build ./... && go test ./...` never compile
# it, so an internal signature change can leave tier-1 green and the
# repository's benchmark unrunnable. This builds it and runs every workload
# at 1/50 scale.
bench-check:
	cd bench && $(GO) test .

# Root-package micro-benchmarks; per-layer ones live beside their packages
# (`go test -bench . ./internal/...`). The repository's end-to-end benchmark
# is `bash bench/run.sh`, declared by BENCHMARK.json (see bench/README.md).
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

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
# before the test suite points at it. The MIG and cluster examples run the
# offline serving loop on partitioned and multi-GPU placements.
examples:
	$(GO) run ./examples/autoscale
	$(GO) run ./examples/mig
	$(GO) run ./examples/cluster

ci: build vet fmt-check bench-check test-race fuzz workload examples
