# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet fmt-check test test-short test-race test-engine test-benchmark bench bench-json bench-compare bench-dispatch stream-smoke fleet-smoke serve-smoke fuzz-smoke ci experiments experiments-check examples clean

all: build vet test test-race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail when any Go file in the tree (benchmark/ included) is not
# gofmt-clean, listing the offenders.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race -short ./...

# The engine packages' full tests, without -short: test-race skips
# TestEngineStress (120 randomized configurations under SelfCheck) and
# the other long property tests, so this runs them.
test-engine:
	$(GO) test -count=1 ./internal/sim ./internal/scenario

# The repository benchmark (benchmark/) is a module of its own, so the
# root's ./... skips it: vet and test it from its directory. Its tests
# include the correctness checks an engine change can break — the
# daemon's completion stream byte-identical to an offline run, and
# exit 1 on a corrupted stream.
test-benchmark:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the persistent benchmark record (see DESIGN.md §6).
bench-json:
	$(GO) run ./cmd/bench -out BENCH_9.json

# Rerun the kernels and fail (exit 3) if any regressed >25% vs the
# checked-in record.
bench-compare:
	$(GO) run ./cmd/bench -out /tmp/BENCH_compare.json -compare BENCH_9.json

# Iterate on the dispatch fast path: run only the engine/dispatch-*
# kernels and drop a CPU profile next to the repo for
# `go tool pprof ./dispatch.prof`.
bench-dispatch:
	$(GO) run ./cmd/bench -dispatch -cpuprofile dispatch.prof

# Assert the constant-memory streaming property: a 1M-job bounded-
# retention run must keep its peak heap under a fixed ceiling and flat
# (within 2x) vs a 100k-job run. Exit 4 on failure.
stream-smoke:
	$(GO) run ./cmd/bench -stream-smoke

# Assert fleet determinism: the same simulation key must produce a
# byte-identical scorecard and per-tree NDJSON at Workers=1 and
# Workers=4. Exit 5 on failure.
fleet-smoke:
	$(GO) run ./cmd/bench -fleet-smoke

# Assert the serving-layer overload contract: under 5x overload the
# daemon must shed with 429 + Retry-After, keep the heap bounded,
# reopen after a quiet period, and drain byte-identically to an
# offline replay of the accepted trace — and the warm clean path must
# stay under the per-admitted-job malloc ceiling. Exit 6 on failure.
serve-smoke:
	$(GO) run ./cmd/bench -serve-smoke

# Short fuzz pass over every fuzz target (~10s each); corpus seeds
# alone run on plain `go test`, this digs a little deeper.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzCompactRoundTrip -fuzztime=10s ./internal/scenario
	$(GO) test -run=^$$ -fuzz=FuzzScenarioJSON -fuzztime=10s ./internal/scenario
	$(GO) test -run=^$$ -fuzz=FuzzRoundToClass -fuzztime=10s ./internal/workload
	$(GO) test -run=^$$ -fuzz=FuzzTraceValidate -fuzztime=10s ./internal/workload
	$(GO) test -run=^$$ -fuzz=FuzzJobDecode -fuzztime=10s ./internal/workload
	$(GO) test -run=^$$ -fuzz=FuzzJobEncode -fuzztime=10s ./internal/workload
	$(GO) test -run=^$$ -fuzz=FuzzMetricsEncode -fuzztime=10s ./internal/sim
	$(GO) test -run=^$$ -fuzz=FuzzAppend -fuzztime=10s ./internal/jsonfloat

# Everything CI needs: build, vet, a gofmt check, race-clean short
# tests, the engine packages' full tests, the repository benchmark's
# own tests, a byte-for-byte check of EXPERIMENTS.md, a smoke run of
# the benchmark harness (fast benchtime, throwaway output), and the
# constant-memory streaming, fleet determinism and serving-layer
# overload checks.
ci: build vet fmt-check test-race test-engine test-benchmark experiments-check stream-smoke fleet-smoke serve-smoke
	$(GO) run ./cmd/bench -quick -out /tmp/BENCH_ci.json

# Regenerate EXPERIMENTS.md. The suite reports no wall time and is
# byte-identical at any -parallel, so the default pool is fine.
experiments:
	$(GO) run ./cmd/experiments -format md -out EXPERIMENTS.md

# Fail when EXPERIMENTS.md is stale: regenerate the suite into a temp
# file and diff it against the committed report.
experiments-check:
	@tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) run ./cmd/experiments -format md -out "$$tmp" || exit 1; \
	diff -u EXPERIMENTS.md "$$tmp" || { echo "EXPERIMENTS.md is stale: run make experiments"; exit 1; }

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/datacenter
	$(GO) run ./examples/packetrouting
	$(GO) run ./examples/heterogeneous
	$(GO) run ./examples/certificates

clean:
	$(GO) clean ./...
