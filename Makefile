# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet fmt-check test test-short test-race test-benchmark bench bench-ab fuzz-smoke ci experiments experiments-check examples loc clean

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

# The repository benchmark (benchmark/) is a module of its own, so the
# root's ./... skips it: vet and test it from its directory. Its tests
# include the correctness checks an engine change can break — the
# daemon's completion stream byte-identical to an offline run, and
# exit 1 on a corrupted stream.
test-benchmark:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Judge the working tree against the commit BASE on the repository
# benchmark (benchmark/, see its README): BASE is checked out into a
# temporary git worktree and both sides run their own
# benchmark/run.sh on `sim-wide` and `sim-deep` at 3 seconds, in five
# interleaved pairs (seeds 1-5, the side that runs first alternating).
# The base checkout's Go build cache is a link to the working tree's,
# so the base builds warm instead of compiling the standard library;
# removing the worktree removes only the link. Then the working tree
# runs one traced `sim-wide` (seed 1, 3 seconds), which fails the
# target when it exits non-zero: its traced pass and ledger encode
# through the benchmark's wrapper sinks, which the engine calls
# synchronously, so their digests equal the untraced pass's, whose
# NDJSONSink is encoded on its own goroutine, only when the bytes are
# identical. Both result files stay in .bench_build/ab/; the exit
# code is otherwise treebench -compare's, 1 when any metric reads
# worse.
#
#   make bench-ab BASE=main
bench-ab:
	@test -n "$(BASE)" || { echo "usage: make bench-ab BASE=<rev>" >&2; exit 2; }
	@set -e; ab="$(CURDIR)/.bench_build/ab"; src="$$ab/base-src"; \
	rm -rf "$$ab"; mkdir -p "$$ab" "$(CURDIR)/.bench_build/gocache"; git worktree prune; \
	git worktree add --quiet --detach "$$src" "$(BASE)"; \
	trap 'git worktree remove --force "$$src"' EXIT; \
	mkdir -p "$$src/.bench_build"; ln -s "$(CURDIR)/.bench_build/gocache" "$$src/.bench_build/gocache"; \
	for seed in 1 2 3 4 5; do \
		order="base change"; [ $$((seed % 2)) = 1 ] || order="change base"; \
		for side in $$order; do \
			dir="$(CURDIR)"; [ $$side = change ] || dir="$$src"; \
			for w in sim-wide sim-deep; do \
				echo "bench-ab: seed $$seed $$side $$w"; \
				(cd "$$dir" && bash benchmark/run.sh --workload $$w --seed $$seed --seconds 3 --trace 0 \
					--out "$$ab/$$side.jsonl") >>"$$ab/runs.log"; \
			done; \
		done; \
	done; \
	echo "bench-ab: traced change sim-wide"; \
	bash benchmark/run.sh --workload sim-wide --seed 1 --seconds 3 --trace 1 >>"$$ab/runs.log" || \
		{ echo "bench-ab: the traced sim-wide run failed, see $$ab/runs.log" >&2; exit 1; }; \
	.bench_build/treebench -compare "$$ab/base.jsonl" "$$ab/change.jsonl"

# Short fuzz pass over every fuzz target (~10s each); corpus seeds
# alone run on plain `go test`, this digs a little deeper.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzCompactRoundTrip -fuzztime=10s ./internal/scenario
	$(GO) test -run=^$$ -fuzz=FuzzScenarioJSON -fuzztime=10s ./internal/scenario
	$(GO) test -run=^$$ -fuzz=FuzzEngineEquivalence -fuzztime=10s ./internal/scenario
	$(GO) test -run=^$$ -fuzz=FuzzRoundToClass -fuzztime=10s ./internal/workload
	$(GO) test -run=^$$ -fuzz=FuzzTraceValidate -fuzztime=10s ./internal/workload
	$(GO) test -run=^$$ -fuzz=FuzzJobDecode -fuzztime=10s ./internal/workload
	$(GO) test -run=^$$ -fuzz=FuzzJobEncode -fuzztime=10s ./internal/workload
	$(GO) test -run=^$$ -fuzz=FuzzMetricsEncode -fuzztime=10s ./internal/sim
	$(GO) test -run=^$$ -fuzz=FuzzEventHeap -fuzztime=10s ./internal/sim
	$(GO) test -run=^$$ -fuzz=FuzzGreedyScan -fuzztime=10s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzAppend -fuzztime=10s ./internal/jsonfloat
	$(GO) test -run=^$$ -fuzz=FuzzRunAccepted -fuzztime=10s .

# Everything CI needs: build, vet, a gofmt check, the full tests (the
# long property, constant-memory, fleet-determinism and serving-layer
# tests included), race-clean short tests, the repository benchmark's
# own tests, a byte-for-byte check of EXPERIMENTS.md, and the five
# facade example programs (about 3 s), which exit non-zero when a
# change to the engine or Result contract breaks them.
ci: build vet fmt-check test test-race test-benchmark experiments-check examples

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

# Run the five example programs of the public facade (examples/).
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/datacenter
	$(GO) run ./examples/packetrouting
	$(GO) run ./examples/heterogeneous
	$(GO) run ./examples/certificates

# Print the line counts of the root module's tracked Go files, non-test
# and test apart; benchmark/ is a module of its own and is left out.
loc:
	@git ls-files -- '*.go' ':!:benchmark/' | grep -v '_test\.go$$' | xargs cat | wc -l | xargs printf 'non-test Go lines: %s\n'
	@git ls-files -- '*_test.go' ':!:benchmark/' | xargs cat | wc -l | xargs printf 'test Go lines:     %s\n'

clean:
	$(GO) clean ./...
