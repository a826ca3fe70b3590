GO ?= go
DATE := $(shell date +%Y-%m-%d)

.PHONY: all build test vet fmt bench bench-check bench-repo check-imports traffic lines

all: vet build test check-imports

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# check-imports fails if any example or command, tests included, imports
# diva/internal/...: the public façade (diva, diva/strategy, diva/topology,
# diva/experiments) is their only supported dependency. TestNoTestOnlyCode
# holds the rule; under -short it checks the import lists only and skips
# its type-checking pass.
check-imports:
	$(GO) test -short -run '^TestNoTestOnlyCode$$' .

# bench runs every figure benchmark (plus the message-hop micro-benchmark,
# internal/sim's kernel-queue, cold-run, timer, process-switch and spawn
# benchmarks, and internal/core's fork and machine-build benchmarks) once and records
# the host, ns/op, allocs/op and all reported simulated-result metrics as
# BENCH_<date>.json, keeping the perf trajectory machine-readable across PRs
# (see PERF.md). At one iteration BenchmarkBuild is the cold build:
# topology, plan and machine.
BENCH_PATTERN = 'BenchmarkFig|BenchmarkKernelQueue|BenchmarkKernelColdRun|BenchmarkTimerArmCancel|BenchmarkProcSwitch|BenchmarkSpawnRun|BenchmarkMessageHop|BenchmarkGraphRoute|BenchmarkReactiveTransport|BenchmarkFork|BenchmarkBuild'
BENCH_PKGS = . ./internal/sim ./internal/core
bench:
	$(GO) test -run '^$$' -bench $(BENCH_PATTERN) -benchmem -benchtime 1x $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson > BENCH_$(DATE).json
	@echo wrote BENCH_$(DATE).json

# bench-check runs the benchmark suite into a scratch file (the committed
# BENCH_<date>.json baseline is never clobbered) and validates the pipeline
# end to end: the JSON must parse and cover every BenchmarkFig the test
# binary lists, and `benchjson -diff` gates it against the latest committed
# BENCH_*.json in the tree — failing on >50% ns/op regressions and, with zero
# tolerance, on ANY simulated-metric drift (the metrics are deterministic,
# so a drift means the simulation semantics changed).
# The baseline is the newest BENCH_*.json known to git (a local `make
# bench` for a new date must not silently replace the gate's reference).
# Absolute ns/op is machine-relative: benchjson compares it only when the
# baseline and the fresh run record the same host (CPU model, nproc, Go
# version, GOMAXPROCS), so on CI's shared runners the gate is allocs/op
# and the simulated metrics, which stay zero-tolerance everywhere.
# MAX_ALLOC_REGRESS gates allocs/op with a tight default: allocation
# counts are near-deterministic and machine-independent, so unlike ns/op
# the bound does not need to be loosened for cross-machine CI runs.
# BENCH_REQUIRE names benchmark families (prefixes) that must be present
# both in the fresh run and in the committed baseline: -expect only covers
# what the current test binary lists, so without the baseline check a new
# benchmark family could land without ever refreshing BENCH_<date>.json.
BASELINE = $(lastword $(sort $(shell git ls-files 'BENCH_*.json')))
BENCH_REQUIRE = BenchmarkGraphRoute,BenchmarkReactiveTransport,BenchmarkFork,BenchmarkBuild,BenchmarkKernelColdRun,BenchmarkProcSwitch,BenchmarkSpawnRun
MAX_REGRESS ?= 50
MAX_ALLOC_REGRESS ?= 10
bench-check:
	$(GO) test -run '^$$' -bench $(BENCH_PATTERN) -benchmem -benchtime 1x $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson > .bench-new.json
	$(GO) test -run '^$$' -list $(BENCH_PATTERN) $(BENCH_PKGS) | grep '^Benchmark' > .benchlist.txt
	$(GO) run ./cmd/benchjson -check .bench-new.json -expect .benchlist.txt -require $(BENCH_REQUIRE)
	@if [ -n "$(BASELINE)" ]; then \
		$(GO) run ./cmd/benchjson -check "$(BASELINE)" -require $(BENCH_REQUIRE); \
		$(GO) run ./cmd/benchjson -diff -max-regress $(MAX_REGRESS) \
			-max-alloc-regress $(MAX_ALLOC_REGRESS) "$(BASELINE)" .bench-new.json; \
	else \
		echo "bench-check: no committed BENCH_*.json baseline, skipping diff"; \
	fi
	@rm -f .benchlist.txt .bench-new.json

# bench-repo vets and tests the repo benchmark (benchmark/, the module
# BENCHMARK.json runs). It is a module of its own, so the root `go test
# ./...` never compiles it: this target is what notices when an internal
# signature its layer probes call (benchmark/probes.go) has changed.
bench-repo:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# lines prints the non-test Go lines of each package directory and their
# total, outside benchmark/ and .bench_build/: the count ROADMAP item 10
# asks every change to record before and after.
lines:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%-36s %6d\n", d, n[d]; printf "%-36s %6d\n", "total", t }' | sort

# traffic lists the code that the benchmark's workloads and the quick figure
# suite never reach: the first table of the line-budget audit (ROADMAP item
# 10). It builds benchmark/ and cmd/experiments with coverage of every diva
# package into a temporary directory, runs there each workload for 6 s
# (seed 3, tracing off) and `experiments -quick`, all under one GOCOVERDIR,
# and prints the functions outside diva/benchmark/ at 0.0 %, then each
# package's unreached and instrumented statements. Nothing in the checkout
# is written.
TRAFFIC_WORKLOADS = figures-dsm serve-fork warm-state faults-recovery
traffic:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; mkdir "$$tmp/cov"; \
	(cd benchmark && $(GO) build -cover -coverpkg=diva/... -o "$$tmp/divabench" .); \
	$(GO) build -cover -coverpkg=diva/... -o "$$tmp/experiments" ./cmd/experiments; \
	cd "$$tmp"; export GOCOVERDIR="$$tmp/cov"; \
	for w in $(TRAFFIC_WORKLOADS); do ./divabench -workload $$w -seed 3 -seconds 6 -trace 0 > /dev/null; done; \
	./experiments -quick > /dev/null; \
	$(GO) tool covdata func -i cov | awk '$$NF == "0.0%" && $$1 !~ /^diva\/benchmark\//'; \
	$(GO) tool covdata textfmt -i cov -o profile.txt; \
	awk 'NR > 1 && $$1 !~ /^diva\/benchmark\// { n[$$1] = $$2; if ($$3 > 0) hit[$$1] = 1 } \
	END { for (b in n) { p = b; sub(/\/[^\/]*:.*/, "", p); all[p] += n[b]; miss[p] += hit[b] ? 0 : n[b]; A += n[b]; M += hit[b] ? 0 : n[b] } \
	for (p in all) printf "%-32s %5d of %5d statements unreached\n", p, miss[p], all[p]; \
	printf "%-32s %5d of %5d statements unreached\n", "total", M, A }' profile.txt | sort
