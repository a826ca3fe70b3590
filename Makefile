GO ?= go
DATE := $(shell date +%Y-%m-%d)

.PHONY: all build test vet fmt bench bench-check bench-repo check-imports

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
