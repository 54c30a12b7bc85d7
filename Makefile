GO ?= go
FUZZTIME ?= 10s

# Perf-trajectory suite: core save/detect, downstream clustering, and the
# three neighbor indexes. `make bench BENCHOUT=BENCH_<pr>.json` snapshots it
# into $(BENCHOUT) under $(BENCHKEY) (conventionally "before" at the start
# of a perf change and "after" at the end) via cmd/benchjson, which merges
# rather than overwrites so both snapshots survive in the committed file.
# BENCHOUT has no default: a bare `make bench` would otherwise overwrite an
# earlier change's committed snapshot. Every benchmark runs five times and
# benchjson folds the repeats into a median with min/max and GOMAXPROCS, so
# each snapshot carries its spread.
BENCHKEY ?= after
BENCHPAT = BenchmarkSaveSingle$$|BenchmarkSaveSingleSaved$$|BenchmarkDetect$$|BenchmarkCluster|BenchmarkServeSave|BenchmarkGridWithin$$|BenchmarkGridCountWithin$$|BenchmarkGridKNN$$|BenchmarkVPTreeWithin$$|BenchmarkVPTreeCountWithin$$|BenchmarkVPTreeKNN$$|BenchmarkBruteWithin$$|BenchmarkDetectMixed$$|BenchmarkSaveSingleMixed$$|BenchmarkMutateInsert|BenchmarkRedetectTouched|BenchmarkMutateRebuild|BenchmarkShardDetect|BenchmarkShardSave|BenchmarkDetectExactLattice

.PHONY: check build vet test race cover fuzz bench bench-diff bench-check serve-smoke mutate-smoke shard-smoke chaos drift profile perfbench

check: build vet race cover bench-check serve-smoke mutate-smoke shard-smoke chaos drift fuzz perfbench

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	@test -n "$(BENCHOUT)" || { echo "usage: make bench BENCHOUT=BENCH_<pr>.json [BENCHKEY=before|after]" >&2; exit 2; }
	$(GO) test -run '^$$' -bench '$(BENCHPAT)' -benchmem -count 5 . ./internal/neighbors ./internal/serve > .bench.out.tmp
	$(GO) run ./cmd/benchjson -out $(BENCHOUT) -key $(BENCHKEY) < .bench.out.tmp
	rm -f .bench.out.tmp

# The per-layer regression gate: compare two snapshots, each FILE or
# FILE:KEY (KEY defaults to after), matching entries by package, name and
# GOMAXPROCS. Prints old and new median ns/op and allocs/op and fails when
# a new median is above the old snapshot's recorded max, e.g.
#   make bench-diff OLD=BENCH_17.json:before NEW=BENCH_17.json:after
bench-diff:
	@test -n "$(OLD)" -a -n "$(NEW)" || { echo "usage: make bench-diff OLD=BENCH_<a>.json[:key] NEW=BENCH_<b>.json[:key]" >&2; exit 2; }
	$(GO) run ./cmd/benchjson -diff $(OLD) $(NEW)

# Coverage summary: per-function percentages plus the total line, so a PR
# that drops a package's coverage shows up in the diff of `make cover`.
cover:
	$(GO) test -coverprofile=.cover.out.tmp ./...
	$(GO) tool cover -func=.cover.out.tmp | tail -n 1
	rm -f .cover.out.tmp

# Profile the mixed numeric+text pipeline (the compiled-kernel showcase,
# see docs/PERFORMANCE.md): discbench runs the `mixed` experiment with CPU
# and heap profiles written next to the repo root. Inspect with
# `go tool pprof cpu.prof`.
profile:
	$(GO) run ./cmd/discbench -exp mixed -cpuprofile cpu.prof -memprofile mem.prof
	@echo "wrote cpu.prof and mem.prof; open with: $(GO) tool pprof cpu.prof"

# Smoke pass: run every benchmark in the tree exactly once so a benchmark
# that panics or regresses into an error fails tier-1 without paying for a
# full measurement run.
bench-check:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./... > /dev/null

# Scripted serving round-trip: build discserve, drive a real listener
# through upload -> detect -> save -> repair -> induced 429 -> SIGTERM
# drain (see serve_smoke_test.go).
serve-smoke:
	$(GO) test -run TestServeSmoke -count=1 .

# Scripted mutable-session round-trip: build discserve, drive a real
# listener through upload -> 40 single-tuple inserts (forcing a mid-stream
# delta merge) -> detect -> update -> delete -> save -> SIGTERM drain
# (see mutate_smoke_test.go).
mutate-smoke:
	$(GO) test -run TestMutateSmoke -count=1 .

# Scripted coordinator round-trip: build discserve, start three worker
# listeners plus a coordinator over them, drive upload -> detect -> save,
# SIGKILL one replica owner (failover save + degraded /varz + labeled
# /metrics), SIGKILL the second owner (503), then SIGTERM drain (see
# shard_smoke_test.go).
shard-smoke:
	$(GO) test -run TestShardSmoke -count=1 .

# The repo benchmark against this tree: perfbench/ is its own module
# (replace repro => ../), so neither `go build ./...` nor any other target
# compiles it, and a public name it still calls but the tree deleted would
# otherwise first fail at the next benchmark run. Compiles, vets and runs
# its unit tests; it does not run the workloads.
perfbench:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# Docs drift gate: every json counter tag in obs must appear in the
# docs/OBSERVABILITY.md tables, and every tag the tables document must
# exist in the code (see telemetry_test.go).
drift:
	$(GO) test -run TestObservabilityDocsDrift -count=1 .

# Chaos suite: fault-injected restart loops, batcher panic recovery, and the
# subprocess SIGKILL harness (kill mid-snapshot-write, restart, assert
# recovery invariants) under -race, plus the durability-layer unit tests
# (snapshot format, fault sites, robust client).
chaos:
	$(GO) test -race -count=1 -run 'Chaos' . ./internal/serve ./internal/shard ./internal/serve/coord
	$(GO) test -race -count=1 ./internal/snapshot ./internal/fault ./internal/serve/client

# Each fuzz target needs its own invocation: go test allows one -fuzz
# pattern per package run.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzSave -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzReadCSV -fuzztime=$(FUZZTIME) ./internal/data
	$(GO) test -run='^$$' -fuzz=FuzzLevenshteinMetric -fuzztime=$(FUZZTIME) ./internal/metric
	$(GO) test -run='^$$' -fuzz=FuzzNGramSimilarityBounds -fuzztime=$(FUZZTIME) ./internal/metric
