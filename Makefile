.PHONY: check fmt vet build test race differential obsgate fuzz-smoke perfbench-smoke bench bench-all bench-compare

# The pre-PR gate: formatting, static analysis, build, race-enabled tests,
# the multi-query differential suite under the race detector, the
# tracing overhead gates, a short fuzz of the storage decoders, and the
# end-to-end benchmark's smoke test.
check: fmt vet build race differential obsgate fuzz-smoke perfbench-smoke

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

build:
	go build ./...

# Tier-1: the fast suite. -short skips the stress tests and trims the
# property-test rounds; the differential harness itself always runs.
test:
	go test -short ./...

race:
	go test -race ./...

# The determinism gate: the differential harness (engines vs scan, traced
# vs untraced, SoA vs AoS, file-backed vs simulated storage, incremental vs
# one-shot, pinned avoidance counters), Lemma 1/2 soundness properties,
# the bounded-kernel contract properties, the shared session/processor
# stress tests, and the store concurrency tests — all under the race
# detector.
differential:
	go test -race -count=1 -run '^(TestDifferential|TestLemma|TestStress|TestDistanceWithin|TestMinkowski|TestBufferConcurrency|TestDiskConcurrent|TestPagerSingleflight)' \
		./internal/msq/ ./internal/store/ ./internal/vec/

# A short fuzz of the persistent-storage decoders: corrupt page records
# and manifests must produce errors, never panics or over-allocation. The
# committed seed corpora cover the interesting boundaries; 30 seconds per
# target explores beyond them on every check.
fuzz-smoke:
	go test -run='^$$' -fuzz=FuzzPageDecode -fuzztime=30s ./internal/store/
	go test -run='^$$' -fuzz=FuzzManifestDecode -fuzztime=30s ./internal/store/
	go test -run='^$$' -fuzz=FuzzColumnarPageDecode -fuzztime=30s ./internal/store/
	go test -run='^$$' -fuzz=FuzzTableDecode -fuzztime=30s ./internal/pivot/

# The observability overhead gates: with no tracer installed, the hooked
# page loop must run within 2% of the bare loop; with a tracer installed,
# a 20-d m=100 scan batch must run within 10% of the untraced batch.
# Timing-sensitive, so they run without the race detector (under -race
# the tests skip themselves).
obsgate:
	go test -count=1 -run TestDisabledHookOverhead ./internal/obs/
	go test -count=1 -run TestTracedOverhead ./internal/msq/

# The end-to-end benchmark (a separate module under perfbench/) at tiny
# sizes: every metric is emitted, counters repeat exactly, the traced
# replay matches the public stack, and wrong answers count as failures.
perfbench-smoke:
	cd perfbench && go test ./...

# The perf gate for the hot path: kernel microbenchmarks (full Distance vs
# bounded DistanceWithin, with allocation counts for the scratch-reuse
# check), then the end-to-end artifacts — the kernels experiment
# (BENCH_kernels.json), the phase-latency profile (BENCH_obs.json) and the
# rest of the BENCH_*.json set.
bench:
	go test -bench='BenchmarkDistance|BenchmarkSortRefs|BenchmarkMultiQueryAll' -benchmem -run=^$$ \
		./internal/vec/ ./internal/vafile/ ./internal/msq/
	go run ./cmd/msqbench -experiment kernels
	go run ./cmd/msqbench -experiment obs
	go run ./cmd/msqbench -experiment distobs
	go run ./cmd/msqbench -experiment load
	go run ./cmd/msqbench -experiment storage
	go run ./cmd/msqbench -experiment block
	go run ./cmd/msqbench -experiment engines
	go run ./cmd/msqbench -experiment advisor

# Every benchmark in the repository, including the paper-figure suites.
bench-all:
	go test -bench=. -benchmem -run=^$$ ./...

# The regression gate: regenerate every BENCH_*.json artifact into a
# scratch directory and diff it against the committed baseline with
# benchcompare, failing on a >10% regression of any scale-free metric
# (identity verdicts, speedups, avoidance counters, pages read, and the
# advisor's calibrated prediction error). Raw
# wall-clock numbers are machine-dependent and are not compared;
# speedups, being wall-clock ratios, are judged against a wider 50%
# band: back-to-back runs of one binary on a busy single-core runner
# swing individual kernel speedup rows by ±26%, so a tighter band
# flakes on noise instead of catching regressions (the deterministic
# counters, which catch real work regressions exactly, stay at 10%).
bench-compare:
	@rm -rf .bench-fresh && mkdir -p .bench-fresh
	go run ./cmd/msqbench -experiment kernels -kernels-out .bench-fresh/BENCH_kernels.json > /dev/null
	go run ./cmd/msqbench -experiment obs -obs-out .bench-fresh/BENCH_obs.json > /dev/null
	go run ./cmd/msqbench -experiment distobs -distobs-out .bench-fresh/BENCH_distobs.json > /dev/null
	go run ./cmd/msqbench -experiment load -load-out .bench-fresh/BENCH_load.json > /dev/null
	go run ./cmd/msqbench -experiment storage -storage-out .bench-fresh/BENCH_storage.json > /dev/null
	go run ./cmd/msqbench -experiment block -block-out .bench-fresh/BENCH_block.json > /dev/null
	go run ./cmd/msqbench -experiment engines -engines-out .bench-fresh/BENCH_engines.json > /dev/null
	go run ./cmd/msqbench -experiment advisor -advisor-out .bench-fresh/BENCH_advisor.json > /dev/null
	go run ./cmd/benchcompare -tolerance 0.10 -speedup-tolerance 0.50 \
		BENCH_kernels.json .bench-fresh/BENCH_kernels.json \
		BENCH_obs.json .bench-fresh/BENCH_obs.json \
		BENCH_distobs.json .bench-fresh/BENCH_distobs.json \
		BENCH_load.json .bench-fresh/BENCH_load.json \
		BENCH_storage.json .bench-fresh/BENCH_storage.json \
		BENCH_block.json .bench-fresh/BENCH_block.json \
		BENCH_engines.json .bench-fresh/BENCH_engines.json \
		BENCH_advisor.json .bench-fresh/BENCH_advisor.json
