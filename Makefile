# The repository's tier-1 gates (mirrors .github/workflows/ci.yml) plus
# the recorded benchmark step that tracks the performance trajectory.

PR := 10

# The key hot-path benchmarks recorded per PR: the snapshot-cadence
# evidence, streaming vs batch, the daemon ingest path, the isolated
# cold 16-tag detection pass (BlockedDetect: the name predates the
# removal of the interleaved fill; it now times LocalizeTagIncremental
# per tag), the segment-DTW kernel (whole alignment and isolated column
# fill), the WAL append/recovery paths, multi-session boot recovery
# (RecoverAll: recorded, not gated), checkpointed-recovery flatness
# and group-commit throughput, the
# endless-stream lifecycle flatness, and the serve layer at a tight
# fixed publish cadence (AdaptiveCadence/cadence=fixed: the name
# predates the removal of the change-driven cadence it was compared
# with).
BENCH_PATTERN := BenchmarkSnapshotCadence|BenchmarkStreamingVsBatch|BenchmarkDaemonIngest|BenchmarkIngestBody|BenchmarkBlockedDetect|BenchmarkShardedAisle|BenchmarkSegmentedAlign|BenchmarkSegmentFill|BenchmarkWALAppend|BenchmarkRecovery|BenchmarkRecoverAll|BenchmarkCheckpointedRecovery|BenchmarkWALGroupCommit|BenchmarkEndlessStream|BenchmarkAdaptiveCadence

# The regression gate: fail the bench step if any of these benchmarks'
# reads/s drops more than 15% against the committed pre-PR baseline.
# SnapshotCadence/snapshots=32 and BlockedDetect cover the detection and
# incremental-stitch work (BlockedDetect is absent from the committed
# baseline, so the gate skips it until a baseline records it).
# BlockedDetect keeps its name and its 16 tags now that detection runs
# one tag at a time. AdaptiveCadence gates its one remaining
# sub-benchmark, cadence=fixed, against that row of the baseline; the
# baseline's cadence=adaptive row has no current counterpart and is
# skipped.
GATE := BenchmarkDaemonIngest,BenchmarkSnapshotCadence/snapshots=32,BenchmarkBlockedDetect,BenchmarkRecovery,BenchmarkWALAppend,BenchmarkEndlessStream,BenchmarkAdaptiveCadence

.PHONY: test build bench fmt vet

build:
	go build ./...

test: build
	go vet ./...
	go test ./...

fmt:
	gofmt -l .

vet:
	go vet ./...

# bench runs the key benchmarks once with -benchmem, archives the raw
# benchstat-compatible text as BENCH_$(PR).txt, and merges it with the
# committed pre-change baseline (bench/baseline_$(PR).txt) into
# BENCH_$(PR).json — the machine-readable before/after record for this
# PR. The same invocation gates the ingest/detection/recovery hot paths:
# a >15% reads/s regression vs the baseline fails the target. A second
# short run captures a CPU profile of the daemon ingest hot path as
# BENCH_$(PR).cpu.pprof (with the repro.test binary needed to symbolize
# it), so every recorded number ships with the profile that explains it.
# -benchtime is pinned so iteration counts don't swing fsync-bound
# benchmarks run to run. CI uploads all of it as artifacts.
bench:
	go test -run xxx -bench '$(BENCH_PATTERN)' -benchmem -benchtime 2s -count 1 . | tee BENCH_$(PR).txt
	go run ./cmd/bench2json -pr $(PR) -baseline bench/baseline_$(PR).txt -current BENCH_$(PR).txt \
		-gate '$(GATE)' -max-regression 0.15 \
		-note "baseline = pre-PR-$(PR) tree (per-tag serial detection, full re-stitch and re-merge per snapshot, one engine call per queued batch); current = per-tag detection (one DP fill per tag, the 4-lane interleave removed) over shared reference panels + AVX2 cost pass, incremental order stitching, coalesced queue drain" \
		> BENCH_$(PR).json
	go test -run xxx -bench 'BenchmarkDaemonIngest$$' -benchtime 2s -count 1 \
		-cpuprofile BENCH_$(PR).cpu.pprof -o repro.test .
