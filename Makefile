# Developer entry points. `make ci` is the full gate a PR must pass (and
# what .github/workflows/ci.yml runs on every push); the individual targets
# exist so the expensive pieces can run alone.

GO ?= go

.PHONY: ci lint vet build test race shardcheck tracecheck sigcheck servicecheck churncheck benchsmoke allocbench sigbench tracebench servicebench churnbench benchgate bench clean

ci: lint build race shardcheck tracecheck sigcheck servicecheck churncheck benchsmoke allocbench sigbench tracebench servicebench churnbench

# Style gate: gofmt must be clean, vet must pass, and staticcheck runs when
# the host has it (CI and dev boxes without it still get the first two).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping"; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race mode exercises the sweep-wide work-stealing pool (per-worker deques,
# steal path, sleep/wake protocol), the per-worker arena reuse, and the
# coordinator's lease table under concurrent worker submissions — the
# concurrency in the tree. TestSchedulerStress is the dedicated hammer.
race:
	$(GO) test -race ./...

# Each contract gate below runs its tests as $(call gate,PKG,PATTERN):
# uncached, and only after `go test -list` confirms that every |-separated
# alternative of PATTERN matches at least one test, fuzz target or example in
# PKG. `go test -run` passes when nothing matches, so without the check a
# renamed or deleted test would drop out of its gate silently.
gate = @names=$$($(GO) test -list . $(1) | grep -E '^(Test|Fuzz|Example)') || { \
		echo "gate: $(1) lists no tests"; exit 1; }; \
	for alt in $$(echo '$(2)' | tr '|' ' '); do \
		echo "$$names" | grep -Eq -- "$$alt" || { \
			echo "gate: '$$alt' matches no test in $(1)"; exit 1; }; \
	done; \
	echo "$(GO) test -count=1 -run '$(2)' $(1)"; \
	$(GO) test -count=1 -run '$(2)' $(1)

# The sharding contract, run explicitly (and uncached) as its own CI gate:
# a 3-way sharded sweep must merge byte-identically to the single-process
# run, results must not depend on the worker count, and the distributed
# coordinator — stragglers re-dispatched, duplicates discarded — must
# produce the same bytes end to end over HTTP.
shardcheck:
	$(call gate,./internal/experiments,TestShardMergeEquivalence|TestWorkersInvariance)
	$(call gate,./internal/coordctl,TestCoordinatorEndToEnd)

# The trace-replay contract, uncached: the codec round-trips (v1 and both v2
# containers, including the fuzz corpora), every replay path — bulk loop,
# streaming, compiled, mmap zero-decode, frame-streaming — is bit-identical
# to v1 stream replay (the four-way parity gate), NextRun consumes exactly
# what as many Next calls would for every synthetic profile and for the
# Next-only adapter (whose engine timing matches native NextRun replay),
# decode rejects every corruption class without hanging or over-reading,
# downsampled traces validate against full-rate footprints, trace-driven
# pools run through the sweep/shard plumbing with content-bound pool hashes,
# and the content-addressed corpus round-trips over HTTP (fetch, verify,
# resume, tamper rejection) byte-identically to a local trace-dir sweep.
tracecheck:
	$(call gate,./internal/trace,TestReader|TestCompile|TestCorrupt|TestTruncated|TestRunReplay|TestStreamReplay|TestBatchReplay|TestReplayParity|TestCompiledRoundTrip|TestCompiledEmptyAndTailOnly|TestCompiledDecodeErrors|TestReadCompiledLyingHeader|TestWriteV1RoundTrip|TestMmapOpenCompiled|TestFrameStreamReplay|TestDownsample|FuzzTraceRoundTrip|FuzzCompiledDecode)
	$(call gate,./internal/workload,TestNextRunMatchesNext|TestAsRunSource)
	$(call gate,./internal/experiments,TestTrace|TestSelectProfiles|TestArenaVirt|TestListTraceDir|TestCorpus)
	$(call gate,./internal/coordctl,TestCorpusCampaignEndToEnd|TestFetchTrace)

# The lazy-signature contract, uncached: lazy capture is bit-identical to
# the eager test oracle (bloom's ContextSwitchEagerInto) under random
# schedules, directed copy-on-write mutation, the codec, and cmd/bench -sig's
# schedule at the paper geometry over its whole (P, N) grid; one full
# two-phase campaign reproduces its recorded mapping and per-candidate user
# cycles (TestCampaignGolden); the fused popcount kernel matches its
# two-pass oracle (seed corpus of the differential fuzz target); the monitor
# quantum and the per-switch capture stay allocation-free; the scratch
# bisection matches the allocating one.
sigcheck:
	$(call gate,./internal/bloom,TestLazy|TestLazyCaptureParityPaperGeometry|TestSignatureCodecLazyMaterialization|TestSignatureClone|TestSignatureRelease|TestCaptureSteadyStateAllocs)
	$(call gate,./internal/bitvec,TestXorAndCountMatchesNaive|FuzzXorAndCount)
	$(call gate,./internal/graph,TestBisectIntoMatchesBisect)
	$(call gate,./internal/monitor,TestMonitorSteadyStateAllocs|TestObserveScratchMatchesAllocate)
	$(call gate,./internal/experiments,TestCampaignGolden)

# The coordinator-as-a-service contract, uncached: journal recovery (a tail
# torn at EVERY byte offset replays cleanly; mid-file damage is a typed
# refusal, never a panic or a double-count), restart-resume (kill a daemon
# mid-campaign, restart from the journal, finish to a byte-identical report
# with no accepted shard re-leased), bearer-token auth on both planes, TLS
# trust configuration, the multi-campaign REST API with cancellation
# persisting across restarts, the worker's failure budget resetting on any
# successful exchange, and the 50-worker load smoke reconciling client
# counts, server counters, and journal records three ways.
servicecheck:
	$(call gate,./internal/coordctl,TestJournal|TestServiceRestartResume|TestCoordinatorAuth|TestCoordinatorTLS|TestCampaignAPI|TestCancelPersistsAcrossRestart|TestWorkerFailureBudgetResetsOnContact|TestCoordinatorLoadSmoke)

# The churn contract, uncached: incremental insert/remove/age on the sparse
# graph stays parity-exact with a fresh Builder build (fuzz seed corpus +
# shadow-map unit tests), repaired partitions keep the ±1 balance envelope
# and exact cut bookkeeping over the live population, the monitor's
# per-thread state shrinks and regrows with the thread population (reused
# IDs inherit nothing), the Snapshotter releases a burst's backing after the
# population stays small, lazy aging matches eager decay, and a seeded
# arrival/departure campaign — both Poisson and trace modes, including the
# drift-triggered rebuild fallback — replays byte-identically.
churncheck:
	$(call gate,./internal/graph,TestInsertNode|TestRemoveNode|TestDriftCountersAndCompact|TestInsertAndRepair|TestRemoveAndRepairRestoresEnvelope|TestChurnInterleaved|FuzzPartition)
	$(call gate,./internal/monitor,TestSmoothShrinkThenGrow|TestForget|TestAger)
	$(call gate,./internal/kernel,TestSnapshotterShrinksAfterBurst|TestSnapshotterSteadyStateAllocs)
	$(call gate,./internal/experiments,TestChurn)

# One iteration of every benchmark: catches bit-rot in the bench suite (and
# regenerates each figure once) without committing to real measurement time.
benchsmoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# Allocator-scaling smoke: one quick pass of the dense/sparse/repair latency
# sweep (P up to 4096) so the allocator benchmark harness can't bit-rot.
# Dense is capped at P=64 here; `make benchgate` and the recorded artifacts
# carry the real measurements.
allocbench:
	$(GO) run ./cmd/bench -alloconly -allocreps 3 -allocdense 64

# Signature-path smoke: one quick pass of the per-switch capture and
# monitor-quantum sweep, so the harness can't bit-rot. Each point checks that
# its record and decision checksums repeat across samples; capture parity at
# this geometry is sigcheck's (TestLazyCaptureParityPaperGeometry).
sigbench:
	$(GO) run ./cmd/bench -sigonly -sigreps 3

# Trace I/O smoke: one quick pass of the open-latency/replay-throughput
# sweep on a small fixture — each run self-checks that all four replay paths
# (v1 compile, compiled read, mmap, framed streaming) produce one identical
# instruction stream, so this doubles as a replay-parity gate on a trace
# none of the unit tests generated. Real measurements use -tracemb ≥ 128.
tracebench:
	$(GO) run ./cmd/bench -traceonly -tracereps 3 -tracemb 8

# Coordinator service smoke: the 50-worker load harness as a bench, printing
# lease throughput and round-trip latency percentiles. Every run reconciles
# client accepts, server counters, and journal records before reporting, so
# this doubles as a correctness gate; the latency numbers themselves are
# recorded but never -check-gated (loopback HTTP + fsync jitter on shared
# runners would make any useful tolerance flake).
servicebench:
	$(GO) run ./cmd/bench -coordonly

# Churn smoke: one short Poisson campaign per P with per-event timing — the
# insert-vs-rebuild ratio and the crossover rate print on stderr, and the
# campaign checksum is deterministic, so this doubles as an end-to-end churn
# gate at real scale (P=1024 single-event updates without a full rebuild).
churnbench:
	$(GO) run ./cmd/bench -churnonly -churnquanta 100

# Perf regression gate: measure the Fig 10 sweep plus the allocator,
# signature, and trace I/O latency sweeps and fail if any is >15% slower
# than the newest recorded baseline entry (or if any determinism checksum
# diverges). Wall time on shared runners is noisy — CI runs this as a soft
# (continue-on-error) job; treat a local failure on a quiet box as real.
# Dense allocator points beyond P=256 are skipped here (minutes per
# invocation); unmatched baseline points are simply not compared. The trace
# fixture size must match the baseline entry's (points pair by format and
# record count).
benchgate:
	$(GO) run ./cmd/bench -reps 3 -alloc -allocreps 11 -allocdense 256 -sig -sigreps 5 -trace -tracereps 5 -tracemb 128 -churn -churnquanta 200 -check results/BENCH_2026-08-06.json -tolerance 0.15

# Real measurement: the recorded Figure 10 sweep harness. Appends to
# results/BENCH_<date>.json; see README "Performance".
bench:
	$(GO) run ./cmd/bench -label $$(git rev-parse --short HEAD)

clean:
	$(GO) clean ./...
