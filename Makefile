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
# run, results must not depend on the worker count, the range-indexed
# streaming merger must decide and report exactly as a linear-scan
# reference merger on random shard sets, outcomes the report reduction
# cannot fold (a benchmark outside the pool, a chosen index outside the
# candidates, short user-cycle lists) are refused with ErrShardOutcome, and
# the distributed coordinator — stragglers re-dispatched, duplicates
# discarded — must produce the same bytes end to end over HTTP.
shardcheck:
	$(call gate,./internal/experiments,TestShardMergeEquivalence|TestWorkersInvariance|TestShardMergerMatchesLinearScan|TestMalformedOutcomesRejected)
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
# schedules, directed copy-on-write mutation, the codec, and cmd/bench's sig
# layer schedule at the paper geometry over its whole (P, N) grid; one full
# two-phase campaign reproduces its recorded mapping and per-candidate user
# cycles (TestCampaignGolden); the fused popcount kernel matches its
# two-pass oracle (seed corpus of the differential fuzz target); the monitor
# quantum and the per-switch capture stay allocation-free; every graph
# policy reproduces its recorded decisions on a seeded snapshot corpus, on
# the allocating and the scratch path alike (TestPolicyDecisionsGolden).
sigcheck:
	$(call gate,./internal/bloom,TestLazy|TestLazyCaptureParityPaperGeometry|TestSignatureCodecLazyMaterialization|TestSignatureClone|TestSignatureRelease|TestCaptureSteadyStateAllocs)
	$(call gate,./internal/bitvec,TestXorAndCountMatchesNaive|FuzzXorAndCount)
	$(call gate,./internal/alloc,TestPolicyDecisionsGolden)
	$(call gate,./internal/monitor,TestMonitorSteadyStateAllocs|TestObserveScratchMatchesAllocate)
	$(call gate,./internal/experiments,TestCampaignGolden)

# The coordinator-as-a-service contract, uncached: journal recovery (a tail
# torn at EVERY byte offset replays cleanly; mid-file damage is a typed
# refusal, never a panic or a double-count), restart-resume (kill a daemon
# mid-campaign, restart from the journal, finish to a byte-identical report
# with no accepted shard re-leased), bearer-token auth on both planes, TLS
# trust configuration, the multi-campaign REST API with cancellation
# persisting across restarts, the worker's failure budget resetting on any
# successful exchange, the 50-worker load smoke reconciling client
# counts, server counters, and journal records three ways, the counted
# lease table agreeing step for step with a linear-scan reference table,
# /metrics shard counts equal to a scan, oversized request bodies refused
# with 413 and no state change, and a shard with a malformed outcome
# refused with 422 before it reaches the journal.
servicecheck:
	$(call gate,./internal/coordctl,TestJournal|TestServiceRestartResume|TestCoordinatorAuth|TestCoordinatorTLS|TestCampaignAPI|TestCancelPersistsAcrossRestart|TestWorkerFailureBudgetResetsOnContact|TestCoordinatorLoadSmoke|TestLeaseTableMatchesScan|TestMetricsShardCountsMatchScan|TestOversizedBodiesRefused|TestMalformedShardRefusedBeforeJournal)

# The churn contract, uncached: incremental insert/remove/age on the sparse
# graph stays parity-exact with a fresh Builder build (fuzz seed corpus +
# shadow-map unit tests), Compact repacks in place without allocating or
# changing a row, repair breaks equal-gain moves toward the smaller group
# id, repaired partitions keep the ±1 balance envelope and exact cut
# bookkeeping over the live population, the monitor's per-thread
# state shrinks and regrows with the thread population (reused IDs inherit
# nothing), the Snapshotter releases a burst's backing after the
# population stays small, lazy aging matches eager decay, and a seeded
# arrival/departure campaign — both Poisson and trace modes, including the
# drift-triggered rebuild fallback — replays byte-identically. The
# experiments line's TestChurn alternative also matches TestChurnGolden
# (recorded campaign checksums), TestChurnTopPartnersMatchesSelection (the
# partner window against a selection-sort oracle over alloc.PairWeight),
# TestChurnScoreIndexMirrorsViews (the per-core score index equals the
# views after every campaign event) and TestChurnTopPartnersZeroAllocs.
churncheck:
	$(call gate,./internal/graph,TestInsertNode|TestRemoveNode|TestDriftCountersAndCompact|TestCompactInPlace|TestRepairTiesToSmallerGroup|TestInsertAndRepair|TestRemoveAndRepairRestoresEnvelope|TestChurnInterleaved|FuzzPartition)
	$(call gate,./internal/monitor,TestSmoothShrinkThenGrow|TestForget|TestAger)
	$(call gate,./internal/kernel,TestSnapshotterShrinksAfterBurst|TestSnapshotterSteadyStateAllocs)
	$(call gate,./internal/experiments,TestChurn)

# One iteration of every benchmark: catches bit-rot in the bench suite (and
# regenerates each figure once) without committing to real measurement time.
benchsmoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# The layer smokes below run one layer of cmd/bench at two samples per
# point, so no layer of the harness can bit-rot. Every point checks that its
# checksum repeats across samples; nothing is recorded (no -out).
#
# Allocator layer: full-decision (sparse build + partition) and incremental
# repair latency, P up to 4096.
allocbench:
	$(GO) run ./cmd/bench -layers alloc -reps 2

# Signature layer: per-switch capture and monitor-quantum latency over the
# (P, N) grid, with record and decision checksums; capture parity at this
# geometry is sigcheck's (TestLazyCaptureParityPaperGeometry).
sigbench:
	$(GO) run ./cmd/bench -layers sig -reps 2

# Trace layer: open-to-first-run latency and full replay of the 128 MiB
# fixture through all four replay paths (v1 compile, compiled read, mmap,
# framed streaming). All four must replay one identical stream, so this
# doubles as a replay-parity gate on a trace none of the unit tests
# generated.
tracebench:
	$(GO) run ./cmd/bench -layers trace -reps 2

# Coordinator layer: the 50-worker load harness as a bench, printing lease
# throughput and round-trip latency percentiles. Every run reconciles
# client accepts, server counters, and journal records before reporting, so
# this doubles as a correctness gate; the latency numbers themselves are
# recorded but never -check-gated (loopback HTTP + fsync jitter on shared
# runners would make any useful tolerance flake).
servicebench:
	$(GO) run ./cmd/bench -layers coord -reps 2

# Churn layer: one 200-quantum Poisson campaign per P with per-event timing
# (insert/remove/age percentiles and the rebuild crossover in the point's
# info). The campaign checksum is deterministic, so this doubles as an
# end-to-end churn gate at real scale (P=1024 single-event updates without
# a full rebuild).
churnbench:
	$(GO) run ./cmd/bench -layers churn -reps 2

# Perf regression gate: measure the Fig 10 sweep and the alloc, sig, trace
# and churn layers, then compare against the newest entry of the recorded
# ledger. Every checksum must match, the sweep's minimum and every point's
# p50 at or above its layer's floor may be at most 15% slower, and a layer
# or point that entry lacks fails the gate rather than being skipped. Wall
# time on shared runners is noisy — CI runs this as a soft
# (continue-on-error) job; treat a local failure on a quiet box as real.
benchgate:
	$(GO) run ./cmd/bench -layers sweep,alloc,sig,trace,churn -reps 5 -check results/BENCH_2026-08-06.json -tolerance 0.15

# Real measurement: every layer, with the sweep repeated at GOMAXPROCS=1
# (-mp1), appended to results/BENCH_2026-08-06.json, the ledger benchgate
# reads; see README "Performance". An entry recorded this way is a complete
# baseline for benchgate. Without -out, cmd/bench only prints the entry.
bench:
	$(GO) run ./cmd/bench -layers sweep,alloc,sig,trace,coord,churn -reps 5 -mp1 -label $$(git rev-parse --short HEAD) -out results/BENCH_2026-08-06.json

clean:
	$(GO) clean ./...
