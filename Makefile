# Developer entry points. `make ci` is the full gate a PR must pass (and
# what .github/workflows/ci.yml runs on every push); the individual targets
# exist so the expensive pieces can run alone.

GO ?= go

.PHONY: ci lint vet build test race shardcheck tracecheck sigcheck servicecheck churncheck benchsmoke allocbench sigbench tracebench churnbench benchgate bench clean

ci: lint build race shardcheck tracecheck sigcheck servicecheck churncheck benchsmoke allocbench sigbench tracebench churnbench

# Style gate: gofmt must be clean, vet must pass, and staticcheck runs when
# the host has it (CI and dev boxes without it still get the first two).
# perfbench/ is its own module, so the root ./... skips it; vetting it here
# compiles it against the internals it imports, so a change that breaks the
# repository benchmark fails lint rather than the first benchmark run.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...
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
# candidates, short user-cycle lists) are refused with ErrShardOutcome, any
# bytes offered as a shard file are refused with an ErrShard* sentinel or
# merged into reports that do not panic (FuzzShardMerge's seed corpus: a
# mid-file corruption, a truncation, an outcome list past its range), and
# the distributed coordinator — stragglers re-dispatched, duplicates
# discarded — must produce the same bytes end to end over HTTP. Every
# alternative is a full anchored name.
shardcheck:
	$(call gate,./internal/experiments,^TestShardMergeEquivalence$$|^TestWorkersInvariance$$|^TestShardMergerMatchesLinearScan$$|^TestMalformedOutcomesRejected$$|^FuzzShardMerge$$)
	$(call gate,./internal/coordctl,^TestCoordinatorEndToEnd$$)

# The trace-replay contract, uncached: capture reproduces the recorded
# content fingerprints of the v1 captures it replaced, the v1 import
# (Compile) and both v2 containers round-trip (including the fuzz corpora),
# every replay path — compiled read, mmap zero-decode, framed read and frame
# streaming — simulates bit-identically to the live generator it was
# captured from (the four-way parity gate), NextRun consumes exactly what as
# many Next calls would for every synthetic profile and for the Next-only
# adapter (whose engine timing matches native NextRun replay), decode
# rejects every corruption class without hanging or over-reading (a framed
# header claiming far more than its file holds fails with ErrCorrupt having
# allocated under 1 MiB; a torn DEFLATE trailer fails both framed paths),
# downsampled traces validate against full-rate footprints, trace-driven
# pools run through the sweep/shard plumbing with content-bound pool hashes
# and refuse v1 captures by naming tracegen -compile, and the
# content-addressed corpus round-trips over HTTP (fetch, verify, resume,
# tamper rejection) byte-identically to a local trace-dir sweep. Every
# alternative is a full anchored name, so the gate fails when a listed test
# disappears.
tracecheck:
	$(call gate,./internal/trace,^TestReaderNextRun$$|^TestReaderStreaming$$|^TestCompile$$|^TestCorruptTailMarker$$|^TestTruncatedRecord$$|^TestTruncatedVarint$$|^TestCaptureGolden$$|^TestCaptureFromGenerator$$|^TestRunReplayMatchesReplay$$|^TestRunReplayRebase$$|^TestRunReplayExhaustionPads$$|^TestRunReplayRewind$$|^TestStreamReplayMatchesRunReplay$$|^TestStreamReplayBoundedMemory$$|^TestStreamReplayRewind$$|^TestStreamReplayBadMagic$$|^TestStreamReplayErrorSticky$$|^TestBatchReplayMatchesBatchSrc$$|^TestReplayParityFourWay$$|^TestCompiledRoundTrip$$|^TestCompiledEmptyAndTailOnly$$|^TestCompiledDecodeErrors$$|^TestReadCompiledLyingHeader$$|^TestWriteV1RoundTrip$$|^TestMmapOpenCompiled$$|^TestFrameStreamReplayMatchesCompiled$$|^TestFramedReadBoundedByBytes$$|^TestFramedTornTrailerRefused$$|^TestDownsample$$|^FuzzTraceRoundTrip$$|^FuzzCompiledDecode$$)
	$(call gate,./internal/workload,^TestNextRunMatchesNext$$|^TestAsRunSource$$)
	$(call gate,./internal/experiments,^TestTracePoolFromDir$$|^TestTraceMixMatchesSyntheticPlumbing$$|^TestTraceSweepShard$$|^TestTracePoolEmptyDir$$|^TestTracePoolMixedFormats$$|^TestTracePoolRefusesV1Capture$$|^TestSelectProfiles$$|^TestArenaVirtMatchesFresh$$|^TestListTraceDirSkipsJunk$$|^TestCorpus$$)
	$(call gate,./internal/coordctl,^TestCorpusCampaignEndToEnd$$|^TestFetchTraceResume$$|^TestFetchTraceConcurrentSharedCache$$|^TestFetchTraceRejectsTamperedContent$$)

# The lazy-signature contract, uncached: the signature unit matches an
# independent map-based model of the split counting Bloom filter (counters,
# every Core and Last Filter bit, and every record) under an LRU residency
# model for every hash, sample rate 1 and 4 and counter width 1 and 3; lazy
# capture is bit-identical to the eager test oracle (bloom's
# ContextSwitchEagerInto) under random schedules, directed copy-on-write
# mutation, and cmd/bench's sig layer schedule at the paper geometry over
# its whole (P, N) grid; one full two-phase campaign reproduces its recorded
# mapping and per-candidate user cycles (TestCampaignGolden); the fused
# popcount kernel matches its two-pass oracle (seed corpus of the
# differential fuzz target); the monitor quantum and the per-switch capture
# stay allocation-free; every graph policy reproduces its recorded
# decisions on a seeded snapshot corpus, on the allocating and the scratch
# path alike (TestPolicyDecisionsGolden); the
# row-scan interference-graph build equals a brute-force reference and the
# pairwise Builder build on seeded view sets and the fuzz seed corpus, on
# one to four workers alike, and a warm Scratch decision allocates nothing
# at 4 and 1024 threads; Table 1, the fairness, quad-core and both Fig 3
# pairwise studies reproduce their recorded user cycles, chosen mappings
# and float64 bits at one worker and at three (TestStudiesGolden). Every
# alternative is a full anchored name.
sigcheck:
	$(call gate,./internal/bloom,^TestLazyCaptureParityRandomSchedules$$|^TestLazyCaptureParityPaperGeometry$$|^TestLazyMaterializeSeesCaptureTimeFilters$$|^TestLazyMemoAcrossSwitches$$|^TestSignatureReleaseRecycles$$|^TestCaptureSteadyStateAllocs$$|^TestUnitMatchesReferenceModel$$)
	$(call gate,./internal/bitvec,^TestXorAndCountMatchesNaive$$|^FuzzXorAndCount$$)
	$(call gate,./internal/alloc,^TestPolicyDecisionsGolden$$|^TestColumnarBuildMatchesOracle$$|^TestColumnarBuildWorkerInvariance$$|^FuzzColumnarBuild$$|^TestScratchDecisionZeroAllocs$$)
	$(call gate,./internal/monitor,^TestMonitorSteadyStateAllocs$$|^TestObserveScratchMatchesAllocate$$)
	$(call gate,./internal/experiments,^TestCampaignGolden$$|^TestStudiesGolden$$)

# The coordinator-as-a-service contract, uncached: journal recovery (a tail
# torn at EVERY byte offset replays cleanly; mid-file damage is a typed
# refusal, never a panic or a double-count), restart-resume (kill a daemon
# mid-campaign, restart it over its journal, finish under the same campaign
# id to a byte-identical report with no accepted shard re-leased),
# bearer-token auth on both planes (either token alone guards both), TLS
# trust configuration, the multi-campaign REST API with cancellation
# persisting across restarts, the worker's failure budget resetting on any
# successful exchange, the 50-worker load smoke reconciling client
# counts, server counters, and journal records three ways, the counted
# lease table agreeing step for step with a linear-scan reference table,
# /metrics shard counts equal to a scan, oversized request bodies refused
# with 413 and no state change, a shard with a malformed outcome refused
# with 422 before it reaches the journal, every request naming its campaign
# (no single-campaign views or fallbacks), 16 drained campaigns serving
# their list, status, report and /metrics bytes as recorded (before and
# after a restart, with late and replayed duplicate shards), and a restarted
# daemon reporting every campaign's age from its journaled submission time.
# Every alternative is a full anchored name.
servicecheck:
	$(call gate,./internal/coordctl,^TestJournalTornTailAtEveryOffset$$|^TestJournalMidFileCorruption$$|^TestJournalDuplicateShardReplay$$|^TestJournalAppendAfterRecovery$$|^TestServiceRestartResume$$|^TestCoordinatorAuth$$|^TestAdminTokenOnlyGuardsWorkerPlane$$|^TestCoordinatorTLS$$|^TestCampaignAPI$$|^TestCancelPersistsAcrossRestart$$|^TestWorkerFailureBudgetResetsOnContact$$|^TestCoordinatorLoadSmoke$$|^TestLeaseTableMatchesScan$$|^TestMetricsShardCountsMatchScan$$|^TestOversizedBodiesRefused$$|^TestMalformedShardRefusedBeforeJournal$$|^TestRequestsNameTheirCampaign$$|^TestDrainedCampaignsMatchGolden$$|^TestRestartKeepsCampaignAge$$)

# The churn contract, uncached: incremental insert/remove/age on the sparse
# graph stays parity-exact with a fresh Builder build (fuzz seed corpus +
# shadow-map unit tests), Compact repacks in place without allocating or
# changing a row, edge storage moves O(log n) times over n arrivals
# (TestEdgeStorageGrowsGeometrically), repair breaks equal-gain moves toward
# the smaller group id, repaired partitions keep the ±1 balance envelope and
# exact cut bookkeeping over the live population, hierarchical 4-way
# MIN-CUT keeps its recorded regret against an exhaustive balanced k-way
# optimum on 200 seeded 8-node graphs (TestPartitionK4Regret), arrivals and
# departures through InsertAndRepair and RemoveAndRepair keep theirs
# against an exhaustive re-partition over the ⌊n/k⌋..⌈n/k⌉ envelope at
# k = 2 and 4 and never land below it (TestRepairRegret), the monitor's
# per-thread state shrinks and regrows with the thread population (reused
# IDs inherit nothing), the Snapshotter releases a burst's backing after the
# population stays small, lazy aging matches eager decay and a Reset Ager a
# fresh one, and a seeded arrival/departure campaign — both Poisson and
# trace modes, including the drift-triggered rebuild fallback — replays
# byte-identically. The experiments line also runs TestChurnGolden (recorded
# campaign checksums), TestChurnTopPartnersMatchesSelection (the partner
# window against a selection-sort oracle over alloc.PairWeight),
# TestChurnScoreIndexMirrorsViews (the per-core score index equals the views
# after every campaign event), TestChurnTopPartnersZeroAllocs, and the
# campaign scratch's pins: a rebuild into it after churn with dead slots
# equals a fresh alloc.SparseInterferenceGraph plus Sparse.NewPartition row
# for row, weight bit for weight bit and in its assignment
# (TestChurnRebuildMatchesFresh), a warm rebuild allocates nothing
# (TestChurnRebuildZeroAllocs), and neither do 100 steady quanta once the
# storage covers the population (TestChurnQuantumZeroAllocs). Every
# alternative is a full anchored name.
churncheck:
	$(call gate,./internal/graph,^TestInsertNodeMatchesFreshBuild$$|^TestRemoveNodeMatchesFreshBuild$$|^TestInsertNodeValidation$$|^TestDriftCountersAndCompact$$|^TestCompactInPlace$$|^TestRepairTiesToSmallerGroup$$|^TestInsertAndRepair$$|^TestRemoveAndRepairRestoresEnvelope$$|^TestChurnInterleaved$$|^FuzzPartition$$|^TestPartitionK4Regret$$|^TestEdgeStorageGrowsGeometrically$$|^TestRepairRegret$$)
	$(call gate,./internal/monitor,^TestSmoothShrinkThenGrow$$|^TestForget$$|^TestAgerRefreshBlendsAndDecays$$|^TestAgerLazyMatchesEager$$|^TestAgerChurn$$|^TestAgerSteadyStateAllocs$$|^TestAgerResetMatchesFresh$$)
	$(call gate,./internal/kernel,^TestSnapshotterShrinksAfterBurst$$|^TestSnapshotterSteadyStateAllocs$$)
	$(call gate,./internal/experiments,^TestChurnDeterministic$$|^TestChurnPoissonCampaign$$|^TestChurnTraceMode$$|^TestChurnRebuildFallback$$|^TestChurnObserverDoesNotChangeReport$$|^TestChurnGolden$$|^TestChurnTopPartnersMatchesSelection$$|^TestChurnScoreIndexMirrorsViews$$|^TestChurnTopPartnersZeroAllocs$$|^TestChurnRebuildMatchesFresh$$|^TestChurnRebuildZeroAllocs$$|^TestChurnQuantumZeroAllocs$$)

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
# fixture through all three replay paths of the compiled format (compiled
# read, mmap, framed streaming). All three must replay one identical stream,
# so this doubles as a replay-parity gate on a trace none of the unit tests
# generated.
tracebench:
	$(GO) run ./cmd/bench -layers trace -reps 2

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
	$(GO) run ./cmd/bench -layers sweep,alloc,sig,trace,churn -reps 5 -mp1 -label $$(git rev-parse --short HEAD) -out results/BENCH_2026-08-06.json

clean:
	$(GO) clean ./...
