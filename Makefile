# Development targets. `make check` is the CI gate documented in README.md.

GOFILES := $(shell find . -name '*.go' -not -path './.git/*')

.PHONY: check fmt vet staticcheck test race race-stm race-core-finality race-core-quiesce race-core-equiv race-core-recover alloc-guards bench-pairs bench-profile build trace-e2e doccheck campaign-smoke

check: fmt vet staticcheck doccheck alloc-guards race

build:
	go build ./...

fmt:
	@out="$$(gofmt -l $(GOFILES))"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	go vet ./...

# staticcheck is optional locally (the dev container may not ship it) but
# required in CI, which installs it before make check.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

test:
	go test ./...

race:
	go test -race ./...

# race-stm is CI's fast lane for the STM and the packages layered directly
# on it: twenty race-detected runs each with one, two and eight Ps.
race-stm:
	for p in 1 2 8; do \
		GOMAXPROCS=$$p go test -race -count=20 ./internal/stm ./internal/state ./internal/sketch || exit 1; \
	done

# race-core-finality is the same gate for the engine's finality rule
# (DESIGN.md §6.1): the three scripted tests of the rule, the stateless
# pipeline that must see no speculative output, and the 4-worker Classifier
# behind a direct subscriber (a rule that lets a non-head state reader send
# final fails it with duplicate counts).
race-core-finality:
	for p in 1 2 8; do \
		GOMAXPROCS=$$p go test -race -count=20 -run 'TestStatelessFinalBehindOpenLogger|TestStateReaderBehindHeadIsSpeculative|TestHeadAfterBeginIsSpeculative|TestPipelineBasic|TestStatefulParallelismCorrectness' ./internal/core || exit 1; \
	done

# race-core-quiesce is the same gate for the engine's in-flight ledger
# (DESIGN.md §9.9): Drain and Quiesced wait out work held at each hand-off,
# ACKs wait for a stable checkpoint mark, and random pipelines drain to a
# ledger of zero. It also runs the per-node counting ledger, which the
# dispatcher and the workers write at the same time, and
# its waste columns and witness ring, which eight workers of a contended
# Classifier write at once, across a crash and recovery too. The
# speculation throttle's groups (TestThrottle*, TestFlowOverload*) run
# here by prefix: the dispatcher owns every node's throttle and holds
# capped tasks back while the workers execute, and the pressure snapshot
# reads the throttle's position from other goroutines.
race-core-quiesce:
	for p in 1 2 8; do \
		GOMAXPROCS=$$p go test -race -count=20 -run 'TestDrainWaitsForEveryHandOff|TestDupOfUncheckpointedCommitNotAcked|TestCheckpointBatchesAcks|TestRandomPipelines|TestLedgerCountsWithTelemetryOff|TestReexecutionRevokesReachTheWasteLedger|TestProfilerAttributesConflicts|TestWasteSurvivesRecovery|TestThrottle|TestFlowOverload' ./internal/core || exit 1; \
	done

# alloc-guards runs the AllocsPerRun tests of the hot-path packages — the
# per-hop allocation budget of docs/PERFORMANCE.md ("Layer budget"), with
# the untraced tracer, the HDR record and the sketch estimate — three
# times each at one and two Ps, without the race detector (which allocates
# on its own). An allocation creeping back into a hop fails here by name,
# in seconds, instead of as a drift in a benchmark.
alloc-guards:
	for p in 1 2; do \
		GOMAXPROCS=$$p go test -count=3 -run 'Alloc' ./internal/core ./internal/stm ./internal/wal ./internal/storage ./internal/operator ./internal/event ./internal/transport ./internal/metrics ./internal/sketch || exit 1; \
	done

# bench-pairs is how every before/after row of docs/PERFORMANCE.md is
# produced: ./bench of PARENT and of the working tree built once each, one
# WORKLOAD of BENCHMARK.json run once per seed on either side, sides
# alternating, then median, quartiles and pairs won for each gated metric
# and for cpu_us_per_event and final_p99_us (about four minutes for the
# default ten seeds, 11..20). WORKLOAD=all does that for every workload in
# turn, one table each — the "no other metric moved" evidence in one
# command, about twenty minutes. It fails (exit 3, after the last table)
# when a gated metric's median is worse than the parent's by more than its
# bound in BENCHMARK.json, and (exit 1) when a run was not correct.
PARENT ?= HEAD~1
WORKLOAD ?= pipe2-sat
bench-pairs:
	scripts/bench_pairs.sh $(PARENT) $(WORKLOAD) $(SEEDS)

# bench-profile is where the "what one hop allocates", "where the CPU goes"
# and "where the locks wait" tables of docs/PERFORMANCE.md come from: one run
# of WORKLOAD under the allocation (KIND=alloc), CPU (KIND=cpu), mutex
# (KIND=mutex) or block (KIND=block) profiler, added to a temporary copy of
# the tree so that nothing under bench/ changes, and `go tool pprof -top`
# with its shares already multiplied by the run's allocs_per_event or
# cpu_us_per_event, or its delays divided by the finalized events. About
# half a minute.
SEED ?= 12
KIND ?= alloc
bench-profile:
	scripts/bench_profile.sh $(WORKLOAD) $(SEED) $(KIND)

# race-core-equiv is the internal/core slice of the same gate, for the one
# path every run length takes and for who owns what on it: admission,
# commit and retirement judged across run lengths, credited edges and a
# crash; what a run's block, a slab and a queued frame own; recovery's one
# read path; control frames that overtake the events they name; and the
# hand-back — a task a worker has changes only once its run is back, and no
# output of a stale attempt leaves, while one still queued just takes the new
# content — twenty race-detected runs each with one, two and eight Ps. It is
# a CI job.
race-core-equiv:
	for p in 1 2 8; do \
		GOMAXPROCS=$$p go test -race -count=20 -run 'TestBatchSizeEquivalence|TestBatchCommitGrouping|TestAttemptScratchReuseSafety|TestReexecutionBuysItsOwnTx|TestLongRunSplitsTaskBlocks|TestPayloadBytesAreHandedOutOnce|TestReexecutionLeavesSentVersionAlone|TestQueuedFinalizeRunIsOwned|TestCreditedFramesFitTheWindow|TestRecoverNeedsLogScanner|TestRecoveryScanOrderTwoDisks|TestRecoveryReadsWhatTheDiskHolds|TestDupOfUncheckpointedCommitNotAcked|TestQueuedFramesAdmitAsOneRun|TestRestoredOutputsAreReleased|TestEarlyRevokeDropsItsIncarnation|TestFinalizeOfReemissionAfterCancel|TestReemissionBehindOpenHead|TestStaleSendNeverFollowsNextAttempt|TestCheckpointBatchesAcks|TestWorkerRunAppendsOnceFramesOnce|TestWorkerRunPublishesBeforeReexecution|TestHeadWaitsOutOpenDependency|TestReexecLeavesExecutingTaskAlone|TestArrivalsWaitForTheHandBack|TestReplacementOfQueuedTask' ./internal/core || exit 1; \
	done

# race-core-recover is the same gate for precise recovery (paper §2.2,
# DESIGN.md §9.8): a crash takes nothing more off its queues, the replay plan
# replays logged decisions in logged order, replay and duplicate re-ACKs
# leave in frames, oldest first, a checkpoint's covered events are not
# replayed, a source's edge stays FIFO across a recovery, and the chaos
# tests crash a node again and again, under backlog and across seeds; every
# path that may repeat a final puts a REDELIVER ahead of it, and a node
# indexes its commits only from then on (DESIGN.md §9.4) — twenty
# race-detected runs each with one, two and eight Ps.
race-core-recover:
	for p in 1 2 8; do \
		GOMAXPROCS=$$p go test -race -count=20 -run 'TestCrashRecoverPreciseOutputs|TestRecoveryReplaysLoggedDecisions|TestReplayRequestResendsUnacked|TestReplayResendsOldestFirst|TestRecoveryFromCheckpointSkipsAckedEvents|TestSourceEdgeStaysFIFOAcrossRecovery|TestChaosRepeatedCrashes|TestChaosCrashDuringBacklog|TestChaosSeedSweep|TestCrashTakesNothingMoreOffItsQueues|TestReplayPlanFromRecords|TestDuplicateReAcksLeaveAsOneFrame|TestRedeliverPrecedesRepeats|TestUnarmedNodeKeepsNoIndex|TestChangedFinalFollowsRedeliver|TestDuplicateFinalEventDropped' ./internal/core || exit 1; \
	done

# trace-e2e runs a traced two-worker cluster as real processes and pipes
# the merged per-process trace through tracetool -validate
# (docs/OBSERVABILITY.md). Artifacts land in trace-e2e-out/.
trace-e2e:
	scripts/trace_e2e.sh trace-e2e-out

# doccheck fails on dead intra-repo markdown links, on cmd/ flags that no
# documentation mentions (docs/PERFORMANCE.md documents the policy), on
# exported identifiers under internal/ that no non-test file uses and on a
# time.Sleep in a non-test file of internal/core (DESIGN.md §9.10).
doccheck:
	go run ./cmd/doccheck

# campaign-smoke runs the fast fault-recovery campaign (docs/CAMPAIGNS.md):
# the paper workload under sigkill / slow-bridge / slow-disk faults with
# speculation on and off (8 cells including the auto-added baselines),
# each a real multi-process cluster. The bench-schema rows are then gated
# through benchjson so a vanished recovery_ms/completeness_pct column —
# or a vanished detect_ms/replay_ms recovery-anatomy column folded from
# the cell's crash trails — (or a regression vs CAMPAIGNPREV) fails the
# run, and `tracetool recovery` renders each sigkill cell's anatomy from
# its trails. Artifacts land in campaign-out/ plus CAMPAIGN_smoke.json at
# the repo root.
campaign-smoke:
	go run ./cmd/campaign -spec campaigns/smoke.json -out campaign-out
	go run ./cmd/benchjson -require recovery_ms,completeness_pct,detect_ms,replay_ms \
		$(if $(CAMPAIGNPREV),-prev $(CAMPAIGNPREV)) \
		-out CAMPAIGN_smoke.json < campaign-out/bench.json
	for cell in campaign-out/cells/*_sigkill_*; do \
		go run ./cmd/tracetool recovery $$cell/trace/*.jsonl || exit 1; \
	done
