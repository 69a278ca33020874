# Development targets. `make check` is the CI gate documented in README.md.

GOFILES := $(shell find . -name '*.go' -not -path './.git/*')

.PHONY: check fmt vet staticcheck test race race-stm race-core-finality race-core-quiesce race-core-equiv alloc-guards bench-pairs bench-profile build trace-e2e doccheck campaign-smoke

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
# (DESIGN.md §6.1): the two scripted tests of the rule, the stateless
# pipeline that must see no speculative output, and the 4-worker Classifier
# behind a direct subscriber (a rule that lets a non-head state reader send
# final fails it with duplicate counts).
race-core-finality:
	for p in 1 2 8; do \
		GOMAXPROCS=$$p go test -race -count=20 -run 'TestStatelessFinalBehindOpenLogger|TestStateReaderBehindHeadIsSpeculative|TestPipelineBasic|TestStatefulParallelismCorrectness' ./internal/core || exit 1; \
	done

# race-core-quiesce is the same gate for the engine's in-flight ledger
# (DESIGN.md §9.9): Drain and Quiesced wait out work held at each hand-off,
# ACKs wait for a stable checkpoint mark, and random pipelines drain to a
# ledger of zero.
race-core-quiesce:
	for p in 1 2 8; do \
		GOMAXPROCS=$$p go test -race -count=20 -run 'TestDrainWaitsForEveryHandOff|TestDupOfUncheckpointedCommitNotAcked|TestCheckpointBatchesAcks|TestRandomPipelines' ./internal/core || exit 1; \
	done

# alloc-guards runs the AllocsPerRun tests of the hot-path packages — the
# per-hop allocation budget of docs/PERFORMANCE.md ("Layer budget") — three
# times each at one and two Ps, without the race detector (which allocates
# on its own). An allocation creeping back into a hop fails here by name,
# in seconds, instead of as a drift in a benchmark.
alloc-guards:
	for p in 1 2; do \
		GOMAXPROCS=$$p go test -count=3 -run 'Alloc' ./internal/core ./internal/stm ./internal/wal ./internal/storage ./internal/operator ./internal/event ./internal/transport || exit 1; \
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

# race-core-equiv is the internal/core slice of the same gate: the
# batch-size equivalence test (one admit / commit / retire path judged
# across run lengths, credit-gated edges and a crash), the commit-group
# accounting test, the credited-edge frame rule (a frame is what is
# queued, up to 64 and a quarter of the window), the attempt-scratch reuse-safety test, the two tests of
# what a run's block holds (a re-execution never runs in the first attempt's
# transaction; a long run's tasks are spread over blocks and nothing can
# tell), the three tests of what is cut from a slab (a payload, a sent
# version and a queued FINALIZE run keep their bytes whatever their maker
# does next), the tests of recovery's one read path (scanner required, scan
# order, what the disk holds, no early ACK for a duplicate of an
# uncheckpointed commit), the two tests of what a queued run and a
# restore hand on (one run and one log append a stretch of one input's
# frames; restored outputs re-sent until ACKed) and the two of control
# frames that overtake the events they name (a REVOKE drops its whole
# incarnation; a FINALIZE for a cancelled task waits for the re-emission,
# which is admitted even while the cancelled task waits behind the head),
# the one of a stale attempt's send (it never follows the next attempt's
# version onto the link) and the one of a commit group's checkpoint (one
# snapshot, one ACK run per input), twenty race-detected runs each with
# one, two and eight Ps. It is a CI job: three runs in a row were 60/60
# green, 4 to 5 minutes each on a 2-core box.
race-core-equiv:
	for p in 1 2 8; do \
		GOMAXPROCS=$$p go test -race -count=20 -run 'TestBatchSizeEquivalence|TestBatchCommitGrouping|TestAttemptScratchReuseSafety|TestReexecutionBuysItsOwnTx|TestLongRunSplitsTaskBlocks|TestPayloadBytesAreHandedOutOnce|TestReexecutionLeavesSentVersionAlone|TestQueuedFinalizeRunIsOwned|TestCreditedFramesFitTheWindow|TestRecoverNeedsLogScanner|TestRecoveryScanOrderTwoDisks|TestRecoveryReadsWhatTheDiskHolds|TestDupOfUncheckpointedCommitNotAcked|TestQueuedFramesAdmitAsOneRun|TestRestoredOutputsAreReleased|TestEarlyRevokeDropsItsIncarnation|TestFinalizeOfReemissionAfterCancel|TestReemissionBehindOpenHead|TestStaleSendNeverFollowsNextAttempt|TestCheckpointBatchesAcks' ./internal/core || exit 1; \
	done

# trace-e2e runs a traced two-worker cluster as real processes and pipes
# the merged per-process trace through tracetool -validate
# (docs/OBSERVABILITY.md). Artifacts land in trace-e2e-out/.
trace-e2e:
	scripts/trace_e2e.sh trace-e2e-out

# doccheck fails on dead intra-repo markdown links, on cmd/ flags that no
# documentation mentions (docs/PERFORMANCE.md documents the policy) and on
# exported identifiers under internal/ that no non-test file uses.
doccheck:
	go run ./cmd/doccheck

# campaign-smoke runs the fast fault-recovery campaign (docs/CAMPAIGNS.md):
# the paper workload under sigkill / slow-bridge / slow-disk faults with
# speculation on and off (8 cells including the auto-added baselines),
# each a real multi-process cluster. The bench-schema rows are then gated
# through benchjson so a vanished recovery_ms/completeness_pct column —
# or a vanished detect_ms/replay_ms recovery-anatomy column from the
# instrumented /debug/recovery timeline — (or a regression vs
# CAMPAIGNPREV) fails the run. Artifacts land in campaign-out/ plus
# CAMPAIGN_smoke.json at the repo root.
campaign-smoke:
	go run ./cmd/campaign -spec campaigns/smoke.json -out campaign-out
	go run ./cmd/benchjson -require recovery_ms,completeness_pct,detect_ms,replay_ms \
		$(if $(CAMPAIGNPREV),-prev $(CAMPAIGNPREV)) \
		-out CAMPAIGN_smoke.json < campaign-out/bench.json
