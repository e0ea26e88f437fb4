# Local mirror of .github/workflows/ci.yml — `make ci` runs the exact gates
# CI enforces, in the same order.

GO ?= go

.PHONY: build test race vet lint fmt-check generate-check alloc-budget fuzz-smoke bench-smoke bench-check fuzz-campaign integration cover ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...
	$(GO) vet -copylocks -loopclosure ./...

# Project-specific static analysis (cmd/difftestlint): pool release
# discipline, use-after-release, Kind-switch exhaustiveness, atomic-word
# access discipline, deadline arm/clear pairing, and frame-kind dispatch
# exhaustiveness. difftestlint runs only as a go vet tool, over
# every package including its _test.go files; a stale or malformed
# //lint:ignore fails the run like any other finding.
lint:
	$(GO) build -o bin/difftestlint ./cmd/difftestlint
	$(GO) vet -vettool=$(CURDIR)/bin/difftestlint ./...

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "files need gofmt:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi

# The wire codec is generated (internal/event/gen); a hand-edited or stale
# codec_gen.go must fail CI, not silently ship a drifted layout.
generate-check:
	$(GO) generate ./...
	@git diff --exit-code -- internal/event/codec_gen.go || \
		{ echo "codec_gen.go is stale: commit the output of 'go generate ./...'" >&2; exit 1; }

# Allocation budgets: every TestAllocBudget* in the module, each pinning a
# hot path's allocs/op (or allocs/cycle) at a constant stated in its test.
# Together with BENCHMARK.json's end-to-end bounds these are the performance
# gates; every Benchmark* function still runs once under bench-smoke.
alloc-budget:
	$(GO) test -run='TestAllocBudget' -count=1 -v ./...

fuzz-smoke:
	$(GO) test -fuzz=FuzzCodecRoundTrip -fuzztime=10s -run='^$$' ./internal/event
	$(GO) test -fuzz=FuzzFrameRoundTrip -fuzztime=10s -run='^$$' ./internal/transport
	$(GO) test -fuzz=FuzzResumeFrame -fuzztime=10s -run='^$$' ./internal/transport
	$(GO) test -fuzz=FuzzFaultedFrameStream -fuzztime=10s -run='^$$' ./internal/transport
	$(GO) test -fuzz=FuzzShmRingFrame -fuzztime=10s -run='^$$' ./internal/transport/shmring

bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# The repository benchmark (BENCHMARK.json, benchmark/) is a module of its
# own, outside the root ./..., so nothing above builds or runs it. Its tests
# plus one quick pass of every workload run each workload's own checks: op-0
# counters equal to sequential cosim.Run, bughunt mismatch and
# Replay.Detailed equal to the sequential oracle, pool balance, router
# sessions reaped, no leaked goroutine. run.sh fails on any "correct":false.
bench-check:
	$(GO) -C benchmark test .
	bash benchmark/run.sh -quick

# Coverage-guided fuzzer smoke, through the real CLI: a clean cold-corpus
# campaign whose checkpoint round-trips through min and repro, then a
# rediscovery drill that must find the injected bug within the budget (the
# campaign and the finding replay both exit 2 — the bug-hunting success exit).
fuzz-campaign:
	$(GO) build -o bin/difftest-fuzz ./cmd/difftest-fuzz
	rm -rf bin/fuzz-campaign && mkdir -p bin/fuzz-campaign
	./bin/difftest-fuzz campaign -workload linux -runs 48 -seed 1 -corpus bin/fuzz-campaign/corpus.json
	./bin/difftest-fuzz min -corpus bin/fuzz-campaign/corpus.json -o bin/fuzz-campaign/corpus.min.json
	./bin/difftest-fuzz repro -corpus bin/fuzz-campaign/corpus.min.json -entry 0
	./bin/difftest-fuzz campaign -workload kvm -bug mtval-wrong-guest-fault -threshold 2 \
		-runs 64 -stop-on-mismatch -seed 1 -corpus bin/fuzz-campaign/bug.json; test $$? -eq 2
	./bin/difftest-fuzz repro -bug mtval-wrong-guest-fault -threshold 2 \
		-corpus bin/fuzz-campaign/bug.json -finding 0; test $$? -eq 2

# Networked loopback gate: a real difftestd-equivalent server on a Unix
# socket, concurrent sessions (one injected-bug mismatching, one clean, plus
# a 5-session fan-in), token-window stalls, cancellation — all under -race,
# with the buffer pool balanced across both ends of the wire. The fault
# matrix crosses every faultnet fault with clean and bugged workloads and
# gates on verdict equivalence with the in-process checker; TestDegraded
# pins graceful degradation when the retry budget runs out. The fleet chaos
# gate routes sessions through the multi-shard router, kills a shard
# mid-run, and requires migrated sessions to reach byte-identical verdicts.
# Every session resumes, so the transport resume, redial, park and idle
# tests run here three times over under -race. The two shutdown leak gates
# serve completed, parked and stats-poll connections through difftestd's
# Server and the fleet router, shut each down, and fail on any goroutine or
# file descriptor left behind. The verdict-equivalence table runs its -race
# subset here: every link (executed, unix, shm, routed, dual-core executed)
# on the clean case and two library bugs, each against the sequential
# oracle.
integration:
	$(GO) test -race -count=1 -run='TestLoopback|TestRemoteCancellation|TestFaultMatrix|TestDegraded|BugEquivalence|TestExecutedDualCoreFanout' -v ./internal/cosim
	$(GO) test -race -count=3 -run='TestServerShutdownLeavesNoLeaks|TestResume|TestRedial|TestParkedSession|TestDialTimeoutBoundsOnlyTheHandshake|TestIdleReap|TestServerReapsIdle' -v ./internal/transport
	$(GO) test -race -count=1 -run='TestFleetChaosMigration|TestFleetLongTailMigration|TestFleetAllShardsDeadDegrades|TestRouterShutdownLeavesNoLeaks' -v ./internal/fleet
	$(GO) test -race -count=1 -run='TestFuzzRediscoversBugLibrary|TestFuzzBeatsRandomControl|TestCampaignDeterministicAcrossWorkers|TestExitSequenceSurvivesTimerInterrupt' -v ./internal/fuzz

# Per-package statement coverage with a floor on the packages that carry the
# fault-injection and resume machinery: a change that quietly drops their
# tests fails here, not in review. Floors live in scripts/coverfloor.sh;
# baselines are recorded in DESIGN.md.
cover:
	./scripts/coverfloor.sh

ci: build test race vet lint fmt-check generate-check alloc-budget fuzz-smoke bench-smoke bench-check fuzz-campaign cover integration
