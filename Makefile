GO ?= go
FUZZTIME ?= 20s

.PHONY: check fmt vet lint loc rounds test fuzz race chaos bench profile benchmark benchmark-compare benchmark-pairs smoke soak-controlplane

# The full pre-merge gauntlet: formatting, static checks, all tests,
# the race detector over the concurrency-bearing packages, and the
# observability scrape smoke test.
check: fmt vet lint test race smoke

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The second line keeps internal/crc's table-only path, which every other
# architecture builds, compiling (cross-compiling downloads nothing).
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/crc

# Every rule about Go source is a row of TestArchitecture
# (architecture_test.go, run by `go test ./...`). Left here: no second
# harness's results at the root, no document naming the in-place writer.
lint:
	@out=$$(ls BENCH_*.json 2>/dev/null || true); if [ -n "$$out" ]; then \
		echo "a second benchmark harness's results (benchmark/ writes the one result schema):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE 'IncrementalCheckpoint|WriteDRMSIncremental|SkipPiece' \
		--include='README.md' --include='DESIGN.md' --include='EXPERIMENTS.md' . || true); if [ -n "$$out" ]; then \
		echo "the in-place incremental writer is back (chained deltas, Config.AnchorEvery > 1, are the one"; \
		echo "implementation of the paper's §6 optimisation):"; echo "$$out"; exit 1; fi

# Non-test lines per package under internal/, nested ones included, printed
# by CI: the number a simplification PR moves. The tool total is drmsfsck
# with its gob-era readers, which no product binary links. Assembly is
# counted apart, so the totals from before it existed stay comparable.
GOSRC = find $(1) -name testdata -prune -o -name '*.go' ! -name '*_test.go' -print
loc:
	@for d in $$($(call GOSRC,internal) | xargs -n1 dirname | sort -u); do \
		printf '%-22s %6d\n' "$$d/" "$$(ls $$d/*.go | grep -v '_test\.go$$' | xargs cat | wc -l)"; done
	@printf '%-22s %6d\n' 'product total' "$$($(call GOSRC,internal) | xargs cat | wc -l)"
	@printf '%-22s %6d\n' 'tool total' "$$($(call GOSRC,cmd/drmsfsck) | xargs cat | wc -l)"
	@printf '%-22s %6d\n' 'assembly (*.s)' "$$(find internal -name '*.s' | xargs cat | wc -l)"

# Every rank's sends per SOP kind (anchor, delta, enabling SOP armed and
# unarmed, restore) on 4 tasks with one 32 KB array and with two: the
# table TestSOPRounds pins, printed in the CI log: what a small SOP costs,
# and that it does not grow with the array count.
rounds:
	@out=$$($(GO) test -count=1 -run '^TestSOPRounds$$' -v ./internal/drms) || { echo "$$out"; exit 1; }; \
		printf '%s\n' "$$out" | sed -n 's/^        \(..*\)/\1/p'

# The second line runs the 1-D path's (equality, containment, block
# build), the CRC's, the metadata decoder's, the BT-shaped plan's, piece
# exchange's and checksum's, the run enumerator's, the exact
# accumulator's and the file store's small-write micro-benchmarks once
# each, so they stay compiling and running (their numbers are for `go
# test -bench`).
test:
	$(GO) test ./...
	$(GO) test -run '^$$' -bench 'RangeEqual1D|SliceWithin1D|Block1D|Checksum|CRCCombine|TierCheck|ReadMeta|AssignPlannedBT|PieceExchangeBT|StorageRuns|AddSlice|SmallFileWrite' -benchtime=1x \
		./internal/rangeset ./internal/dist ./internal/crc ./internal/ckpt ./internal/array ./internal/xsum ./internal/pfs

# Every fuzz target of the module, one after the other for FUZZTIME
# each, stopping at the first crasher (`go test` alone, and so `make
# test`, runs their seeds only). Packages and targets are found, not
# listed: a new Fuzz* function is fuzzed from the day it lands, in a
# package that had none before too. Minimizing a new corpus entry gets
# 5 s, not Go's 60 s default, so a short FUZZTIME is spent fuzzing. CI
# runs this nightly with FUZZTIME=60s.
fuzz:
	@set -e; for pkg in $$(grep -rlE --include='*_test.go' --exclude-dir=.bench_build --exclude-dir=.git '^func Fuzz' . \
		| xargs -n1 dirname | sort -u); do \
		for f in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "== $$pkg $$f ($(FUZZTIME))"; \
			$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 5s $$pkg; \
		done; done

# Race coverage spans every layer that exercises real concurrency: the
# transport (including its TCP mesh and fault injector), parallel
# streaming, arrays, the checkpoint engine, the run-time system, the
# coordinator's heartbeat/revocation path, and the exact accumulator the
# ranks of a checksum fill side by side. The second line repeats the
# buffer hand-off tests: a buffer recycled while its receiver still reads
# it is a race the detector catches on some schedules only; so is a rank
# retired by a resize arriving late, and sixteen applications sharing a
# process while their ranks plan.
race:
	$(GO) test -race ./internal/stream ./internal/array ./internal/msg ./internal/crc ./internal/xsum \
		./internal/ckpt ./internal/drms ./internal/coord ./internal/obs
	$(GO) test -race -count=20 -run 'HandsOff|MailboxDrops|CirculatesBuffers|InFlightBytes|RetiredRankArrivingLate|ConcurrentAppsPlanOnce' \
		./internal/msg ./internal/array ./internal/stream ./internal/drms ./internal/apps

# The chaos soak: the recovery supervisor under a seeded fault injector
# that kills random ranks mid-compute, mid-checkpoint, and during
# recovery itself, across shrinking and growing pools, with the race
# detector on — plus the elasticity drills: mid-resize rank kills, the
# autoscaler's grow/shrink cycle, and the live drmsctl elastic scenario
# (autoscaler + in-flight resizes against the full daemon stack). The
# seeds are fixed in the tests, so a failure here is reproducible, and
# the whole drill is bounded well under two minutes.
chaos:
	$(GO) test -race -count=1 -timeout 110s \
		-run 'TestChaosSoak|TestSupervisor' \
		./internal/coord
	$(GO) test -race -count=1 -timeout 110s \
		-run 'TestResize|TestAutoscaler' \
		./internal/drms ./internal/coord
	$(GO) run ./cmd/drmsctl -scenario elastic

# The nightly control-plane soak: hundreds of supervised applications
# launched in waves while the coordinator is repeatedly crashed and
# recovered from its own checkpoint generations — re-adoptions proved by
# lease, resumed recoveries, zero spurious restarts, and the
# terminal-event-loss counter asserted 0 — with the race detector on.
# The schedule is seeded, so a failure replays with the same command.
# DRMS_SOAK_APPS scales the run (the plain test suite uses 8).
soak-controlplane:
	DRMS_SOAK_APPS=$${DRMS_SOAK_APPS:-300} $(GO) test -race -count=1 -timeout 580s \
		-run TestChaosSoakControlPlane ./internal/coord

# The scrape smoke test: the full daemon stack through a
# checkpoint/fail/recover cycle with /metrics, /healthz, and the stats
# op asserted at the end — the live proof that the instrumentation
# observes what the system actually does.
smoke:
	$(GO) test -count=1 -run TestDaemonObservabilityEndToEnd ./cmd/drmsd

# The root package's benchmarks: the paper's tables and figure through
# the trace-replay model, and the live cost of the core primitives. The
# modeled claims of the chained deltas, the memory tier, localized
# recovery and the in-flight resize are TestModeledClaims's rows in
# internal/bench (`make test`); their wall time is `make benchmark`'s.
bench:
	$(GO) test -run xxx -bench . -benchmem .

# CPU and allocation profiles of the paper-shaped data path, without a
# flag in benchmark/main.go: the steady-state checkpoint and reconfigured
# restart of apps.SP through drms and the verified restart of a 1-D block
# state shaped like the wall-clock benchmark's (root package), the
# BT-shaped planned assignment, the piece exchange, the run enumerator and
# the checksum alone (internal/array), the CRC kernel beside the table
# (internal/crc), and the exact accumulator beside a float loop
# (internal/xsum). Binaries and profiles land in .bench_build/; each
# listing is `pprof -top -cum`, the second by bytes allocated.
profile:
	@mkdir -p .bench_build
	@prof() { \
		$(GO) test -run '^$$' -bench "$$2" -benchtime=$${BENCHTIME:-3s} -o .bench_build/$$1.test \
			-cpuprofile .bench_build/$$1.cpu -memprofile .bench_build/$$1.mem $$3 && \
		$(GO) tool pprof -top -cum -nodecount=25 .bench_build/$$1.test .bench_build/$$1.cpu && \
		$(GO) tool pprof -top -cum -nodecount=25 -sample_index=alloc_space .bench_build/$$1.test .bench_build/$$1.mem; \
	}; \
	prof drms 'CheckpointDRMSSteadyState$$|ReconfiguredRestart$$' . && \
	prof drms1d 'Restart1D$$' . && \
	prof array 'AssignPlannedBT$$|PieceExchangeBT$$|StorageRuns$$|ChecksumBT$$' ./internal/array && \
	prof crc 'Checksum$$' ./internal/crc && \
	prof xsum 'AddSlice$$' ./internal/xsum

# The wall-clock benchmark (BENCHMARK.json, benchmark/README.md): five
# fresh-process runs of every workload, medians and quartiles in
# .bench_build/summary.json. Compare two summaries — say one from a
# checkout of the parent commit and one from this tree — with
# `make benchmark-compare A=parent.json B=.bench_build/summary.json`;
# it exits non-zero when a metric regressed beyond its bound.
benchmark:
	bash benchmark/run.sh -workload all -runs 5 -out .bench_build/summary.json

benchmark-compare:
	bash benchmark/run.sh -compare $(A) $(B)

# Paired runs of two revisions, for a host whose speed drifts more between
# sessions than a change moves a metric: `make benchmark-pairs A=HEAD~1
# B=. [W=dense-restart] [N=10] [S=10]` builds ./benchmark of both (a git
# revision is exported with `git archive` into .bench_build/pairs/, `.` is
# this tree), runs N alternating pairs of S-second runs per workload in
# fresh processes, and prints per end-to-end metric both medians and
# inter-quartile distances, the change's spread over the parent's median
# beside the bound, and the pairs won (cmd/benchpairs).
benchmark-pairs:
	$(GO) run ./cmd/benchpairs -a $(A) -b $(or $(B),.) -workload $(or $(W),all) -pairs $(or $(N),10) -seconds $(or $(S),10)
