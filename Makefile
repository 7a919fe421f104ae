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

# The second line keeps the file set every other architecture builds
# (internal/crc's table-only path) compiling; cross-compiling downloads
# nothing.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/crc

# The fallible runtime core (transport, streaming, checkpointing) reports
# failures as errors, never by panicking: a panic in these packages would
# take down survivors that are supposed to unwind with ErrRevoked and
# restart. Tests are exempt — they may panic inside SPMD bodies as their
# assertion mechanism.
lint:
	@out=$$(grep -rn 'panic(' --include='*.go' internal/msg internal/stream internal/ckpt | grep -v '_test\.go' || true); \
	if [ -n "$$out" ]; then \
		echo "panic() in fallible runtime code (must return errors):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn '"drms/' --include='*.go' internal/obs || true); \
	if [ -n "$$out" ]; then \
		echo "internal/obs must stay stdlib-only (every layer imports it):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn '"drms/' --include='*.go' internal/codec || true); \
	if [ -n "$$out" ]; then \
		echo "internal/codec must stay stdlib-only (piece codecs decode anywhere, including fsck):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn '"drms/' --include='*.go' internal/xsum || true); \
	if [ -n "$$out" ]; then \
		echo "internal/xsum must stay stdlib-only (a leaf: the exact sum every layer may fold into):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE --include='*.go' --exclude='*_test.go' '\.Gather\([^)]*rangeset\.' cmd internal || true); \
	if [ -n "$$out" ]; then \
		echo "Array.Gather in product code (it moves the whole array to one rank: tests only; a"; \
		echo "checksum is Array.Checksum, which moves no element):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=coord --exclude-dir=drms --exclude-dir=msg --exclude-dir=bench \
		-E '\.(EnableCheckpoint|RequestStop|Kill)\(' cmd internal || true); \
	if [ -n "$$out" ]; then \
		echo "RC internals reached around outside internal/coord (use the versioned API —"; \
		echo "OpenApp/CheckpointApp/StopApp/KillApp — or the control protocol):"; echo "$$out"; exit 1; fi
	@out=$$(grep -nE '\.Status\s*=[^=]|\.Version\+\+|\.(EnableCheckpoint|RequestStop|Kill)\(' internal/coord/*.go \
		| grep -v -e '_test\.go:' -e '^internal/coord/transition\.go:' || true); \
	if [ -n "$$out" ]; then \
		echo "application state changed outside the coordinator's transition function (status, version"; \
		echo "and the control actions on an incarnation belong to internal/coord/transition.go):"; echo "$$out"; exit 1; fi
	@for pat in '\.Status\s*=[^=]' '\.Version\+\+'; do \
		if [ "$$(grep -cE "$$pat" internal/coord/transition.go)" -ne 1 ]; then \
			echo "internal/coord/transition.go must hold exactly one site matching $$pat:"; \
			grep -nE "$$pat" internal/coord/transition.go; exit 1; fi; done
	@out=$$(grep -n 'flushState()' internal/coord/*.go \
		| grep -v -e '_test\.go:' -e '^internal/coord/transition\.go:' -e '^internal/coord/store\.go:' || true); \
	if [ "$$(printf '%s' "$$out" | grep -c .)" -gt 1 ] || printf '%s' "$$out" | grep -qv '^internal/coord/lease\.go:'; then \
		echo "a synchronous state flush outside the transition function, the persister, SyncState and"; \
		echo "RecoverRC's one final flush (persist-then-announce is the transition function's job):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rln --include='*.go' '^package coord' cmd internal | grep -v '^internal/coord/' || true); \
	if [ -n "$$out" ]; then \
		echo "package coord declared outside internal/coord (no backdoor into the RC's tables):"; echo "$$out"; exit 1; fi
	@out=$$(grep -n '\.StreamRead(' internal/ckpt/*.go | grep -v '_test\.go:' || true); \
	if [ "$$(printf '%s' "$$out" | grep -c .)" -gt 1 ]; then \
		echo "more than one StreamRead call site in internal/ckpt (every restart shape is a plan"; \
		echo "of the one restore engine, restoreDRMS — a second reader must not creep back):"; echo "$$out"; exit 1; fi
	@out=$$(grep -n '\.StreamWrite(' internal/ckpt/*.go | grep -v '_test\.go:' || true); \
	if [ "$$(printf '%s' "$$out" | grep -c .)" -gt 1 ]; then \
		echo "more than one StreamWrite call site in internal/ckpt (every DRMS checkpoint is an anchor"; \
		echo "or a delta of the one encoder, WriteDRMSChained — a second writer must not creep back):"; echo "$$out"; exit 1; fi
	@out=$$(grep -nE 'chained\(\)|ckpt\.WriteDRMS\(' internal/drms/*.go | grep -v '_test\.go:' || true); \
	if [ -n "$$out" ]; then \
		echo "internal/drms selects a checkpoint format again (a configuration chooses codec, chain and"; \
		echo "tier through ckpt.ChainOptions, never the format):"; echo "$$out"; exit 1; fi
	@out=$$(grep -nE 'array\.New[[(]|array\.Assign\(|\.Reset\(' internal/stream/*.go | grep -v '_test\.go:' || true); \
	if [ -n "$$out" ]; then \
		echo "internal/stream holds a typed array of its own again (a round's pieces live in their I/O"; \
		echo "buffers, in wire form: array.PackPieces/UnpackPieces — the auxiliary array must not creep back):"; echo "$$out"; exit 1; fi
	@out=$$(grep -nE 'append\(\[\]byte\(nil\)|bytes\.Clone' internal/msg/local.go internal/msg/tcp.go || true); \
	if [ -n "$$out" ]; then \
		echo "a payload copy in a transport (Send takes ownership of its payload: Comm.send copies for"; \
		echo "the operations that give the caller its buffer back, AlltoallSparse hands off):"; echo "$$out"; exit 1; fi
	@out=$$(awk '/^func \(c \*Comm\) (AlltoallSparse|send)\(/,/^}/ { next } /handOff\(/ && !/^func \(c \*Comm\) handOff\(/ { print FILENAME ":" FNR ": " $$0 }' \
		$$(ls internal/msg/*.go | grep -v '_test\.go$$')); \
	if [ -n "$$out" ]; then \
		echo "a hand-off outside AlltoallSparse (every other operation promises MPI copy semantics:"; \
		echo "its caller may reuse the buffer, so it must go through Comm.send, which hands off a copy):"; echo "$$out"; exit 1; fi
	@out=$$(grep -nE '\[\](Transport|\*TCPTransport)\b' $$(ls internal/msg/*.go | grep -v '_test\.go$$') || true; \
		awk 'FNR == 1 { fn = "" } /^func / { fn = $$0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[[(].*/, "", fn) } \
		/New(Local|TCP)Transport\(/ && !/^[ \t]*\/\// && !/^func New(Local|TCP)Transport\(/ && fn !~ /^(NewRunner|install)$$/ { print FILENAME ":" FNR ": " $$0 }' \
		$$(ls internal/msg/*.go | grep -v '_test\.go$$')); \
	if [ -n "$$out" ]; then \
		echo "a second live epoch in the runner (it keeps only the current transport: NewRunner opens the"; \
		echo "launch one, Runner.install every later one, and a retired transport is dropped):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rl '"unsafe"' --include='*.go' internal | grep -vx 'internal/array/codec.go' || true); \
	if [ -n "$$out" ]; then \
		echo "a second unsafe import under internal/ (the one byte view of a slice is rawBytes in"; \
		echo "internal/array/codec.go):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rl '"hash/crc64"' --include='*.go' --exclude='*_test.go' cmd internal | grep -vx 'internal/crc/crc.go' || true); \
	if [ -n "$$out" ]; then \
		echo "a second CRC-64 under internal/ (internal/crc is the one implementation: its sums are"; \
		echo "hash/crc64's, its bulk path the carry-less-multiply kernel):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build \
		'binary\.(Append|Put)?U?[vV]arint\(' . | grep -v '^\./internal/frame/' || true); \
	if [ -n "$$out" ]; then \
		echo "a hand-rolled varint codec (internal/frame is the one codec of every record the system defines:"; \
		echo "one walk that encodes and decodes, accepting only the encoding of what it decodes to):"; echo "$$out"; exit 1; fi
	@out=$$(grep -nE 'ChainLen|Deps|loadChain' internal/ckpt/state.go || true); \
	if [ -n "$$out" ]; then \
		echo "the control-plane store walks or writes chains again (every StateStore generation is a"; \
		echo "self-contained anchor; only drmsfsck -repair resolves an older delta chain):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build '\.Intersect\(.*\)\.Equal\(' . || true); \
	if [ -n "$$out" ]; then \
		echo "a subset test built as intersect-then-compare (it walks every element and allocates the"; \
		echo "intersection; x.Within(y) answers x ⊆ y in O(1) on regular axes, one pass otherwise):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rl --include='*.go' --exclude='*_test.go' '"encoding/json"' internal/bench cmd/drmsbench || true; \
		ls BENCH_*.json 2>/dev/null || true); \
	if [ -n "$$out" ]; then \
		echo "a second benchmark harness (benchmark/ writes the one result schema; internal/bench and"; \
		echo "cmd/drmsbench regenerate the paper's tables, and TestModeledClaims holds the modeled claims):"; echo "$$out"; exit 1; fi
	@out=$$(grep -rnE 'IncrementalCheckpoint|WriteDRMSIncremental|SkipPiece' --include='*.go' \
		--include='README.md' --include='DESIGN.md' --include='EXPERIMENTS.md' . || true); \
	if [ -n "$$out" ]; then \
		echo "the in-place incremental writer is back (chained deltas, Config.AnchorEvery > 1,"; \
		echo "are the one implementation of the paper's §6 optimisation):"; echo "$$out"; exit 1; fi

# Non-test lines per internal package: the number a simplification PR
# moves, printed by CI so a reviewer sees it without a checkout. The
# product total is internal/; the tool total is drmsfsck with its package
# of gob-era readers (cmd/drmsfsck/internal/legacy), which no product
# binary links. Assembly is counted apart: the totals before it existed
# stay comparable.
loc:
	@for d in internal/*/; do \
		printf '%-22s %6d\n' "$$d" "$$(ls $$d*.go | grep -v '_test\.go$$' | xargs cat | wc -l)"; done
	@printf '%-22s %6d\n' 'product total' "$$(ls internal/*/*.go | grep -v '_test\.go$$' | xargs cat | wc -l)"
	@printf '%-22s %6d\n' 'tool total' "$$(find cmd/drmsfsck -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@printf '%-22s %6d\n' 'assembly (*.s)' "$$(cat internal/*/*.s | wc -l)"

# Every rank's sends per SOP kind — an anchor checkpoint, a delta, the
# enabling SOP armed and unarmed, a restore — on 4 tasks with one 32 KB
# array and with two: the table TestSOPRounds pins, printed by CI so a
# reviewer sees the rounds a small SOP costs, and that they do not grow
# with the array count, without a checkout. A changed count fails the
# test.
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
