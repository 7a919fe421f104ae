package main

import (
	"time"

	"drms/internal/apps"
	"drms/internal/ckpt"
	"drms/internal/dist"
	"drms/internal/drms"
	"drms/internal/pfs"
	"drms/internal/rangeset"
	"drms/internal/stream"
)

// ckptPrefix is the user-facing checkpoint prefix every workload's
// application writes under (generations rotate as ckptPrefix.gN). The
// supervised workload's application is named after it, as coord.AppSpec
// requires.
const ckptPrefix = "bench"

// steadyPerCycle is the number of individually timed checkpoint tickets
// at the start of every cycle.
const steadyPerCycle = 3

// warmupCycles run, untimed, at the end of every set-up; they count
// toward setup_s.
const warmupCycles = 1

// writerTasks is the task count of the long-lived writer incarnation.
const writerTasks = 4

// recoveryKind names the recovery operation a workload times once per
// cycle (the recovery_p50_ms samples).
type recoveryKind int

const (
	// recRestart launches a separate reader incarnation with RestartFrom
	// and times drms.Start -> every rank Restored.
	recRestart recoveryKind = iota
	// recResize times one in-flight Handle.Resize round trip 4 -> 2 -> 4;
	// one sample is the sum of both calls.
	recResize
	// recPartial times Handle.PartialRecover of one seeded victim rank.
	recPartial
	// recCoord fails a TC under the recovery supervisor and times
	// TC.Fail -> every rank of the new incarnation Restored.
	recCoord
)

// elemKind is the element type of one state array.
type elemKind int

const (
	kindF64 elemKind = iota
	kindI32
)

func (k elemKind) size() int64 {
	if k == kindI32 {
		return 4
	}
	return 8
}

// arraySpec declares one distributed array of a workload's state.
type arraySpec struct {
	name   string
	kind   elemKind
	elems  int64 // global element count
	static bool  // never touched by the dirty step (a lookup table)
	// dist builds the array's distribution for a task count. Called once
	// per rank per communicator epoch, like an application prologue would.
	dist func(tasks int) (*dist.Distribution, error)
}

// workload is one named benchmark workload: its state, its drms
// configuration, its dirty step and the recovery operation it times.
type workload struct {
	name string
	why  string

	arrays []arraySpec
	// window is the number of elements of every non-static array each rank
	// rewrites per dirty step; 0 rewrites every element.
	window int
	// palette, when > 0, draws fill and dirty values from that many
	// distinct floats, so a compressing codec has work to do.
	palette int

	// config returns the workload's drms configuration without Tasks and
	// RestartFrom.
	config func(fs *pfs.System, tier *ckpt.MemTier) drms.Config
	hot    bool // the configuration uses the in-memory tier

	recovery    recoveryKind
	readerTasks int // recRestart: task count of the reader incarnation

	// block, when > 0, is the number of timed cycles one set-up serves
	// before the run replaces it with a fresh one. For a workload whose
	// cost grows with the number of cycles a set-up has served; the other
	// workloads keep one set-up for the whole timed loop.
	block int
}

// tasks is the task count of the workload's writer.
func (w *workload) tasks() int {
	if w.recovery == recCoord {
		return coordTasks
	}
	return writerTasks
}

// restoreTasks is the task count the workload's full restores run at.
func (w *workload) restoreTasks() int {
	if w.recovery == recRestart {
		return w.readerTasks
	}
	return w.tasks()
}

func (w *workload) logicalBytes() int64 {
	var n int64
	for _, a := range w.arrays {
		n += a.elems * a.kind.size()
	}
	return n
}

// block1D is the 1-D block distribution of n elements.
func block1D(n int) func(tasks int) (*dist.Distribution, error) {
	return func(tasks int) (*dist.Distribution, error) {
		return dist.Block(rangeset.NewSlice(rangeset.Span(0, n-1)), []int{tasks})
	}
}

// btField is a BT-shaped comps x n^3 field under the kernels' own
// decomposition.
func btField(name string, comps, n int, shadow bool) arraySpec {
	return arraySpec{name: name, kind: kindF64, elems: int64(comps) * int64(n) * int64(n) * int64(n),
		dist: func(tasks int) (*dist.Distribution, error) { return apps.Decompose(comps, n, tasks, shadow) }}
}

// hotConfig keeps steady-state generations diskless: only the first
// generation of the prefix is written through to the pfs.
func hotConfig(fs *pfs.System, tier *ckpt.MemTier) drms.Config {
	return drms.Config{FS: fs, Keep: 2, Tier: tier, Replicas: 1, DemoteEvery: 1 << 20,
		Codec: ckpt.CodecRaw, Partial: true, PartialTimeout: opTimeout,
		Stream: stream.Options{PieceBytes: 32 << 10}}
}

// opTimeout bounds every wait the driver makes on the program under test.
const opTimeout = 60 * time.Second

const (
	// denseN is the grid edge of dense-restart's BT-shaped fields: 30
	// components x 48^3 x 8 bytes = 26.5 MB, more than six times the 4 MiB
	// L2. (The VM reports a 260 MiB shared L3, so this is a stated size,
	// not a memory-bandwidth test.)
	denseN = 48
	// sparseElems is the 1-D length of the sparse and hot workloads'
	// arrays. The seed's checkpoint and restore are quadratic in 1-D
	// length (rangeset.Range.Equal walks every element, once per piece
	// round), so the size is half the BENCH_6-10 shape: at 1<<18 a
	// hot-resize cycle takes 3 s and a run's time box holds three of them.
	// To be raised once ROADMAP item 1(a) lands.
	sparseElems = 1 << 17
	// coordElems is coord-recover's whole state: 32 KB.
	coordElems = 4096
	// coordBlock is the number of cycles one coordinator set-up serves. The
	// seed's supervised relaunch gets slower with every generation the
	// prefix has ever used (ckpt.Rotation.CleanIncomplete probes every
	// generation number from 0 up: recovery takes 8 ms at the 100th cycle of
	// a set-up and 25 ms at the 1900th), so an open-ended set-up would make
	// recovery_p50_ms a function of how many cycles the time box held.
	coordBlock = 100
)

// workloads is the benchmark's table, in the order it prints.
var workloads = buildWorkloads(denseN, sparseElems, coordBlock)

// buildWorkloads builds the table at the given sizes; the tests build a
// small one.
func buildWorkloads(denseN, sparseElems, coordBlock int) []*workload {
	sparse := func() []arraySpec {
		return []arraySpec{
			{name: "u", kind: kindF64, elems: int64(sparseElems), dist: block1D(sparseElems)},
			{name: "tab", kind: kindI32, elems: int64(sparseElems), static: true, dist: block1D(sparseElems)},
		}
	}
	return []*workload{
		{
			name: "dense-restart",
			why:  "26.5 MB BT-shaped state, flat format, every element dirty, reconfigured restart 4->3 from pfs: array, stream, msg and pfs bytes dominate",
			arrays: []arraySpec{
				btField("u", 5, denseN, true),
				btField("rhs", 5, denseN, false),
				btField("forcing", 5, denseN, false),
				btField("lhs", 15, denseN, false),
			},
			config: func(fs *pfs.System, _ *ckpt.MemTier) drms.Config {
				return drms.Config{FS: fs, Keep: 2}
			},
			recovery:    recRestart,
			readerTasks: 3,
		},
		{
			name:    "sparse-chain",
			why:     "1.5 MB 1-D state, flate delta chain, 2048-element dirty windows, verified restart at 4 tasks: chain metadata, fingerprints, codec and rangeset dominate",
			arrays:  sparse(),
			window:  2048,
			palette: 256,
			config: func(fs *pfs.System, _ *ckpt.MemTier) drms.Config {
				return drms.Config{FS: fs, Keep: 2, AnchorEvery: 8, Codec: ckpt.CodecFlate, Verify: true,
					Stream: stream.Options{PieceBytes: 32 << 10}}
			},
			recovery:    recRestart,
			readerTasks: 4,
		},
		{
			name:        "hot-restart",
			why:         "sparse-chain's state with diskless generations in the memory tier; restart at 4 tasks must be served from peer memory: MemTier and plan rebuilds dominate",
			arrays:      sparse(),
			window:      2048,
			palette:     256,
			config:      hotConfig,
			hot:         true,
			recovery:    recRestart,
			readerTasks: 4,
		},
		{
			name:     "hot-resize",
			why:      "same hot state; one in-flight resize round trip 4->2->4 per cycle: msg epoch swaps, drms resize path and array plan rebuilds dominate",
			arrays:   sparse(),
			window:   2048,
			palette:  256,
			config:   hotConfig,
			hot:      true,
			recovery: recResize,
		},
		{
			name:     "hot-partial",
			why:      "same hot state; localized recovery of one seeded victim rank per cycle: msg shrink/park, park snapshots and the partial reader dominate",
			arrays:   sparse(),
			window:   2048,
			palette:  256,
			config:   hotConfig,
			hot:      true,
			recovery: recPartial,
		},
		{
			name:   "coord-recover",
			why:    "32 KB app under the recovery supervisor; a TC fails every cycle: detection, relaunch, state-store flushes and launch cost dominate, data path idle",
			arrays: []arraySpec{{name: "u", kind: kindF64, elems: coordElems, dist: block1D(coordElems)}},
			window: 1,
			// What coord.RC builds for a supervised application with default
			// streaming: two generations kept, restores verified.
			config: func(fs *pfs.System, _ *ckpt.MemTier) drms.Config {
				return drms.Config{FS: fs, Keep: 2, Verify: true}
			},
			recovery: recCoord,
			block:    coordBlock,
		},
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
