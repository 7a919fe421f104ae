package drms_test

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"testing"

	"drms/internal/ckpt"
	"drms/internal/dist"
	"drms/internal/drms"
	"drms/internal/pfs"
	"drms/internal/rangeset"
	"drms/internal/stream"
)

// liveHeap is the heap the collector found reachable, after collecting
// twice: the first collection moves every sync.Pool into its victim
// cache, the second drops it, so pooled buffers do not count.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// hotWorkingSet runs the hot workloads' configuration — 4 tasks, a 1-D
// float64 and int32 block state of n elements each, tier k = 1 with
// diskless generations, Partial, raw codec, two generations kept — for
// runs incarnations of perRun checkpoints each; every incarnation but the
// first begins by restoring the newest generation from the tier. From the
// second incarnation on, when the rotation is full, it reads the live heap
// above the one it started with on rank 0 while every task waits at a
// barrier, after each commit and its prune and after each restore, and
// returns the most of each.
func hotWorkingSet(t *testing.T, n, runs, perRun int) (afterCommit, afterRestore uint64) {
	const tasks = 4
	fs := pfs.NewSystem(pfs.DefaultConfig())
	cfg := drms.Config{Tasks: tasks, FS: fs, Keep: 2, Tier: ckpt.NewMemTier(), Replicas: 1, DemoteEvery: 1 << 20,
		Codec: ckpt.CodecRaw, Partial: true, Stream: stream.Options{PieceBytes: 32 << 10}}
	g := rangeset.NewSlice(rangeset.Span(0, n-1))
	// A checkpoint of another store first: what a process allocates once,
	// such as the segment file's 1 MiB padding source, is in the baseline
	// whichever test ran before.
	if err := drms.Run(drms.Config{Tasks: 1, FS: pfs.NewSystem(pfs.DefaultConfig())}, func(task *drms.Task) error {
		_, _, err := task.ReconfigCheckpoint("warm")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	base := liveHeap()
	for run := range runs {
		read := func(task *drms.Task, into *uint64) error {
			if err := task.Comm().Barrier(); err != nil {
				return err
			}
			if task.Rank() == 0 && run > 0 {
				*into = max(*into, liveHeap()-base)
			}
			return task.Comm().Barrier()
		}
		cfg.RestartFrom = ""
		if run > 0 {
			cfg.RestartFrom = "ck"
		}
		h, err := drms.Start(cfg, func(task *drms.Task) error {
			d, err := dist.Block(g, []int{task.Tasks()})
			if err != nil {
				return err
			}
			u, err := drms.NewArray[float64](task, "u", d)
			if err != nil {
				return err
			}
			tab, err := drms.NewArray[int32](task, "tab", d)
			if err != nil {
				return err
			}
			gen := run * perRun // the generation the next checkpoint writes
			if run > 0 {
				if st, _, err := task.ReconfigCheckpoint("ck"); err != nil || st != drms.Restored {
					return fmt.Errorf("restore of generation %d: %v, %v", gen-1, st, err)
				}
				var bad error
				u.Assigned().Each(rangeset.ColMajor, func(c []int) {
					if u.At(c) != float64(c[0]+gen-1)*0.5 || tab.At(c) != int32(c[0]^(gen-1)) {
						bad = fmt.Errorf("generation %d restored element %v wrong", gen-1, c)
					}
				})
				if bad != nil {
					return bad
				}
				if err := read(task, &afterRestore); err != nil {
					return err
				}
			}
			for ; gen < (run+1)*perRun; gen++ {
				u.Fill(func(c []int) float64 { return float64(c[0]+gen) * 0.5 })
				tab.Fill(func(c []int) int32 { return int32(c[0] ^ gen) })
				if st, _, err := task.ReconfigCheckpoint("ck"); err != nil || st != drms.Continued {
					return fmt.Errorf("checkpoint of generation %d: %v, %v", gen, st, err)
				}
				if err := read(task, &afterCommit); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Wait(); err != nil {
			t.Fatal(err)
		}
		if src, _ := h.LastRestoreSource(); run > 0 && src != "mem" {
			t.Fatalf("run %d restored from %q, not peer memory", run, src)
		}
	}
	return afterCommit, afterRestore
}

// TestHotWorkingSet bounds what the hot workloads' state keeps reachable
// (DESIGN.md §3h, "Working set"): the arrays, one park snapshot, the two
// kept generations in the tier and the disk anchor, after a commit and
// its prune as after a restore. Each
// bound is the measured reading plus 10 %, less than one state copy
// (384 KB): a prune that leaves a generation in the tier, or a restore
// whose fetchers' replica table outlives it, reads one copy more.
func TestHotWorkingSet(t *testing.T) {
	const (
		n = 1 << 15
		// Measured 2 027 128–2 048 144 and 2 009 400–2 030 400 bytes over
		// six runs, three of them under the race detector: the arrays and
		// the park snapshot 384 KB each, the tier's two generations 768 KB
		// (each payload's replicas share one copy), the disk anchor's pfs
		// chunks 390 KB, plans and metadata the rest.
		commitBound, restoreBound = 2_250_000, 2_230_000
	)
	commit, restore := hotWorkingSet(t, n, 4, 3)
	t.Logf("live heap above the start: %d bytes after a commit, %d after a restore", commit, restore)
	if commit > commitBound {
		t.Errorf("after a commit and its prune %d bytes are live, bound %d", commit, commitBound)
	}
	if restore > restoreBound {
		t.Errorf("after a restore %d bytes are live, bound %d", restore, restoreBound)
	}
}
