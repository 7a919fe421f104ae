package drms_test

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"drms/internal/dist"
	"drms/internal/drms"
	"drms/internal/pfs"
	"drms/internal/rangeset"
)

// TestSmallStateAllocation bounds the bytes a small application allocates
// per steady cycle (a checkpoint and a checksum) and per restore: a 32 KB
// float64 array on 3 tasks, two generations kept and restores verified,
// the shape of the wall-clock benchmark's coord-recover workload. The
// collector is off, so TotalAlloc counts every byte allocated; a restore
// counts the least of five restarted runs. Each bound is the value
// measured when it was set plus 25 %. A file store that
// spends a 64 KiB chunk on every small file it touches, or an exact
// checksum that allocates its 32 KiB table on every call, breaks them.
func TestSmallStateAllocation(t *testing.T) {
	const (
		n, tasks     = 4096, 3
		warm, steady = 3, 20
	)
	// Bytes per steady cycle over all tasks, and per restarted run:
	// launch, restore, checksum.
	ckptBound, restoreBound := uint64(87_000), uint64(153_000)
	if raceEnabled {
		// The race detector allocates for its own bookkeeping, and its
		// sync.Pool drops a quarter of what it is given at random: there
		// the bounds are the most measured in eight runs plus 25 %.
		ckptBound, restoreBound = 175_000, 180_000
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := rangeset.NewSlice(rangeset.Span(0, n-1))
	fs := pfs.NewSystem(pfs.DefaultConfig())
	var perCkpt uint64
	body := func(restart bool) func(t *drms.Task) error {
		return func(task *drms.Task) error {
			d, err := dist.Block(g, []int{task.Tasks()})
			if err != nil {
				return err
			}
			u, err := drms.NewArray[float64](task, "u", d)
			if err != nil {
				return err
			}
			if restart {
				_, _, err := task.ReconfigCheckpoint("ck")
				if err == nil {
					_, err = u.Checksum()
				}
				return err
			}
			var before, after runtime.MemStats
			for i := 0; i < warm+steady; i++ {
				if i == warm {
					task.Comm().Barrier()
					if task.Rank() == 0 {
						runtime.ReadMemStats(&before)
					}
					task.Comm().Barrier()
				}
				u.Fill(func(c []int) float64 { return float64(c[0]*(i+1)) * 0.5 })
				if _, _, err := task.ReconfigCheckpoint("ck"); err != nil {
					return err
				}
				if _, err := u.Checksum(); err != nil {
					return err
				}
			}
			task.Comm().Barrier()
			if task.Rank() == 0 {
				runtime.ReadMemStats(&after)
				perCkpt = (after.TotalAlloc - before.TotalAlloc) / steady
			}
			return nil
		}
	}
	cfg := drms.Config{Tasks: tasks, FS: fs, Keep: 2, Verify: true}
	if err := drms.Run(cfg, body(false)); err != nil {
		t.Fatal(err)
	}
	cfg.RestartFrom = "ck"
	if err := drms.Run(cfg, body(true)); err != nil { // builds the restore's plans
		t.Fatal(err)
	}
	perRestore := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := drms.Run(cfg, body(true)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perRestore = min(perRestore, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%d bytes per checkpoint, %d per restore", perCkpt, perRestore)
	if perCkpt > ckptBound {
		t.Errorf("a steady checkpoint and checksum allocate %d bytes, bound %d", perCkpt, ckptBound)
	}
	if perRestore > restoreBound {
		t.Errorf("a restore allocates %d bytes, bound %d", perRestore, restoreBound)
	}
}
