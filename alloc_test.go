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
// float64 array on 3 tasks, two generations kept, the shape of the
// wall-clock benchmark's coord-recover workload — as the default
// configuration writes it with restores verified, with localized
// recovery's park snapshot refreshed at every SOP, and as an SPMD
// checkpoint. The collector is off, so TotalAlloc counts every byte
// allocated; a restore counts the least of five restarted runs. Each
// bound is the value measured when it was set plus 25 %. A file store
// that spends a 64 KiB chunk on every small file it touches, an exact
// checksum that allocates its 32 KiB table on every call, a snapshot
// that allocates a fresh copy of the local section per SOP, or a local
// section encoded to measure its length or decoded through a temporary
// breaks them.
func TestSmallStateAllocation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  drms.Config
		// Bytes per steady cycle over all tasks, and per restarted run
		// (launch, restore, checksum): plain, then under the race
		// detector, which allocates for its own bookkeeping and whose
		// sync.Pool drops a quarter of what it is given at random (there
		// the bounds are the most measured in eight runs plus 25 %).
		ckpt, restore, raceCkpt, raceRestore uint64
	}{
		{"verified", drms.Config{Verify: true}, 87_000, 153_000, 175_000, 180_000},
		{"park-snapshot", drms.Config{Verify: true, Partial: true}, 91_000, 206_000, 166_000, 295_000},
		{"spmd", drms.Config{SPMDMode: true}, 122_000, 165_000, 211_000, 169_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ckptBound, restoreBound := tc.ckpt, tc.restore
			if raceEnabled {
				ckptBound, restoreBound = tc.raceCkpt, tc.raceRestore
			}
			perCkpt, perRestore := smallStateAllocation(t, tc.cfg)
			t.Logf("%d bytes per checkpoint, %d per restore", perCkpt, perRestore)
			if perCkpt > ckptBound {
				t.Errorf("a steady checkpoint and checksum allocate %d bytes, bound %d", perCkpt, ckptBound)
			}
			if perRestore > restoreBound {
				t.Errorf("a restore allocates %d bytes, bound %d", perRestore, restoreBound)
			}
		})
	}
}

// smallStateAllocation measures TestSmallStateAllocation's two figures
// under cfg (its Tasks, FS, Keep and RestartFrom are set here).
func smallStateAllocation(t *testing.T, cfg drms.Config) (perCkpt, perRestore uint64) {
	const (
		n, tasks     = 4096, 3
		warm, steady = 3, 20
	)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := rangeset.NewSlice(rangeset.Span(0, n-1))
	fs := pfs.NewSystem(pfs.DefaultConfig())
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
	cfg.Tasks, cfg.FS, cfg.Keep, cfg.RestartFrom = tasks, fs, 2, ""
	if err := drms.Run(cfg, body(false)); err != nil {
		t.Fatal(err)
	}
	cfg.RestartFrom = "ck"
	if err := drms.Run(cfg, body(true)); err != nil { // builds the restore's plans
		t.Fatal(err)
	}
	perRestore = uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := drms.Run(cfg, body(true)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perRestore = min(perRestore, after.TotalAlloc-before.TotalAlloc)
	}
	return perCkpt, perRestore
}
