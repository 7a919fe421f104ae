package apps

import (
	"runtime"
	"sync"
	"testing"
	"weak"

	"drms/internal/array"
	"drms/internal/drms"
	"drms/internal/msg"
	"drms/internal/stream"
)

// Cold plans of one spCheckpoints application: what its first checkpoint
// builds, summed over its ranks.
const (
	spArrayPlans  = 36
	spStreamPlans = 8
)

// spCheckpoints is a class-S SP application on 4 tasks whose two steps
// are each a halo exchange and a checkpoint: the first plans, the second
// replays. What a step computes is left out, because plans do not depend
// on the values moved, and few steps keep the test cheap enough to repeat
// under the race detector.
func spCheckpoints(task *drms.Task) error {
	in, err := SP().Setup(task, ClassS)
	if err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		if err := in.U().ExchangeShadows(); err != nil {
			return err
		}
		if _, _, err := task.ReconfigCheckpoint("ck"); err != nil {
			return err
		}
	}
	return nil
}

// runSPApps runs m spCheckpoints applications side by side in this
// process and returns the array and stream plan misses they caused.
func runSPApps(t *testing.T, m int) (arrayMisses, streamMisses uint64) {
	t.Helper()
	_, am0 := array.PlanCacheStats()
	_, sm0 := stream.PlanCacheStats()
	errs := make(chan error, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- drms.Run(drms.Config{Tasks: 4, FS: testFS()}, spCheckpoints)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	_, am := array.PlanCacheStats()
	_, sm := stream.PlanCacheStats()
	return am - am0, sm - sm0
}

// TestConcurrentAppsPlanOnce: applications sharing a process share no
// plan table, so however many run side by side, each plans its
// configuration once — only cold misses, the same per application as
// when it runs alone. Process-wide caches shared by every rank thrashed
// here once about eight applications ran (52–64 % array misses).
func TestConcurrentAppsPlanOnce(t *testing.T) {
	for _, m := range []int{1, 16} {
		am, sm := runSPApps(t, m)
		if am != uint64(m*spArrayPlans) || sm != uint64(m*spStreamPlans) {
			t.Fatalf("%d applications: %d array and %d stream plan misses, want %d and %d (cold only)",
				m, am, sm, m*spArrayPlans, m*spStreamPlans)
		}
	}
}

// TestFinishedAppLeavesNoPlans: once an application returns, nothing of
// it stays reachable through the plans — not its communicators (and so
// not their transports), and not the heap its plans took — without a
// FlushPlans.
func TestFinishedAppLeavesNoPlans(t *testing.T) {
	heap := func() uint64 {
		var ms runtime.MemStats
		for i := 0; i < 3; i++ { // pooled buffers survive one collection
			runtime.GC()
		}
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	run := func() []weak.Pointer[msg.Comm] {
		var mu sync.Mutex
		var comms []weak.Pointer[msg.Comm]
		err := drms.Run(drms.Config{Tasks: 4, FS: testFS()}, func(task *drms.Task) error {
			mu.Lock()
			comms = append(comms, weak.Make(task.Comm()))
			mu.Unlock()
			return spCheckpoints(task)
		})
		if err != nil {
			t.Fatal(err)
		}
		return comms
	}
	run() // package-level state the first run sets up is not the plans'
	base := heap()
	comms := run()
	after := heap()
	for rank, c := range comms {
		if c.Value() != nil {
			t.Fatalf("rank %d's communicator is reachable after its application finished", rank)
		}
	}
	// The plans of one class-S application hold about 280 KB.
	if after > base+64<<10 {
		t.Fatalf("heap %d B after the application, %d B before: %d B stayed reachable",
			after, base, after-base)
	}
	t.Logf("heap %d B before the application, %d B after", base, after)
}
