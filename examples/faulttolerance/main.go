// Faulttolerance: the failure/recovery model of §4 under the autonomous
// recovery supervisor. A machine of four processors runs a resource
// coordinator with one task coordinator per processor; the LU benchmark
// executes on three of them, checkpointing periodically into rotated
// generations. Mid-run, two processors "fail" (their TC connections drop
// with no goodbye). The RC detects the loss, kills the application, and —
// because the job carries a RecoveryPolicy — restarts it on its own: it
// re-sizes the pool onto the two survivors, restores the newest
// checkpoint generation that passes integrity verification, and resumes.
// No manual re-launch happens anywhere; the program just waits for the
// terminal status and checks that the result matches an uninterrupted
// run exactly.
package main

import (
	"fmt"
	"log"
	"time"

	"drms/internal/apps"
	"drms/internal/ckpt"
	"drms/internal/coord"
	"drms/internal/drms"
	"drms/internal/pfs"
)

func main() {
	const iters, ckEvery = 200, 20
	k := apps.LU()

	// Reference checksum from an undisturbed run.
	ref := make(chan float64, 1)
	if err := drms.Run(drms.Config{Tasks: 3, FS: pfs.NewSystem(pfs.DefaultConfig())},
		k.App(apps.RunConfig{Class: apps.ClassS, Iters: iters, OnDone: ref})); err != nil {
		log.Fatal(err)
	}
	want := <-ref

	fs := pfs.NewSystem(pfs.DefaultConfig())
	rc, err := coord.NewRCOpts(fs, coord.RCOptions{HBTimeout: 500 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	defer rc.Close()
	events, _ := rc.Subscribe()
	go func() {
		for e := range events {
			extra := ""
			if e.Attempt > 0 {
				extra = fmt.Sprintf(" attempt=%d", e.Attempt)
				if e.Tasks > 0 {
					extra += fmt.Sprintf(" tasks=%d", e.Tasks)
				}
				if e.Kind == coord.EventAppRecovered {
					extra += fmt.Sprintf(" gen=%d ttr=%s", e.Gen, e.TTR.Round(time.Millisecond))
				}
			}
			fmt.Printf("  [event] %s app=%q node=%d %s%s\n", e.Kind, e.App, e.Node, e.Detail, extra)
		}
	}()

	fmt.Println("bringing up 4 task coordinators...")
	tcs, err := coord.Pool(rc, 4, 50*time.Millisecond, 10*time.Second)
	if err != nil {
		log.Fatal(err)
	}

	out := make(chan float64, 1)
	spec := coord.AppSpec{
		Name: "lu",
		Body: k.App(apps.RunConfig{
			Class: apps.ClassS, Iters: iters, CkEvery: ckEvery, Prefix: "lu", OnDone: out,
		}),
		// The policy is what makes recovery autonomous: up to 5 restart
		// attempts, 50ms initial backoff doubling per attempt, pool
		// re-sized to whatever survives.
		Recovery: &coord.RecoveryPolicy{Budget: 5, Backoff: 50 * time.Millisecond},
	}
	fmt.Println("launching LU on processors 0-2 under the recovery supervisor...")
	if err := rc.Launch(spec, 3, false); err != nil {
		log.Fatal(err)
	}

	// Let it commit at least one checkpoint generation, then take two
	// processors down at once.
	for !ckpt.Exists(fs, "lu") {
		time.Sleep(2 * time.Millisecond)
	}
	fmt.Println("processors 1 and 2 fail now.")
	tcs[1].Fail()
	tcs[2].Fail()

	// Nothing to do: the supervisor reconfigures onto the survivors and
	// restarts from the newest verified generation by itself.
	status, err := rc.WaitApp("lu")
	if err != nil || status != coord.StatusFinished {
		log.Fatalf("supervised run: %s, %v", status, err)
	}
	info, _ := rc.App("lu")
	fmt.Printf("final status: %s after %d autonomous restart(s) on %d processors\n",
		status, info.Incarnation, info.Tasks)

	got := <-out
	fmt.Printf("recovered checksum %.12e\n", got)
	if got == want {
		fmt.Println("identical to the uninterrupted run — recovery is exact")
	} else {
		log.Fatal("recovery diverged")
	}
}
