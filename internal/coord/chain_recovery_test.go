package coord

import (
	"testing"

	"drms/internal/ckpt"
	"drms/internal/drms"
	"drms/internal/msg"
	"drms/internal/pfs"
)

// TestChaosSoakChainedDeltasConverge is the delta-chain arm of the chaos
// soak: the supervised application writes chained checkpoints (anchors
// every 3rd generation, flate pieces) while a seeded schedule kills
// ranks at random operation counts — so kills land mid-delta-write as
// well as mid-compute. Every recovery restarts from the newest VERIFIED
// chain state (torn deltas fall back to the last good generation), and
// the run must converge to the bitwise fault-free checksum. The
// surviving rotation must itself be a verifiable chain.
func TestChaosSoakChainedDeltasConverge(t *testing.T) {
	const n, iters, ckEvery, seed = 24, 160, 3, 4321

	ref := &chaosApp{n: n, iters: iters, ckEvery: ckEvery, result: make(chan float64, 1)}
	if err := drms.Run(drms.Config{Tasks: 3, FS: pfs.NewSystem(pfs.Config{Servers: 4, StripeUnit: 256})},
		ref.body); err != nil {
		t.Fatal(err)
	}
	want := <-ref.result

	fs, rc, tcs := newCluster(t, 4)
	// Three seeded kills; the op window starts low so at least one lands
	// inside the frequent checkpoint stream (ckEvery=3, barrier per
	// iteration), i.e. while a delta generation is being written.
	plan := msg.NewChaosPlan(seed, 3, 40, 220)
	ca := &chaosApp{n: n, iters: iters, ckEvery: ckEvery, result: make(chan float64, 1)}
	spec := AppSpec{Name: "soak", Body: ca.body, Stream: ca.stream(),
		Recovery: fastPolicy(50), AnchorEvery: 3, Codec: ckpt.CodecFlate,
		FaultNext: func(incarnation, tasks int) *msg.FaultSpec {
			return plan.Next(tasks)
		}}
	spec.Recovery.Pool = func(available, previous int) int { return available }

	if err := rc.Launch(spec, 4, false); err != nil {
		t.Fatal(err)
	}
	status, err := rc.WaitApp("soak")
	if err != nil {
		t.Fatalf("soak ended with error: %v", err)
	}
	if status != StatusFinished {
		t.Fatalf("soak ended %s, want finished", status)
	}
	if got := <-ca.result; got != want {
		t.Fatalf("chained chaos checksum %v != fault-free %v", got, want)
	}
	if k := plan.Kills(); k != 3 {
		t.Fatalf("seeded plan issued %d kills, want 3", k)
	}
	if !ca.restored.Load() {
		t.Fatal("no incarnation ever restored from a checkpoint")
	}
	if recovered := countEvents(drainEvents(rc), EventAppRecovered); recovered < 3 {
		t.Fatalf("only %d recoveries; the schedule kills 3 times", recovered)
	}

	// The rotation the run leaves behind is a chained state and every
	// surviving generation verifies (back-pointed pieces included).
	_, prefix, ok := ckpt.Rotation{Base: "soak"}.Latest(fs)
	if !ok {
		t.Fatal("no committed generation survived the soak")
	}
	m, err := ckpt.ReadMeta(fs, prefix, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 4 {
		t.Fatalf("latest generation %s is metadata version %d, not the chained format", prefix, m.Version)
	}
	for _, gen := range (ckpt.Rotation{Base: "soak"}).Generations(fs) {
		if err := ckpt.Verify(fs, gen, 0); err != nil {
			t.Fatalf("surviving generation %s fails verification: %v", gen, err)
		}
	}

	for _, tc := range tcs {
		tc.Stop()
	}
}
