package drms

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"drms/internal/ckpt"
	"drms/internal/codec"
	"drms/internal/dist"
	"drms/internal/msg"
	"drms/internal/pfs"
	"drms/internal/rangeset"
)

// chainApp is the sparse-update workload at the run-time-system level: a
// static lookup table (never touched after the prologue, so delta
// generations carry its pieces forward by back-pointer) plus an
// element-wise iterate that changes every step. The update is
// element-wise with a fixed operand order, so the checksum is bitwise
// independent of pool size and checkpoint scheme.
func chainApp(n, iters, ckEvery int, prefix string, out chan<- float64) func(*Task) error {
	return func(t *Task) error {
		g := rangeset.Box([]int{0, 0}, []int{n - 1, n - 1})
		grid := dist.FactorGrid(t.Tasks(), 2, g.Shape())
		d, err := dist.Block(g, grid)
		if err != nil {
			return err
		}
		u, err := NewArray[float64](t, "u", d)
		if err != nil {
			return err
		}
		tab, err := NewArray[int32](t, "tab", d)
		if err != nil {
			return err
		}
		iter := 0
		t.Register("iter", &iter)
		u.Fill(func(c []int) float64 { return float64(c[0]*n+c[1]) * 0.001 })
		tab.Fill(func(c []int) int32 { return int32(c[0]*n + c[1]) })

		for {
			if iter%ckEvery == 0 {
				if _, _, err := t.ReconfigCheckpoint(prefix); err != nil {
					return err
				}
			}
			if iter >= iters {
				break
			}
			u.Assigned().Each(rangeset.ColMajor, func(c []int) {
				u.Set(c, u.At(c)*0.5+float64(tab.At(c))*0.01)
			})
			iter++
		}
		sum, err := u.Checksum()
		if err != nil {
			return err
		}
		if t.Rank() == 0 {
			out <- sum
		}
		return nil
	}
}

func TestChainedConfigLifecycleAndRestart(t *testing.T) {
	const n, iters, ckEvery = 12, 8, 2

	// Fault-free reference with the classic scheme.
	ref := make(chan float64, 1)
	if err := Run(Config{Tasks: 3, FS: testFS()}, chainApp(n, iters, ckEvery, "ck", ref)); err != nil {
		t.Fatal(err)
	}
	want := <-ref

	// Chained run: checkpoints at iterations 0,2,4,6,8 land in g0..g4
	// with anchors every 3rd generation (chain lengths 0,1,2,0,1).
	fs := testFS()
	out := make(chan float64, 1)
	err := Run(Config{Tasks: 4, FS: fs, Keep: 2, AnchorEvery: 3, Codec: ckpt.CodecFlate},
		chainApp(n, iters, ckEvery, "ck", out))
	if err != nil {
		t.Fatal(err)
	}
	if got := <-out; got != want {
		t.Fatalf("chained-run checksum %v != classic %v", got, want)
	}

	// Chain-aware pruning kept exactly the tail of the chain: the g3
	// anchor and the g4 delta depending on it.
	rot := ckpt.Rotation{Base: "ck", Keep: 2}
	gens := rot.Generations(fs)
	if len(gens) != 2 || gens[0] != "ck.g3" || gens[1] != "ck.g4" {
		t.Fatalf("generations = %v, want [ck.g3 ck.g4]", gens)
	}
	m, err := ckpt.ReadMeta(fs, "ck.g4", 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.ChainLen != 1 || len(m.Deps) != 1 || m.Deps[0] != 3 {
		t.Fatalf("newest meta: len %d deps %v", m.ChainLen, m.Deps)
	}
	if err := ckpt.Verify(fs, "ck.g4", 0); err != nil {
		t.Fatal(err)
	}

	// Reconfigured restart from the delta generation on a smaller pool.
	out2 := make(chan float64, 1)
	err = Run(Config{Tasks: 2, FS: fs, RestartFrom: "ck", Verify: true},
		chainApp(n, iters, ckEvery, "ck", out2))
	if err != nil {
		t.Fatal(err)
	}
	if got := <-out2; got != want {
		t.Fatalf("restored checksum %v != classic %v", got, want)
	}
}

// assertOneFormat checks every committed generation under base: metadata
// version 3 whatever the configuration that wrote it, with contribution
// fingerprints exactly when that configuration can take a delta.
func assertOneFormat(t *testing.T, fs *pfs.System, base string, fingerprints bool) []ckpt.Meta {
	t.Helper()
	var metas []ckpt.Meta
	for _, g := range (ckpt.Rotation{Base: base}).Generations(fs) {
		m, err := ckpt.ReadMeta(fs, g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if m.Version != 3 || len(m.PieceLocs) != len(m.Arrays) {
			t.Fatalf("%s: metadata version %d, %d location lists for %d arrays", g, m.Version, len(m.PieceLocs), len(m.Arrays))
		}
		if (len(m.Sections) > 0) != fingerprints {
			t.Fatalf("%s: %d fingerprint lists, want fingerprints=%v", g, len(m.Sections), fingerprints)
		}
		metas = append(metas, m)
	}
	if len(metas) == 0 {
		t.Fatalf("no committed generation under %q", base)
	}
	return metas
}

// TestEveryConfigurationWritesOneFormat: the configuration chooses codec,
// chain and tier — never the format. The default one stores the paper's
// raw stream, as standalone anchors.
func TestEveryConfigurationWritesOneFormat(t *testing.T) {
	const n, iters, ckEvery = 12, 6, 2
	for name, cfg := range map[string]Config{
		"default":            {},
		"flate-chain":        {AnchorEvery: 3, Codec: ckpt.CodecFlate},
		"auto-chain":         {AnchorEvery: 3},
		"tier-write-through": {Tier: ckpt.NewMemTier(), Replicas: 1, Codec: ckpt.CodecRaw},
		"tier-diskless":      {Tier: ckpt.NewMemTier(), Replicas: 1, DemoteEvery: 2, Codec: ckpt.CodecRaw},
	} {
		t.Run(name, func(t *testing.T) {
			cfg.Tasks, cfg.FS, cfg.Keep = 3, testFS(), 8
			out := make(chan float64, 1)
			if err := Run(cfg, chainApp(n, iters, ckEvery, "ck", out)); err != nil {
				t.Fatal(err)
			}
			<-out
			metas := assertOneFormat(t, cfg.FS, "ck", cfg.AnchorEvery > 1)
			diskless := 0
			for _, m := range metas {
				if m.SegWhere == ckpt.TierMem {
					diskless++
				}
				for _, locs := range m.PieceLocs {
					for _, l := range locs {
						if name == "default" && (codec.ID(l.Codec) != codec.Raw || len(m.Deps) != 0) {
							t.Fatalf("default configuration stored %+v (deps %v), want raw anchors", l, m.Deps)
						}
					}
				}
			}
			if (diskless > 0) != (cfg.DemoteEvery > 1) {
				t.Fatalf("%d diskless generations of %d", diskless, len(metas))
			}
		})
	}
}

// TestChainStartsOnAStandaloneAnchor: a rotation the default
// configuration began — anchors without fingerprints — is continued by a
// run with an anchor interval. Its first generation has no base to diff
// against and is an anchor; deltas follow; the interval is kept.
func TestChainStartsOnAStandaloneAnchor(t *testing.T) {
	const n = 12
	fs := testFS()
	out := make(chan float64, 2)
	if err := Run(Config{Tasks: 2, FS: fs, Keep: 8}, chainApp(n, 0, 1, "mix", out)); err != nil {
		t.Fatal(err)
	}
	if err := Run(Config{Tasks: 2, FS: fs, Keep: 8, AnchorEvery: 4, Codec: ckpt.CodecRaw},
		chainApp(n, 4, 1, "mix", out)); err != nil {
		t.Fatal(err)
	}
	<-out
	want := <-out
	var lens []int
	for i, g := range (ckpt.Rotation{Base: "mix"}).Generations(fs) {
		m, err := ckpt.ReadMeta(fs, g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := ckpt.Verify(fs, g, 0); err != nil {
			t.Fatal(err)
		}
		if (len(m.Sections) > 0) != (i > 0) || (len(m.Deps) > 0) != (m.ChainLen > 0) {
			t.Fatalf("%s: %d fingerprint lists, len %d deps %v", g, len(m.Sections), m.ChainLen, m.Deps)
		}
		lens = append(lens, m.ChainLen)
	}
	if fmt.Sprint(lens) != "[0 0 1 2 3 0]" {
		t.Fatalf("chain lengths %v, want the standalone g0, then an anchor, three deltas, an anchor", lens)
	}
	restored := make(chan float64, 1)
	if err := Run(Config{Tasks: 3, FS: fs, RestartFrom: "mix.g4", Verify: true},
		chainApp(n, 4, 1, "other", restored)); err != nil {
		t.Fatal(err)
	}
	if got := <-restored; got != want {
		t.Fatalf("restart from the delta mix.g4: checksum %v != %v", got, want)
	}
}

func TestChainedRunExtendsExistingChain(t *testing.T) {
	// A chained generation is never refreshed in place (other generations
	// back-point into its piece files): a later run checkpointing under
	// the same prefix appends a delta generation to the chain it finds.
	const n = 12
	fs := testFS()
	out := make(chan float64, 1)
	err := Run(Config{Tasks: 2, FS: fs, Keep: 3, AnchorEvery: 8, Codec: ckpt.CodecRaw},
		func(t *Task) error {
			app := chainApp(n, 2, 1, "inc", out)
			return app(t)
		})
	if err != nil {
		t.Fatal(err)
	}
	<-out
	before := ckpt.Rotation{Base: "inc"}.Generations(fs)

	err = Run(Config{Tasks: 2, FS: fs, Keep: 3, AnchorEvery: 8, Codec: ckpt.CodecRaw},
		func(t *Task) error {
			if _, err := NewArray[float64](t, "u", mustDist(t, n)); err != nil {
				return err
			}
			if _, err := NewArray[int32](t, "tab", mustDist(t, n)); err != nil {
				return err
			}
			iter := 0
			t.Register("iter", &iter)
			_, _, err := t.ReconfigCheckpoint("inc")
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	after := ckpt.Rotation{Base: "inc"}.Generations(fs)
	if len(after) != len(before)+1 {
		t.Fatalf("checkpoint on an existing chain: generations %v -> %v, want one appended", before, after)
	}
	m, err := ckpt.ReadMeta(fs, after[len(after)-1], 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.ChainLen == 0 {
		t.Fatalf("appended generation: len %d, want a delta of the existing chain", m.ChainLen)
	}
	if err := ckpt.Verify(fs, after[len(after)-1], 0); err != nil {
		t.Fatal(err)
	}
}

func mustDist(t *Task, n int) *dist.Distribution {
	g := rangeset.Box([]int{0, 0}, []int{n - 1, n - 1})
	d, err := dist.Block(g, dist.FactorGrid(t.Tasks(), 2, g.Shape()))
	if err != nil {
		panic(err)
	}
	return d
}

// TestChainedFaultMidDeltaFallsBack replays the paper's failure scenario
// against a delta generation: a rank dies while the g1 delta is being
// written. The torn delta must never be promoted, CleanIncomplete must
// remove its partial piece files, and a reconfigured restart must land
// on the g0 anchor and converge to the fault-free checksum.
func TestChainedFaultMidDeltaFallsBack(t *testing.T) {
	const n, iters, tasks, victim = 12, 8, 4, 2
	want := runToCompletion(t, tasks, n, iters)

	fs := testFS()
	rot := ckpt.Rotation{Base: "rot"}
	rec := &sopRecord{statuses: map[int]Status{}, errs: map[int]error{}}
	var arm atomic.Bool
	ready := make(chan struct{})

	cfg := Config{Tasks: tasks, FS: fs, Keep: 2, AnchorEvery: 4, Codec: ckpt.CodecFlate,
		Fault: &msg.FaultSpec{Victim: victim}}
	var ft atomic.Pointer[msg.FaultTransport]
	cfg.Stream.PieceHook = func(int, int64, []byte) {
		if arm.Load() {
			ft.Load().Arm()
		}
	}
	h, err := Start(cfg, rotationApp(n, iters, "rot", ready, &arm, rec, nil))
	if err != nil {
		t.Fatal(err)
	}
	ft.Store(h.Fault())
	close(ready)

	select {
	case <-h.Done():
	case <-time.After(15 * time.Second):
		t.Fatal("application hung after mid-delta failure")
	}
	if waitErr := h.Wait(); !errors.Is(waitErr, msg.ErrKilled) {
		t.Fatalf("run error = %v, want the injected kill as root cause", waitErr)
	}

	// The torn delta never committed; the anchor is still the restart
	// point, and it is a chained-format checkpoint.
	if ckpt.Exists(fs, "rot.g1") {
		t.Fatal("interrupted delta committed a meta file")
	}
	if _, prefix, ok := rot.Latest(fs); !ok || prefix != "rot.g0" {
		t.Fatalf("latest generation = %q, want rot.g0", prefix)
	}
	m, err := ckpt.ReadMeta(fs, "rot.g0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.ChainLen != 0 {
		t.Fatalf("anchor meta: len %d", m.ChainLen)
	}
	cleaned := rot.CleanIncomplete(fs)
	if len(cleaned) != 1 || cleaned[0] != "rot.g1" {
		t.Fatalf("CleanIncomplete removed %v, want [rot.g1]", cleaned)
	}
	if len(fs.List("rot.g1.")) != 0 {
		t.Fatal("torn delta piece files survived CleanIncomplete")
	}
	if err := ckpt.Verify(fs, "rot.g0", 0); err != nil {
		t.Fatalf("surviving anchor fails verification: %v", err)
	}

	// Reconfigured restart on a smaller pool from the anchor; bitwise
	// convergence with the uninterrupted run.
	out := make(chan float64, 1)
	err = Run(Config{Tasks: tasks - 1, FS: fs, RestartFrom: "rot", Verify: true,
		Keep: 2, AnchorEvery: 4, Codec: ckpt.CodecFlate},
		rotationApp(n, iters, "rot", nil, nil, nil, out))
	if err != nil {
		t.Fatal(err)
	}
	if got := <-out; got != want {
		t.Fatalf("post-recovery checksum %v != clean run %v", got, want)
	}
}
