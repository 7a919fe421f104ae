package bench

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"drms/internal/ckpt"
	"drms/internal/dist"
	"drms/internal/drms"
	"drms/internal/pfs"
	"drms/internal/rangeset"
	"drms/internal/stream"
)

// The application every arm of TestModeledClaims runs: claimElems float64
// elements beside as many int32 table entries, over claimTasks tasks (an
// in-flight resize alternates between half as many and claimTasks),
// checkpointed claimCkpts times in claimPiece-byte pieces.
const (
	claimElems  = 1 << 14
	claimBytes  = claimElems * (8 + 4)
	claimTasks  = 4
	claimCkpts  = 16
	claimWindow = 512 // elements each task rewrites per iteration
	claimPiece  = 4 << 10
	claimAnchor = 8 // anchor interval of the chained arms
	claimPrefix = "claim"
	claimRounds = 3 // reconfigures per resize arm
)

// claimApp is every arm's application: a block-distributed float64 array
// and an int32 table that no iteration changes. Each of its iters
// iterations (registered, so a restore resumes them) takes one SOP and
// then rewrites one claimWindow-element window of each task's block, a
// different one each time. With resize set, the SOP of iteration i is an
// in-flight resize to claimSize(i) tasks; with gate set, the last
// iteration parks there after its SOP.
type claimApp struct {
	iters  int
	resize bool
	gate   *gate
}

// claimSize is the task count of iteration i of a reconfigured run:
// claimTasks/2 on even iterations, claimTasks on odd ones.
func claimSize(i int) int { return claimTasks / (2 - i%2) }

func (a claimApp) body(t *drms.Task) error {
	d, err := dist.Block(rangeset.NewSlice(rangeset.Span(0, claimElems-1)), []int{t.Tasks()})
	if err != nil {
		return err
	}
	u, err := drms.NewArray[float64](t, "u", d)
	if err != nil {
		return err
	}
	tab, err := drms.NewArray[int32](t, "tab", d)
	if err != nil {
		return err
	}
	iter := 0
	t.Register("iter", &iter)
	u.Fill(func(c []int) float64 { return float64(c[0]%97) * 0.5 })
	tab.Fill(func(c []int) int32 { return int32(c[0] % 251) })
	for ; iter < a.iters; iter++ {
		if a.resize {
			_, _, err = t.ReconfigResize(claimPrefix, claimSize(iter))
		} else {
			_, _, err = t.ReconfigCheckpoint(claimPrefix)
		}
		if err != nil {
			return err
		}
		if a.gate != nil && iter == a.iters-1 {
			if err := a.gate.park(t); err != nil {
				return err
			}
		}
		off, i := iter*claimWindow%(u.Assigned().Size()-claimWindow), 0
		u.Assigned().Each(rangeset.ColMajor, func(c []int) {
			if i >= off && i < off+claimWindow {
				u.Set(c, u.At(c)*0.5+1)
			}
			i++
		})
	}
	return nil
}

// gate holds a run's ranks until it opens, in a collective a revoked
// communicator unwinds, so a rank loss can be injected at a known point.
type gate struct {
	open   atomic.Bool
	parked atomic.Int64 // arrivals, a re-run body's included
}

func (g *gate) park(t *drms.Task) error {
	g.parked.Add(1)
	for {
		v := 0.0
		if g.open.Load() {
			v = 1
		}
		all, err := t.Comm().AllreduceF64(v, math.Min)
		if err != nil || all == 1 {
			return err
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func claimConfig(fs *pfs.System) drms.Config {
	return drms.Config{Tasks: claimTasks, FS: fs, Keep: 2, Codec: ckpt.CodecRaw,
		Stream: stream.Options{PieceBytes: claimPiece}}
}

// An arm runs one side of a claim on a fresh file system. It traces only
// the operations the claim compares, leaving setup and teardown out, and
// returns that trace with the running incarnations those operations
// stopped and relaunched: the model charges each its startup, as Table 5
// charges a restart.
type arm func(fs *pfs.System) (tr *pfs.Trace, relaunched int, err error)

// checkpoints is claimCkpts checkpoints of one run, anchors every
// anchorEvery (1: every checkpoint is a full generation).
func checkpoints(anchorEvery int) arm {
	return func(fs *pfs.System) (*pfs.Trace, int, error) {
		cfg := claimConfig(fs)
		cfg.AnchorEvery = anchorEvery
		tr := fs.StartTrace()
		err := drms.Run(cfg, claimApp{iters: claimCkpts}.body)
		fs.StopTrace()
		return tr, 0, err
	}
}

// restore is a relaunch's restore of the last of claimCkpts chained
// generations, each written through to the pfs and replicated in peer
// memory; hot serves it from that memory, else it reads the pfs.
func restore(hot bool) arm {
	return func(fs *pfs.System) (*pfs.Trace, int, error) {
		cfg := claimConfig(fs)
		cfg.AnchorEvery, cfg.Tier, cfg.Replicas = claimAnchor, ckpt.NewMemTier(), 1
		app := claimApp{iters: claimCkpts}
		if err := drms.Run(cfg, app.body); err != nil {
			return nil, 0, err
		}
		cfg.RestartFrom = claimPrefix
		if !hot {
			cfg.Tier = nil
		}
		tr := fs.StartTrace()
		err := drms.Run(cfg, app.body)
		fs.StopTrace()
		return tr, 0, err
	}
}

// localized loses rank 1 of a run parked after its last checkpoint and
// recovers it in place: the survivors roll back from memory, the
// replacement reads its own share.
func localized(fs *pfs.System) (*pfs.Trace, int, error) {
	cfg := claimConfig(fs)
	cfg.AnchorEvery, cfg.Partial = claimAnchor, true
	g := &gate{}
	h, err := drms.Start(cfg, claimApp{iters: claimCkpts, gate: g}.body)
	if err != nil {
		return nil, 0, err
	}
	for deadline := time.Now().Add(30 * time.Second); g.parked.Load() < claimTasks; {
		if time.Now().After(deadline) {
			h.Kill()
			return nil, 0, fmt.Errorf("the run never parked at its gate")
		}
		time.Sleep(100 * time.Microsecond)
	}
	gen, _ := h.CommittedGen()
	tr := fs.StartTrace()
	_, err = h.PartialRecover(drms.PartialRecoverSpec{Dead: []int{1}, From: fmt.Sprintf("%s.g%d", claimPrefix, gen)})
	fs.StopTrace()
	if err != nil {
		h.Kill()
	}
	g.open.Store(true)
	if werr := h.Wait(); err == nil {
		err = werr
	}
	return tr, 0, err
}

// inFlight relaunches a run from its seed generation on the memory tier
// and resizes it claimRounds times in flight: each resize generation
// lives in peer memory, and the same incarnation redistributes it.
func inFlight(fs *pfs.System) (*pfs.Trace, int, error) {
	cfg := claimConfig(fs)
	cfg.Tasks, cfg.Tier, cfg.Replicas = claimSize(0), ckpt.NewMemTier(), 1
	if err := drms.Run(cfg, claimApp{iters: 1}.body); err != nil {
		return nil, 0, err
	}
	cfg.RestartFrom = claimPrefix
	tr := fs.StartTrace()
	err := drms.Run(cfg, claimApp{iters: claimRounds + 1, resize: true}.body)
	fs.StopTrace()
	return tr, 0, err
}

// classic reconfigures a run claimRounds times the paper's way: each
// round relaunches at the next task count, restores from the pfs and
// writes the checkpoint the next round restores.
func classic(fs *pfs.System) (*pfs.Trace, int, error) {
	cfg := claimConfig(fs)
	cfg.Tasks = claimSize(0)
	if err := drms.Run(cfg, claimApp{iters: 1}.body); err != nil {
		return nil, 0, err
	}
	cfg.RestartFrom = claimPrefix
	tr := fs.StartTrace()
	defer fs.StopTrace()
	for r := 1; r <= claimRounds; r++ {
		cfg.Tasks = claimSize(r)
		if err := drms.Run(cfg, claimApp{iters: r + 1}.body); err != nil {
			return nil, 0, err
		}
	}
	return tr, claimRounds, nil
}

// modeled runs a on the paper's platform and returns its modeled
// milliseconds on claimTasks nodes of the 1997 SP and the bytes it wrote.
func modeled(t *testing.T, a arm) (ms float64, written int64) {
	t.Helper()
	p := SPPlatform()
	tr, relaunched, err := a(pfs.NewSystem(p.FSCfg))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.replay(tr, claimTasks, claimBytes/claimTasks)
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range res.Phases {
		written += ph.WriteBytes
	}
	return 1000 * (res.Total() + float64(relaunched)*p.Model.StartupSeconds), written
}

// TestModeledClaims holds the repository's own modeled claims — what
// chained deltas, the memory tier, localized recovery and the in-flight
// resize each save over the path they replace — by Tables 5/6's method:
// both arms run the real code and their I/O traces are replayed through
// the 1997 SP model, so every figure is deterministic. Each floor is
// about half the ratio its row measures at this size (in the comments);
// benchmark/ measures the same mechanisms in wall time.
func TestModeledClaims(t *testing.T) {
	for _, c := range []struct {
		name       string
		slow, fast arm
		msFloor    float64 // slow arm's modeled ms over the fast arm's
		bytesFloor float64 // slow arm's bytes written over the fast arm's; 0: not compared
	}{
		// 4.7x and 4.6x: a floor of 2.3x is a drop of 57 % in each.
		{"delta vs full checkpoint", checkpoints(1), checkpoints(claimAnchor), 2.3, 2.3},
		{"hot-tier vs pfs restore", restore(false), restore(true), 11, 0},     // 22.7x
		{"localized vs full recovery", restore(false), localized, 1.2, 0},     // 2.4x
		{"in-flight resize vs classic reconfigure", classic, inFlight, 16, 0}, // 32.8x
	} {
		t.Run(c.name, func(t *testing.T) {
			slowMs, slowBytes := modeled(t, c.slow)
			fastMs, fastBytes := modeled(t, c.fast)
			check := func(what string, slow, fast, floor float64) {
				t.Logf("%s %.1f -> %.1f: %.1fx", what, slow, fast, slow/fast)
				if slow < floor*fast {
					t.Errorf("%s %.1f -> %.1f: %.1fx, want >= %.1fx", what, slow, fast, slow/fast, floor)
				}
			}
			check("modeled ms", slowMs, fastMs, c.msFloor)
			if c.bytesFloor > 0 {
				check("bytes written", float64(slowBytes), float64(fastBytes), c.bytesFloor)
			}
		})
	}
}
