package bench

import (
	"fmt"
	"strings"

	"drms/internal/apps"
	"drms/internal/ckpt"
	"drms/internal/drms"
	"drms/internal/pfs"
	"drms/internal/stream"
)

// Ablations probe the two tunables §3.2 of the paper discusses when
// choosing m, the number of streamed pieces:
//
//   - piece size: "a larger m results in smaller array sections which
//     create less memory pressure for intermediate streaming buffers. On
//     the other hand, an m that is too large will create too many small
//     array sections, resulting in more overhead. In our implementation,
//     we choose m so that each [piece] requires approximately 1 MB."
//   - writer count P: "we always set m at least equal to the number of
//     tasks, in order to exploit parallelism", with P=1 the serial
//     streaming special case that needs no seek capability.

// AblationPoint is one configuration's modeled cost.
type AblationPoint struct {
	Label      string
	CkSeconds  float64
	RsSeconds  float64
	ArrSeconds float64
	Ops        int
	NetBytes   int64
}

// PieceSizeSweep measures the DRMS checkpoint of one kernel across piece
// sizes, holding everything else at the paper's platform.
func PieceSizeSweep(k *apps.Kernel, class apps.Class, pes int, sizes []int) ([]AblationPoint, error) {
	var out []AblationPoint
	for _, sz := range sizes {
		p := SPPlatform()
		p.Stream = stream.Options{PieceBytes: sz}
		t, err := MeasureTiming(k, class, pes, ckpt.ModeDRMS, p)
		if err != nil {
			return nil, err
		}
		ops := 0
		for _, ph := range t.Checkpoint.Phases {
			ops += ph.Ops
		}
		out = append(out, AblationPoint{
			Label:      fmt.Sprintf("%dKiB", sz>>10),
			CkSeconds:  t.CkSeconds,
			RsSeconds:  t.RsSeconds,
			ArrSeconds: t.CkArrSeconds,
			Ops:        ops,
			NetBytes:   netBytes(t),
		})
	}
	return out, nil
}

// WritersSweep measures the DRMS checkpoint across writer counts P,
// P=1 being serial streaming.
func WritersSweep(k *apps.Kernel, class apps.Class, pes int, writers []int) ([]AblationPoint, error) {
	var out []AblationPoint
	for _, w := range writers {
		p := SPPlatform()
		p.Stream = stream.Options{Writers: w}
		t, err := MeasureTiming(k, class, pes, ckpt.ModeDRMS, p)
		if err != nil {
			return nil, err
		}
		ops := 0
		for _, ph := range t.Checkpoint.Phases {
			ops += ph.Ops
		}
		out = append(out, AblationPoint{
			Label:      fmt.Sprintf("P=%d", w),
			CkSeconds:  t.CkSeconds,
			RsSeconds:  t.RsSeconds,
			ArrSeconds: t.CkArrSeconds,
			Ops:        ops,
			NetBytes:   netBytes(t),
		})
	}
	return out, nil
}

// AblationKernel is the default subject of the sweeps (BT: largest array
// state, so streaming choices matter most).
func AblationKernel() *apps.Kernel { return apps.BT() }

func netBytes(t Timing) int64 {
	var n int64
	for _, ph := range t.Checkpoint.Phases {
		n += ph.NetBytes
	}
	return n
}

// RenderAblation formats a sweep.
func RenderAblation(title string, pts []AblationPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: %s\n", title)
	fmt.Fprintf(&b, "%-10s %12s %12s %12s %8s %10s\n",
		"config", "checkpoint s", "restart s", "arrays s", "ops", "net MB")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-10s %12.1f %12.1f %12.1f %8d %10.1f\n",
			p.Label, p.CkSeconds, p.RsSeconds, p.ArrSeconds, p.Ops, MB(p.NetBytes))
	}
	return b.String()
}

// IncrementalResult compares a full checkpoint (a chained anchor)
// against the delta generation taken one iteration later (§6's
// incremental-checkpointing optimization). Work arrays the iteration
// does not touch (forcing, lhs) are carried forward by back-pointer
// wholesale; the solution and right-hand side are rewritten.
type IncrementalResult struct {
	// Full and Incremental are modeled checkpoint seconds.
	Full        float64
	Incremental float64
	// WrittenBytes/SkippedBytes of the delta's array phase.
	WrittenBytes int64
	SkippedBytes int64
}

// IncrementalComparison measures one kernel at the given class/partition.
func IncrementalComparison(k *apps.Kernel, class apps.Class, pes int, p Platform) (IncrementalResult, error) {
	var res IncrementalResult
	fs := pfs.NewSystem(p.FSCfg)
	model, err := k.SegmentModel(class)
	if err != nil {
		return res, err
	}

	var tr1, tr2 *pfs.Trace
	body := func(t *drms.Task) error {
		in, err := k.Setup(t, class)
		if err != nil {
			return err
		}
		t.Comm().Barrier()
		if t.Rank() == 0 {
			tr1 = fs.StartTrace()
		}
		t.Comm().Barrier()
		if _, _, err := t.ReconfigCheckpoint("ck"); err != nil {
			return err
		}
		t.Comm().Barrier()
		if t.Rank() == 0 {
			fs.StopTrace()
		}
		if err := k.Step(in); err != nil {
			return err
		}
		t.Comm().Barrier()
		if t.Rank() == 0 {
			tr2 = fs.StartTrace()
		}
		t.Comm().Barrier()
		if _, _, err := t.ReconfigCheckpoint("ck"); err != nil {
			return err
		}
		t.Comm().Barrier()
		if t.Rank() == 0 {
			fs.StopTrace()
		}
		return nil
	}
	// Raw pieces: the comparison isolates what the delta elides from
	// what a codec would save on top.
	cfg := drms.Config{Tasks: pes, FS: fs, Stream: p.Stream, AnchorEvery: 2, Codec: ckpt.CodecRaw}
	if err := drms.Run(cfg, body); err != nil {
		return res, err
	}

	full, err := p.replay(tr1, pes, model.Total())
	if err != nil {
		return res, err
	}
	incr, err := p.replay(tr2, pes, model.Total())
	if err != nil {
		return res, err
	}
	res.Full = full.Total()
	res.Incremental = incr.Total()
	for _, ph := range incr.Phases {
		if isArr(ph.Name) {
			res.WrittenBytes += ph.WriteBytes
		}
	}
	arrTotal, err := k.ArrayBytes(class)
	if err != nil {
		return res, err
	}
	res.SkippedBytes = arrTotal - res.WrittenBytes
	return res, nil
}
