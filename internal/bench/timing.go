// Package bench regenerates every table and figure of the paper's
// evaluation (§5-6). Sizes (Tables 1, 3, 4 and the §6 ratio model) are
// measured directly from this repository's functional code. Timings
// (Tables 5, 6 and Figure 7) come from running the *real* checkpoint and
// restart code against the striped file system, recording the I/O trace,
// and replaying it through the calibrated platform model of internal/sim
// — reproducing the shape of the 1997 measurements deterministically.
package bench

import (
	"fmt"
	"strings"

	"drms/internal/apps"
	"drms/internal/ckpt"
	"drms/internal/drms"
	"drms/internal/pfs"
	"drms/internal/sim"
	"drms/internal/stream"
)

// Platform fixes the measured configuration: the paper's 16-node SP with
// PIOFS striped over all nodes at 64 KiB units.
type Platform struct {
	Nodes  int
	FSCfg  pfs.Config
	Model  sim.Model
	Stream stream.Options // streaming tuning (piece size, writer count)
}

// SPPlatform returns the paper's platform.
func SPPlatform() Platform {
	return Platform{
		Nodes: 16,
		FSCfg: pfs.Config{Servers: 16, StripeUnit: 64 << 10},
		Model: sim.Calibrated1997(),
	}
}

// replay models trace tr on pes tasks of p, each holding resident bytes
// of state.
func (p Platform) replay(tr *pfs.Trace, pes int, resident int64) (sim.Result, error) {
	r := make([]int64, pes)
	for i := range r {
		r[i] = resident
	}
	return p.Model.Replay(tr, p.FSCfg, sim.SPCluster(p.Nodes, pes), r)
}

// Timing is the modeled checkpoint and restart cost of one (application,
// scheme, partition size) cell of Tables 5/6.
type Timing struct {
	App  string
	PEs  int
	Mode ckpt.Mode

	Checkpoint sim.Result
	Restart    sim.Result

	// CkSeconds/RsSeconds are the table cells; RsSeconds includes the
	// restart startup ("other") component.
	CkSeconds, RsSeconds float64

	// Component breakdown (Table 6 / Figure 7). Bytes are the I/O volumes
	// the components moved (restart segment bytes count every task's read
	// of the shared file, as the paper's rates do).
	CkSegSeconds, CkArrSeconds float64
	CkSegBytes, CkArrBytes     int64
	RsSegSeconds, RsArrSeconds float64
	RsSegBytes, RsArrBytes     int64
	RsOtherSeconds             float64
	StateBytes                 int64
}

// segPhase and arrPhases classify trace phases.
func isSeg(name string) bool { return name == "segment" }
func isArr(name string) bool { return strings.HasPrefix(name, "arrays:") }

// MeasureTiming runs the real checkpoint and restart of a kernel at the
// given class on pes tasks under the given scheme, and replays the traces
// through the platform model.
func MeasureTiming(k *apps.Kernel, class apps.Class, pes int, mode ckpt.Mode, p Platform) (Timing, error) {
	t := Timing{App: k.Name, PEs: pes, Mode: mode}
	fs := pfs.NewSystem(p.FSCfg)

	model, err := k.SegmentModel(class)
	if err != nil {
		return t, err
	}

	cfg := drms.Config{Tasks: pes, FS: fs, SPMDMode: mode == ckpt.ModeSPMD, Stream: p.Stream}
	app := k.App(apps.RunConfig{Class: class, Iters: 0, CkEvery: 1, Prefix: "ck"})

	// Checkpoint: run the application to its SOP and let it write state.
	ckTrace := fs.StartTrace()
	if err := drms.Run(cfg, app); err != nil {
		return t, fmt.Errorf("bench: %s checkpoint run: %w", k.Name, err)
	}
	fs.StopTrace()
	t.StateBytes = ckpt.StateBytes(fs, "ck")

	ckRes, err := p.replay(ckTrace, pes, model.Total())
	if err != nil {
		return t, err
	}
	t.Checkpoint = ckRes

	// Restart: relaunch from the archived state.
	cfg.RestartFrom = "ck"
	rsTrace := fs.StartTrace()
	if err := drms.Run(cfg, app); err != nil {
		return t, fmt.Errorf("bench: %s restart run: %w", k.Name, err)
	}
	fs.StopTrace()

	rsRes, err := p.replay(rsTrace, pes, model.Total())
	if err != nil {
		return t, err
	}
	t.Restart = rsRes

	// Fold phases into the table components.
	for _, ph := range ckRes.Phases {
		switch {
		case isSeg(ph.Name):
			t.CkSegSeconds += ph.Seconds
			t.CkSegBytes += ph.ReadBytes + ph.WriteBytes
		case isArr(ph.Name):
			t.CkArrSeconds += ph.Seconds
			t.CkArrBytes += ph.ReadBytes + ph.WriteBytes
		}
	}
	for _, ph := range rsRes.Phases {
		switch {
		case isSeg(ph.Name):
			t.RsSegSeconds += ph.Seconds
			t.RsSegBytes += ph.ReadBytes + ph.WriteBytes
		case isArr(ph.Name):
			t.RsArrSeconds += ph.Seconds
			t.RsArrBytes += ph.ReadBytes + ph.WriteBytes
		}
	}
	t.CkSeconds = ckRes.Total()
	t.RsOtherSeconds = p.Model.StartupSeconds
	t.RsSeconds = rsRes.Total() + t.RsOtherSeconds
	return t, nil
}

// MB renders bytes in the paper's 2^20 unit.
func MB(b int64) float64 { return float64(b) / (1 << 20) }

// rate returns MB/s, guarding division by zero.
func rate(bytes int64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return MB(bytes) / seconds
}
