// Package apps provides the three application benchmarks of the paper's
// evaluation — BT, LU and SP from the NAS Parallel Benchmarks — as
// DRMS-conforming SPMD kernels, plus the framework they share.
//
// The kernels are faithful to the originals in everything checkpointing
// sees and simplified in everything it does not:
//
//   - Data layout matches Tables 3 and 4: each kernel declares the grid
//     arrays of its namesake (5-component solution, right-hand side,
//     forcing, work arrays) over an N^3 class grid, with shadow regions
//     of width 2 on the solution-adjacent arrays, work arrays declared
//     distributed in BT and SP but kept private in LU (the asymmetry the
//     paper highlights), and per-application private/replicated byte
//     counts taken from Table 4.
//   - Iteration structure matches: a time-step loop around directional
//     stencil updates with shadow (halo) exchanges, checkpointing at the
//     loop-top SOP exactly as in the Figure 1 skeleton.
//   - The PDE arithmetic itself is simplified to explicit element-wise
//     stencils with a fixed operand order, making results bitwise
//     independent of the task count and distribution — which is what
//     lets the tests verify reconfigured restarts exactly.
package apps

import (
	"fmt"
	"math"

	"drms/internal/array"
	"drms/internal/dist"
	"drms/internal/drms"
	"drms/internal/rangeset"
	"drms/internal/seg"
	"drms/internal/xsum"
)

// Class selects the NPB problem size.
type Class byte

const (
	ClassS Class = 'S' // 12^3 — unit tests
	ClassW Class = 'W' // 24^3 — integration tests
	ClassA Class = 'A' // 64^3 — the paper's measurements
	ClassB Class = 'B' // 102^3
)

// GridSize returns N for an N^3 class grid (NPB 2.3 sizes).
func GridSize(c Class) (int, error) {
	switch c {
	case ClassS:
		return 12, nil
	case ClassW:
		return 24, nil
	case ClassA:
		return 64, nil
	case ClassB:
		return 102, nil
	}
	return 0, fmt.Errorf("apps: unknown class %q", string(c))
}

// ShadowWidth is the ghost-region width grid codes keep around their
// local sections; the paper's §6 analysis uses β=2.
const ShadowWidth = 2

// ArrayDecl declares one distributed array of a kernel: its name, the
// number of solution components (the leading, undistributed axis), and
// whether it carries shadow regions on the distributed axes.
type ArrayDecl struct {
	Name   string
	Comps  int
	Shadow bool
}

// Kernel is one of the three application benchmarks.
type Kernel struct {
	// Name is "bt", "lu" or "sp".
	Name string
	// Decls lists the kernel's distributed arrays. The first entry is the
	// solution array u.
	Decls []ArrayDecl
	// PrivateClassA is the private/replicated data-segment bytes at class
	// A (Table 4); other classes scale with grid volume.
	PrivateClassA int64
	// Step advances the solution one iteration.
	Step func(inst *Instance) error
}

// ByName returns the named kernel.
func ByName(name string) (*Kernel, error) {
	switch name {
	case "bt":
		return BT(), nil
	case "lu":
		return LU(), nil
	case "sp":
		return SP(), nil
	}
	return nil, fmt.Errorf("apps: unknown kernel %q", name)
}

// Kernels returns all three benchmarks in the paper's order.
func Kernels() []*Kernel { return []*Kernel{BT(), LU(), SP()} }

// TotalComps returns the total component count across the kernel's
// arrays; the global array bytes of Table 3 are TotalComps * N^3 * 8.
func (k *Kernel) TotalComps() int {
	n := 0
	for _, d := range k.Decls {
		n += d.Comps
	}
	return n
}

// ArrayBytes returns the kernel's total distributed-array bytes at the
// given class — the "array" column of Table 3.
func (k *Kernel) ArrayBytes(c Class) (int64, error) {
	n, err := GridSize(c)
	if err != nil {
		return 0, err
	}
	return int64(k.TotalComps()) * int64(n) * int64(n) * int64(n) * 8, nil
}

// PrivateBytes returns the private/replicated segment bytes at the given
// class, scaled from the Table 4 class A measurement by grid volume.
func (k *Kernel) PrivateBytes(c Class) (int64, error) {
	n, err := GridSize(c)
	if err != nil {
		return 0, err
	}
	vol := float64(n*n*n) / float64(64*64*64)
	return int64(float64(k.PrivateClassA) * vol), nil
}

// Instance is one task's instantiation of a kernel: the declared arrays
// under the current distribution plus the iteration state.
type Instance struct {
	K      *Kernel
	Class  Class
	N      int
	Task   *drms.Task
	Arrays map[string]*array.Array[float64]
	Iter   int
	// dt is the (replicated) time-step control variable of the SOQ
	// control section.
	Dt float64
}

// A returns the named array handle.
func (in *Instance) A(name string) *array.Array[float64] { return in.Arrays[name] }

// U returns the solution array.
func (in *Instance) U() *array.Array[float64] { return in.Arrays[in.K.Decls[0].Name] }

// GlobalSpace returns the kernel's rank-4 index space (comp, x, y, z).
func GlobalSpace(comps, n int) rangeset.Slice {
	return rangeset.NewSlice(
		rangeset.Span(0, comps-1),
		rangeset.Span(0, n-1),
		rangeset.Span(0, n-1),
		rangeset.Span(0, n-1),
	)
}

// Decompose builds the kernel's distribution of a comps × N^3 array over
// the given task count: the component axis stays whole, the spatial axes
// split over a balanced 3-D task grid, with shadows on request.
func Decompose(comps, n, tasks int, shadow bool) (*dist.Distribution, error) {
	spatial := dist.FactorGrid(tasks, 3, []int{n, n, n})
	grid := append([]int{1}, spatial...)
	d, err := dist.Block(GlobalSpace(comps, n), grid)
	if err != nil {
		return nil, err
	}
	if !shadow {
		return d, nil
	}
	w := []int{0, 0, 0, 0}
	for ax := 1; ax <= 3; ax++ {
		if grid[ax] > 1 {
			w[ax] = ShadowWidth
		}
	}
	return d.WithShadow(w)
}

// MinPartition is the smallest processor count the paper's codes were
// compiled for; Fortran storage is fixed at this partition's sizes and
// "does not decrease as the number of tasks increases" (§5), which is why
// per-task SPMD segments stay constant across partition sizes.
const MinPartition = 4

// SegmentModel returns the kernel's Table 4 data-segment decomposition at
// the given class: local-section storage at the minimum partition
// (including shadows), the constant system buffers, and the private data.
func (k *Kernel) SegmentModel(class Class) (seg.SizeModel, error) {
	n, err := GridSize(class)
	if err != nil {
		return seg.SizeModel{}, err
	}
	var local int64
	for _, decl := range k.Decls {
		d, err := Decompose(decl.Comps, n, MinPartition, decl.Shadow)
		if err != nil {
			return seg.SizeModel{}, err
		}
		local += int64(d.Mapped(0).Size()) * 8
	}
	priv, err := k.PrivateBytes(class)
	if err != nil {
		return seg.SizeModel{}, err
	}
	return seg.SizeModel{
		LocalSectionBytes: local,
		SystemBytes:       seg.PaperSystemBytes,
		PrivateBytes:      priv,
	}, nil
}

// Setup instantiates the kernel on a task: declares every array under the
// task's current count, registers the replicated iteration state, sizes
// the data-segment model per Table 4, and fills the initial condition.
func (k *Kernel) Setup(t *drms.Task, class Class) (*Instance, error) {
	n, err := GridSize(class)
	if err != nil {
		return nil, err
	}
	in := &Instance{K: k, Class: class, N: n, Task: t,
		Arrays: make(map[string]*array.Array[float64]), Dt: 0.0015}
	for _, decl := range k.Decls {
		d, err := Decompose(decl.Comps, n, t.Tasks(), decl.Shadow)
		if err != nil {
			return nil, err
		}
		a, err := drms.NewArray[float64](t, decl.Name, d)
		if err != nil {
			return nil, err
		}
		in.Arrays[decl.Name] = a
	}
	t.Register("iter", &in.Iter)
	t.Register("dt", &in.Dt)

	model, err := k.SegmentModel(class)
	if err != nil {
		return nil, err
	}
	t.Segment().Model = model

	in.initialize()
	return in, nil
}

// initialize fills the arrays with the deterministic initial condition
// (idempotent: restart re-executes it before restoring).
func (in *Instance) initialize() {
	n := float64(in.N)
	for _, decl := range in.K.Decls {
		a := in.Arrays[decl.Name]
		if decl.Name == in.K.Decls[0].Name {
			a.Fill(func(c []int) float64 {
				// A smooth, component-dependent field.
				x, y, z := float64(c[1])/n, float64(c[2])/n, float64(c[3])/n
				return 1.0 + float64(c[0])*0.1 + x*(1-x) + 0.5*y*(1-y) + 0.25*z*(1-z)
			})
		} else {
			a.Fill(func(c []int) float64 { return 0 })
		}
	}
}

// Checksum returns the distribution-independent checksum of the solution
// array (the verification value): the exact sum of its elements, rounded
// once (array.Checksum). Collective.
func (in *Instance) Checksum() (float64, error) { return in.U().Checksum() }

// Residuals returns the per-component root-mean-square of the second
// array (the right-hand side / residual array), the quantity the NPB
// verification step tracks. Each task adds the squares of its assigned
// elements into one exact accumulator per component (xsum), and one
// Allgather merges them: like Checksum, the result is bitwise independent
// of the task count and decomposition. Collective.
func (in *Instance) Residuals() ([]float64, error) {
	r := in.Arrays[in.K.Decls[1].Name]
	sums := make([]xsum.Acc, in.K.Decls[1].Comps)
	r.Assigned().Each(rangeset.ColMajor, func(c []int) {
		v := r.Local()[r.LocalIndex(c)]
		sums[c[0]].Add(v * v)
	})
	var frame []byte
	for m := range sums {
		frame = sums[m].AppendBinary(frame)
	}
	frames, err := in.Task.Comm().Allgather(frame)
	if err != nil {
		return nil, err
	}
	rms := make([]float64, len(sums))
	n := float64(in.N)
	for m := range rms {
		parts := make([][]byte, len(frames))
		for q, f := range frames { // a short frame leaves parts Decode refuses
			parts[q] = f[min(m*xsum.FrameSize, len(f)):min((m+1)*xsum.FrameSize, len(f))]
		}
		total, err := xsum.Decode(parts...)
		if err != nil {
			return nil, fmt.Errorf("apps: residuals: %w", err)
		}
		rms[m] = math.Sqrt(total.Float64() / (n * n * n))
	}
	return rms, nil
}

// RunConfig drives a kernel as a complete DRMS application.
type RunConfig struct {
	Class     Class
	Iters     int
	CkEvery   int    // checkpoint period in iterations (0 = never)
	Prefix    string // checkpoint prefix
	EnableSOP bool   // use the enabling checkpoint variant
	// OnDone, if non-nil, receives the final checksum from task 0.
	OnDone chan<- float64
	// OnStep, if non-nil, is called by task 0 after each iteration.
	OnStep func(iter int)
}

// App returns the drms application body for this kernel: the Figure 1
// skeleton around the kernel's Step.
func (k *Kernel) App(rc RunConfig) func(*drms.Task) error {
	return func(t *drms.Task) error {
		in, err := k.Setup(t, rc.Class)
		if err != nil {
			return err
		}
		for {
			if rc.CkEvery > 0 && in.Iter%rc.CkEvery == 0 {
				var err error
				if rc.EnableSOP {
					_, _, err = t.ReconfigChkEnable(rc.Prefix)
				} else {
					_, _, err = t.ReconfigCheckpoint(rc.Prefix)
				}
				if err != nil {
					return err
				}
				if t.StopRequested() {
					return nil
				}
			}
			if in.Iter >= rc.Iters {
				break
			}
			if err := k.Step(in); err != nil {
				return err
			}
			in.Iter++
			if rc.OnStep != nil && t.Rank() == 0 {
				rc.OnStep(in.Iter)
			}
		}
		sum, err := in.Checksum()
		if err != nil {
			return err
		}
		if rc.OnDone != nil && t.Rank() == 0 {
			rc.OnDone <- sum
		}
		return nil
	}
}
