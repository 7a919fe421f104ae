package main

import (
	"fmt"
	"runtime"
	"time"
)

// processStart is when the benchmark process began; the first set-up of a
// run is timed from here so process start-up counts toward setup_s.
var processStart = time.Now()

// runOptions are the knobs of one run of one workload.
type runOptions struct {
	seed    uint64
	seconds float64 // how long the timed loop measures
	traced  bool
	// setups is how many times the run sets the workload up; setup_s is
	// the median. All but the last are torn down again at once.
	setups int
	// minCycles is the fewest timed cycles whatever the time box says.
	minCycles int
}

// runResult is one run's outcome: the raw samples and the metrics
// derived from them, by name.
type runResult struct {
	workload *workload
	opt      runOptions
	samples  *samples
	metrics  map[string]float64
	counts   map[string]int // samples behind each metric that is a statistic
	trace    *tracer
}

// runWorkload sets the workload up, runs warm-up and timed cycles, and —
// traced — the layer probes, then tears everything down. Any error means
// an operation failed or a restored state did not match its oracle.
func runWorkload(w *workload, opt runOptions) (*runResult, error) {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	out := &samples{}
	var tr *tracer
	if opt.traced {
		tr = newTracer()
	}
	res := &runResult{workload: w, opt: opt, samples: out, trace: tr,
		metrics: map[string]float64{}, counts: map[string]int{}}

	// bringUp sets the workload up on a fresh engine, tearing the current
	// one down first, and runs the warm-up cycles; set-up and warm-up, timed
	// from since (from after the teardown, if that is later), are one
	// setup_s sample.
	var eng engine
	bringUp := func(since time.Time) error {
		if eng != nil {
			if err := eng.teardown(); err != nil {
				return fmt.Errorf("teardown of set-up %d: %w", len(out.setups), err)
			}
			// The discarded set-up's state must not count as the next one's
			// memory.
			eng = nil
			runtime.GC()
			since = time.Now()
		}
		eng = newEngine(w, opt.seed, tr, out)
		if err := eng.setup(); err != nil {
			return fmt.Errorf("set-up %d: %w", len(out.setups)+1, err)
		}
		for c := 0; c < warmupCycles; c++ {
			if err := eng.cycle(false); err != nil {
				eng.teardown()
				return fmt.Errorf("warm-up cycle: %w", err)
			}
		}
		out.setups = append(out.setups, time.Since(since))
		return nil
	}
	// The first set-up is timed from process start.
	for i := 0; i < opt.setups; i++ {
		if err := bringUp(processStart); err != nil {
			return res, err
		}
	}

	// The traced run spends a third of the time box on cycles and leaves
	// the rest to the probes.
	box := time.Duration(opt.seconds * float64(time.Second))
	if opt.traced {
		box /= 3
	}
	out.procStart = sampleProc()
	start := time.Now()
	for {
		// A workload with a block size runs whole blocks of timed cycles,
		// each on a fresh set-up, and looks at the clock only between them:
		// what it measures does not depend on how many cycles the time box
		// happened to hold.
		boundary := w.block == 0 || out.cycles%w.block == 0
		if boundary && out.cycles >= opt.minCycles && time.Since(start) >= box {
			break
		}
		if boundary && w.block > 0 && out.cycles > 0 {
			if err := bringUp(time.Time{}); err != nil {
				return res, err
			}
		}
		if tr != nil {
			// Record spans on every other cycle: the rest are the untraced
			// baseline the tracing overhead is read against.
			tr.cycle.Store(int64(out.cycles))
			tr.on.Store(out.cycles%2 == 0)
		}
		if err := eng.cycle(true); err != nil {
			eng.teardown()
			return res, fmt.Errorf("cycle %d: %w", out.cycles, err)
		}
		out.cycles++
	}
	out.wall = time.Since(start)
	out.procEnd = sampleProc()

	res.endToEnd()
	if tr != nil {
		tr.on.Store(true)
		if err := res.perLayer(eng); err != nil {
			eng.teardown()
			return res, fmt.Errorf("layer probes: %w", err)
		}
	}
	if err := eng.teardown(); err != nil {
		return res, fmt.Errorf("teardown: %w", err)
	}
	res.metrics["peak_rss_mb"] = peakRSSMB()
	return res, nil
}

// quietPercentile is the p-th percentile of a timing in milliseconds. For
// a workload that runs in blocks it is taken within each block (perCycle
// samples a cycle) and the lower quartile of the blocks is reported: on a
// shared host everything runs a tenth slower for seconds at a time, and
// the better blocks are the ones that measured the program, not the
// neighbours. A change to the program moves every block alike.
func (r *runResult) quietPercentile(all []time.Duration, perCycle int, p float64) float64 {
	n := r.workload.block * perCycle
	if n == 0 {
		return percentile(msAll(all), p)
	}
	var blocks []float64
	for ; len(all) >= n; all = all[n:] {
		blocks = append(blocks, percentile(msAll(all[:n]), p))
	}
	return percentile(blocks, 25)
}

// endToEnd derives the end-to-end metrics from the samples.
func (r *runResult) endToEnd() {
	s := r.samples
	set := func(name string, v float64, n int) {
		r.metrics[name] = v
		r.counts[name] = n
	}
	setup := make([]float64, len(s.setups))
	for i, d := range s.setups {
		setup[i] = d.Seconds()
	}
	set("setup_s", median(setup), len(setup))
	set("ckpt_p50_ms", r.quietPercentile(s.ckpt, steadyPerCycle, 50), len(s.ckpt))
	set("ckpt_p90_ms", r.quietPercentile(s.ckpt, steadyPerCycle, 90), len(s.ckpt))
	set("recovery_p50_ms", r.quietPercentile(s.recovery, 1, 50), len(s.recovery))
	// Launch, teardown of readers, checksum tickets and settle tickets all
	// sit inside the wall time, so work moved out of the timed windows
	// still shows here.
	ops := int64(len(s.ckpt) + len(s.recovery))
	set("state_mb_per_s", mbPerS(r.workload.logicalBytes()*ops, s.wall), int(ops))
	set("write_amp", median(s.amp), len(s.amp))
}
