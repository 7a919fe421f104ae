package main

import (
	"fmt"
	"time"

	"drms/internal/ckpt"
	"drms/internal/drms"
	"drms/internal/pfs"
)

// engine is one set-up of one workload: bring-up through the first
// generation, cycles, teardown. Both implementations drive the same
// application body through a session.
type engine interface {
	// setup brings the system up, launches the writer and waits for its
	// first generation.
	setup() error
	// cycle runs steadyPerCycle checkpoint tickets and the workload's
	// recovery op. timed=false is a warm-up cycle.
	cycle(timed bool) error
	// teardown stops everything setup started and waits for it.
	teardown() error
	// live exposes what the layer probes run against after the cycles.
	live() *session
}

func newEngine(w *workload, seed uint64, tr *tracer, out *samples) engine {
	s := &session{w: w, fs: pfs.NewSystem(pfs.DefaultConfig()), tr: tr, out: out, seed: seed,
		app: newApp(w, seed, true, tr)}
	if w.hot {
		s.tier = ckpt.NewMemTier()
	}
	if w.recovery == recCoord {
		return &coordEngine{session: s}
	}
	return &drmsEngine{session: s}
}

// drmsEngine drives a writer incarnation launched directly with
// drms.Start: the restart, resize and partial-recovery workloads.
type drmsEngine struct {
	*session
	h *drms.Handle
}

func (e *drmsEngine) live() *session { return e.session }

func (e *drmsEngine) config(tasks int) drms.Config {
	cfg := e.w.config(e.fs, e.tier)
	cfg.Tasks = tasks
	return cfg
}

func (e *drmsEngine) setup() error {
	e.out.ops++
	first := e.tr.driver("first_generation")
	defer first.end()
	sp := e.tr.begin("drms.Start", first)
	start := time.Now()
	h, err := drms.Start(e.config(writerTasks), e.app.body)
	sp.end()
	if err != nil {
		return err
	}
	e.h, e.tasks = h, writerTasks
	e.done = h.Done()
	if err := e.await(writerTasks, drms.Continued); err != nil {
		return fmt.Errorf("first generation: %w", err)
	}
	e.out.cold = append(e.out.cold, time.Since(start))
	return nil
}

func (e *drmsEngine) teardown() error {
	if err := e.send(ticket{kind: tkStop}); err != nil {
		e.h.Kill()
		<-e.h.Done()
		return err
	}
	return e.h.Wait()
}

func (e *drmsEngine) cycle(timed bool) error {
	before := readPlanCounters()
	if err := e.steady(timed); err != nil {
		return err
	}
	if err := e.publish(); err != nil {
		return err
	}
	var (
		d   time.Duration
		err error
	)
	switch e.w.recovery {
	case recRestart:
		d, err = e.restart()
	case recResize:
		d, err = e.resizeRoundTrip()
	case recPartial:
		d, err = e.partial()
	}
	if err != nil {
		return err
	}
	if timed {
		e.out.recovery = append(e.out.recovery, d)
		if e.tr != nil {
			e.notePlans(before)
		}
	}
	return nil
}

// recoveryTrace brackets a recovery op with a pfs trace in traced runs.
func (s *session) recoveryTrace() func() {
	if s.tr == nil || !s.tr.on.Load() {
		return func() {}
	}
	pt := s.fs.StartTrace()
	return func() {
		s.fs.StopTrace()
		ops, bytes := traceTotals(pt, false)
		s.out.pfsRecOps = append(s.out.pfsRecOps, ops)
		s.out.pfsRecBytes = append(s.out.pfsRecBytes, bytes)
	}
}

// restart launches a reader incarnation from the newest generation and
// times the decision to restore -> every rank holding Restored state.
// The checksum comparison is outside the window.
func (e *drmsEngine) restart() (time.Duration, error) {
	e.out.ops++
	reader := newApp(e.w, e.seed, false, e.tr)
	cfg := e.config(e.w.readerTasks)
	cfg.RestartFrom = ckptPrefix
	stop := e.recoveryTrace()
	sp := e.tr.driver("drms.restart")
	start := time.Now()
	h, err := drms.Start(cfg, reader.body)
	if err != nil {
		sp.end()
		return 0, err
	}
	_, err = awaitReports(reader, cfg.Tasks, drms.Restored, h.Done())
	d := time.Since(start)
	sp.end()
	stop()
	if err != nil {
		h.Kill()
		<-h.Done()
		return 0, fmt.Errorf("reader incarnation: %w", err)
	}
	r, err := awaitReports(reader, 1, drms.Restored, h.Done())
	if err != nil {
		return 0, fmt.Errorf("reader checksums: %w", err)
	}
	if err := h.Wait(); err != nil {
		return 0, err
	}
	if err := e.verify("reader incarnation", r.sums); err != nil {
		return 0, err
	}
	if src, _ := h.LastRestoreSource(); e.w.hot && src != "mem" {
		return 0, fmt.Errorf("hot restart served from %q, want mem", src)
	}
	return d, nil
}

// resizeRoundTrip times Handle.Resize 4 -> 2 and 2 -> 4; the sample is
// the sum of both calls, so it is one mode, not two directions mixed.
func (e *drmsEngine) resizeRoundTrip() (time.Duration, error) {
	var total time.Duration
	for _, target := range []int{writerTasks / 2, writerTasks} {
		e.out.ops++
		// The ticket is handed over from a helper so that this goroutine
		// arms the resize first; should rank 0 still win the race, the
		// body keeps taking SOPs until the armed one carries the swap.
		sent := make(chan error, 1)
		go func() { sent <- e.send(ticket{kind: tkResize}) }()
		stop := e.recoveryTrace()
		sp := e.tr.driver("drms.Handle.Resize")
		start := time.Now()
		stats, err := e.h.Resize(drms.ResizeSpec{Tasks: target, Timeout: opTimeout})
		total += time.Since(start)
		sp.end()
		stop()
		if serr := <-sent; err == nil {
			err = serr
		}
		if err != nil {
			return 0, fmt.Errorf("resize to %d: %w", target, err)
		}
		if stats.TierPFSBytes != 0 {
			return 0, fmt.Errorf("hot resize to %d read %d bytes from the pfs", target, stats.TierPFSBytes)
		}
		e.noteTiers(stats.TierMemBytes, stats.TierPFSBytes)
		e.tasks = target
		if err := e.await(target, drms.Restored); err != nil {
			return 0, fmt.Errorf("resize epoch at %d tasks: %w", target, err)
		}
		if err := e.verifyLive(fmt.Sprintf("after resize to %d", target)); err != nil {
			return 0, err
		}
		if err := e.settle(); err != nil {
			return 0, err
		}
	}
	return total, nil
}

func (s *session) noteTiers(mem, disk int64) {
	if s.tr != nil {
		s.out.tierMem = append(s.out.tierMem, float64(mem))
		s.out.tierPFS = append(s.out.tierPFS, float64(disk))
	}
}

// partial parks the application the way a failure would find it, then
// times Handle.PartialRecover of one seeded victim rank from the newest
// generation.
func (e *drmsEngine) partial() (time.Duration, error) {
	e.out.ops++
	gen, ok := e.h.CommittedGen()
	if !ok {
		return 0, fmt.Errorf("no committed generation to roll back to")
	}
	if err := e.send(ticket{kind: tkPark}); err != nil {
		return 0, err
	}
	victim := int(e.next() % uint64(e.tasks))
	stop := e.recoveryTrace()
	sp := e.tr.driver("drms.Handle.PartialRecover")
	start := time.Now()
	stats, err := e.h.PartialRecover(drms.PartialRecoverSpec{Dead: []int{victim},
		From: fmt.Sprintf("%s.g%d", ckptPrefix, gen), Timeout: opTimeout})
	d := time.Since(start)
	sp.end()
	stop()
	if err != nil {
		return 0, fmt.Errorf("partial recovery of rank %d: %w", victim, err)
	}
	if len(stats.Ranks) != 1 || stats.Ranks[0] != victim {
		return 0, fmt.Errorf("partial recovery restored ranks %v, want [%d]", stats.Ranks, victim)
	}
	e.noteTiers(stats.TierMemBytes, stats.TierPFSBytes)
	if err := e.await(e.tasks, drms.Restored); err != nil {
		return 0, fmt.Errorf("replacement epoch: %w", err)
	}
	if err := e.verifyLive("after partial recovery"); err != nil {
		return 0, err
	}
	return d, e.settle()
}
