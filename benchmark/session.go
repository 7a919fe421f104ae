package main

import (
	"fmt"
	"time"

	"drms/internal/array"
	"drms/internal/ckpt"
	"drms/internal/drms"
	"drms/internal/pfs"
	"drms/internal/stream"
)

// samples is what one run of one workload measures.
type samples struct {
	setups   []time.Duration // one per set-up of the run
	ckpt     []time.Duration // timed steady tickets, issue -> all ranks done
	cold     []time.Duration // settle tickets and first generations
	recovery []time.Duration // the workload's recovery op
	amp      []float64       // bytes one timed checkpoint added / logical state bytes
	wall     time.Duration   // the whole timed loop
	cycles   int             // timed cycles
	ops      int             // operations attempted, timed or not

	// Traced runs only.
	untracedCkpt []time.Duration // steady tickets of cycles with span recording off
	tracedCkpt   []time.Duration
	detect       []time.Duration // coord: Fail -> tc-down
	relaunch     []time.Duration // coord: tc-down -> app-recovered
	restoreTail  []time.Duration // coord: app-recovered -> all ranks Restored
	pfsCkptOps   []float64       // per timed checkpoint
	pfsCkptBytes []float64
	pfsRecOps    []float64 // per recovery op
	pfsRecBytes  []float64
	tierMem      []float64 // bytes served per recovery op, by tier
	tierPFS      []float64
	arrayHits    []float64 // plan cache deltas per cycle
	arrayMisses  []float64
	streamHits   []float64
	streamMisses []float64
	procStart    procSample
	procEnd      procSample
}

// session is the driver's side of one application instance: the ticket
// and report plumbing both engines share. The single driver goroutine is
// the load generator; it is a closed loop with one outstanding operation.
type session struct {
	w    *workload
	fs   *pfs.System
	tier *ckpt.MemTier // nil unless the workload is hot
	app  *app
	tr   *tracer
	out  *samples
	seed uint64
	n    uint64 // driver decision counter: every seeded choice is mix(seed+n)

	tasks  int // ranks of the application's current communicator
	oracle []float64
	fresh  bool // oracle matches the application's current state
	// done is closed when the serving incarnation exits, so a wait on its
	// reports cannot hang on a dead application. The coord engine leaves
	// it nil: the supervisor replaces incarnations under the session.
	done <-chan struct{}
}

func (s *session) next() uint64 {
	s.n++
	return mix(s.seed + s.n)
}

// send hands one ticket to the serving rank 0.
func (s *session) send(tk ticket) error {
	t := time.NewTimer(opTimeout)
	defer t.Stop()
	select {
	case s.app.tickets <- tk:
		return nil
	case <-s.done:
		return fmt.Errorf("application exited before taking a ticket")
	case <-t.C:
		return fmt.Errorf("no rank took the ticket within %v", opTimeout)
	}
}

// await collects one report from each of n ranks and checks its status.
func (s *session) await(n int, want drms.Status) error {
	_, err := awaitReports(s.app, n, want, s.done)
	return err
}

// awaitReports collects n reports of an application; done, if not nil,
// is closed when the application exits.
func awaitReports(a *app, n int, want drms.Status, done <-chan struct{}) (report, error) {
	t := time.NewTimer(opTimeout)
	defer t.Stop()
	var last report
	for i := 0; i < n; i++ {
		select {
		case r := <-a.reports:
			if r.sums == nil && r.status != want {
				return r, fmt.Errorf("rank %d reported %v, want %v", r.rank, r.status, want)
			}
			last = r
		case <-done:
			// The application may have reported and exited in the same
			// instant; drain what is already there before giving up.
			select {
			case r := <-a.reports:
				last = r
				continue
			default:
			}
			return last, fmt.Errorf("application exited with %d of %d reports outstanding", n-i, n)
		case <-t.C:
			return last, fmt.Errorf("%d of %d reports outstanding after %v", n-i, n, opTimeout)
		}
	}
	return last, nil
}

// checkpoint issues one checkpoint ticket of the given kind and returns
// issue -> all ranks done.
func (s *session) checkpoint(kind ticketKind) (time.Duration, error) {
	s.out.ops++
	sp := s.tr.driver("ticket.ckpt")
	defer sp.end()
	tk := ticket{kind: kind, seed: s.next()}
	start := time.Now()
	if err := s.send(tk); err != nil {
		return 0, err
	}
	if err := s.await(s.tasks, drms.Continued); err != nil {
		return 0, fmt.Errorf("checkpoint ticket: %w", err)
	}
	d := time.Since(start)
	if kind == tkCkpt {
		s.fresh = false
	}
	return d, nil
}

// settle is the untimed checkpoint after an epoch change: it pays the new
// epoch's cold plans so the next steady ticket does not.
func (s *session) settle() error {
	d, err := s.checkpoint(tkSettle)
	if err != nil {
		return err
	}
	s.out.cold = append(s.out.cold, d)
	return nil
}

// sums asks the application for every array's checksum.
func (s *session) sums() ([]float64, error) {
	s.out.ops++
	sp := s.tr.driver("ticket.sum")
	defer sp.end()
	if err := s.send(ticket{kind: tkSum}); err != nil {
		return nil, err
	}
	r, err := awaitReports(s.app, 1, drms.Continued, s.done)
	if err != nil {
		return nil, fmt.Errorf("checksum ticket: %w", err)
	}
	return r.sums, nil
}

// publish refreshes the oracle from the live application, if stale.
func (s *session) publish() error {
	if s.fresh {
		return nil
	}
	v, err := s.sums()
	if err != nil {
		return err
	}
	s.oracle, s.fresh = v, true
	return nil
}

// verify compares restored checksums with the oracle.
func (s *session) verify(what string, got []float64) error {
	if !sumsEqual(got, s.oracle) {
		return fmt.Errorf("%s: checksums %v differ from the oracle %v", what, got, s.oracle)
	}
	return nil
}

// verifyLive checks the serving application itself against the oracle
// (after a resize, a partial recovery or a supervised recovery).
func (s *session) verifyLive(what string) error {
	got, err := s.sums()
	if err != nil {
		return err
	}
	return s.verify(what, got)
}

// steady runs the cycle's timed checkpoint tickets. timed=false is a
// warm-up cycle: same work, nothing recorded.
func (s *session) steady(timed bool) error {
	for i := 0; i < steadyPerCycle; i++ {
		var pt *pfs.Trace
		if s.tr != nil && timed && s.tr.on.Load() {
			pt = s.fs.StartTrace()
		}
		d, err := s.checkpoint(tkCkpt)
		if pt != nil {
			s.fs.StopTrace()
		}
		if err != nil {
			return err
		}
		if !timed {
			continue
		}
		s.out.ckpt = append(s.out.ckpt, d)
		if s.tr != nil {
			if pt != nil {
				s.out.tracedCkpt = append(s.out.tracedCkpt, d)
				ops, bytes := traceTotals(pt, true)
				s.out.pfsCkptOps = append(s.out.pfsCkptOps, ops)
				s.out.pfsCkptBytes = append(s.out.pfsCkptBytes, bytes)
			} else {
				s.out.untracedCkpt = append(s.out.untracedCkpt, d)
			}
		}
		if i == 0 {
			added, err := s.generationBytes()
			if err != nil {
				return err
			}
			s.out.amp = append(s.out.amp, float64(added)/float64(s.w.logicalBytes()))
		}
	}
	return nil
}

// generationBytes is what the newest committed generation put on storage:
// the sizes of its own pfs files plus its memory-tier entries, every
// replica counted.
func (s *session) generationBytes() (int64, error) {
	_, gen, ok := ckpt.Rotation{Base: ckptPrefix, Tier: s.tier}.Latest(s.fs)
	if !ok {
		return 0, fmt.Errorf("no committed generation under %q", ckptPrefix)
	}
	n, err := generationFileBytes(s.fs, gen)
	for _, e := range s.tier.Entries(gen) {
		n += e.Bytes * int64(e.Replicas)
	}
	return n, err
}

// generationFileBytes sums the sizes of one generation's own pfs files.
func generationFileBytes(fs *pfs.System, gen string) (int64, error) {
	var n int64
	for _, f := range fs.List(gen + ".") {
		sz, err := fs.Size(f)
		if err != nil {
			return 0, err
		}
		n += sz
	}
	return n, nil
}

// traceTotals sums a pfs trace's file operations in one direction.
func traceTotals(t *pfs.Trace, writes bool) (ops, bytes float64) {
	for _, op := range t.Ops {
		if !op.Net && op.Write == writes {
			ops++
			bytes += float64(op.Bytes)
		}
	}
	return ops, bytes
}

// planCounters snapshots both plan caches.
type planCounters struct{ ah, am, sh, sm uint64 }

func readPlanCounters() planCounters {
	var p planCounters
	p.ah, p.am = array.PlanCacheStats()
	p.sh, p.sm = stream.PlanCacheStats()
	return p
}

// notePlans records one cycle's plan cache traffic.
func (s *session) notePlans(before planCounters) {
	after := readPlanCounters()
	s.out.arrayHits = append(s.out.arrayHits, float64(after.ah-before.ah))
	s.out.arrayMisses = append(s.out.arrayMisses, float64(after.am-before.am))
	s.out.streamHits = append(s.out.streamHits, float64(after.sh-before.sh))
	s.out.streamMisses = append(s.out.streamMisses, float64(after.sm-before.sm))
}
