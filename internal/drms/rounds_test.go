package drms

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"drms/internal/ckpt"
	"drms/internal/dist"
	"drms/internal/msg"
	"drms/internal/rangeset"
	"drms/internal/seg"
)

// sendCounter wraps a transport and counts, per source rank, the
// messages that cross it — from outside the message layer, so an SOP
// that gains or loses a round shows up whatever the layer's own
// counters say.
type sendCounter struct {
	msg.Transport
	sends []atomic.Int64
}

func (t *sendCounter) Send(src, dst, tag int, data []byte) error {
	t.sends[src].Add(1)
	return t.Transport.Send(src, dst, tag, data)
}

// sopStep is one SOP a rank runs and the status it must return.
type sopStep struct {
	name string
	want Status
	sop  func(*Task) (Status, int, error)
}

// countSOPs runs cfg.Tasks tasks over a counting transport. Each declares
// the wall-clock benchmark's coord-recover state, a 4 096-element
// float64 block array, then runs the steps in order; pending is the
// restore its first SOP serves. It returns, per step, each rank's sends.
// The first error aborts the transport so peers blocked in a collective
// unwind.
func countSOPs(t *testing.T, cfg Config, h *Handle, pending restoreKind, steps []sopStep) [][]int64 {
	t.Helper()
	n := cfg.Tasks
	tr := &sendCounter{Transport: msg.NewLocalTransport(n), sends: make([]atomic.Int64, n)}
	sent := make([][]int64, len(steps))
	for i := range sent {
		sent[i] = make([]int64, n)
	}
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	for r := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			task := &Task{comm: msg.NewComm(r, n, tr), cfg: cfg, handle: h, sg: seg.New(), pending: pending}
			err := func() error {
				iter := 0
				task.Register("iter", &iter)
				d, err := dist.Block(rangeset.NewSlice(rangeset.Span(0, 4095)), []int{n})
				if err != nil {
					return err
				}
				u, err := NewArray[float64](task, "u", d)
				if err != nil {
					return err
				}
				u.Fill(func(c []int) float64 { return float64(c[0]) * 0.5 })
				for i, s := range steps {
					before := tr.sends[r].Load()
					st, _, err := s.sop(task)
					if err != nil {
						return fmt.Errorf("%s: %w", s.name, err)
					}
					if st != s.want {
						return fmt.Errorf("%s: status %v, want %v", s.name, st, s.want)
					}
					sent[i][r] = tr.sends[r].Load() - before
				}
				return nil
			}()
			if err != nil {
				once.Do(func() {
					first = fmt.Errorf("rank %d: %w", r, err)
					tr.Abort(msg.ErrRevoked)
				})
			}
		}()
	}
	wg.Wait()
	if first != nil {
		t.Fatal(first)
	}
	return sent
}

// TestSOPRounds pins every rank's sends per SOP kind on 3 tasks: the
// fixed cost of a small SOP is its rounds, not its bytes. A checkpoint
// is the ChkEnable verdict broadcast (enabling SOP only), the generation
// header broadcast, the piece exchange, one gather of piece locations
// per array and the commit barrier; a restore is the piece exchange,
// one integrity round per array, the closing Allgather of the tier byte
// totals and the stop verdict broadcast. No barrier only marks a trace
// phase, and no reduction delivers what rank 0 alone decides.
// `make rounds` prints the table.
func TestSOPRounds(t *testing.T) {
	fs := testFS()
	cfg := Config{Tasks: 3, FS: fs, Keep: 2, Verify: true}
	ckptStep := func(name string) sopStep {
		return sopStep{name, Continued, func(t *Task) (Status, int, error) { return t.ReconfigCheckpoint("job") }}
	}
	chkEnable := func(name string) sopStep {
		return sopStep{name, Continued, func(t *Task) (Status, int, error) { return t.ReconfigChkEnable("job") }}
	}
	h := &Handle{done: make(chan struct{})}
	h.EnableCheckpoint() // the first ReconfigChkEnable consumes it
	steps := []sopStep{
		ckptStep("ReconfigCheckpoint, first generation"),
		ckptStep("ReconfigCheckpoint"),
		chkEnable("ReconfigChkEnable, armed"),
		chkEnable("ReconfigChkEnable, unarmed"),
	}
	sent := countSOPs(t, cfg, h, restoreNone, steps)
	if gen, ok := h.CommittedGen(); !ok || gen != 2 {
		t.Fatalf("committed generation %d (%v), want 2: the unarmed SOP must not checkpoint", gen, ok)
	}

	from, ok := ckpt.Resolve(fs, "job")
	if !ok {
		t.Fatal("no committed generation to restore")
	}
	cfg.RestartFrom = from
	restore := []sopStep{{"restore (at ReconfigCheckpoint)", Restored,
		func(t *Task) (Status, int, error) { return t.ReconfigCheckpoint("job") }}}
	sent = append(sent, countSOPs(t, cfg, &Handle{done: make(chan struct{})}, restoreLaunch, restore)...)
	steps = append(steps, restore...)

	want := [][]int64{
		{5, 4, 4},
		{5, 4, 4},
		{7, 4, 4},
		{2, 0, 0},
		{7, 3, 3},
	}
	var table strings.Builder
	fmt.Fprintf(&table, "%-38s %-14s %s\n", "SOP (3 tasks, 32 KB)", "sends by rank", "total")
	for i, s := range steps {
		var total int64
		for _, v := range sent[i] {
			total += v
		}
		fmt.Fprintf(&table, "%-38s %-14s %d\n", s.name, strings.Trim(fmt.Sprint(sent[i]), "[]"), total)
		if fmt.Sprint(sent[i]) != fmt.Sprint(want[i]) {
			t.Errorf("%s: sends by rank %v, want %v", s.name, sent[i], want[i])
		}
	}
	t.Log("\n" + table.String())
}
