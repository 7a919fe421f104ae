package drms

import (
	"fmt"
	"slices"
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

// countSOPs runs cfg.Tasks tasks over a counting transport. Each
// declares arrays float64 block arrays of 4 096 elements, each the
// wall-clock benchmark's coord-recover state — on a power-of-two task
// count each task's block is exactly one streamed piece, so no piece
// crosses the interconnect and what is left is the SOP's control
// rounds — then runs the steps in order; pending is the restore its
// first SOP serves. It returns, per step, each rank's sends. The first
// error aborts the transport so peers blocked in a collective unwind.
func countSOPs(t *testing.T, cfg Config, h *Handle, pending restoreKind, arrays int, steps []sopStep) [][]int64 {
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
				for a := range arrays {
					u, err := NewArray[float64](task, fmt.Sprintf("u%d", a), d)
					if err != nil {
						return err
					}
					u.Fill(func(c []int) float64 { return float64(c[0]+a) * 0.5 })
				}
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

// TestSOPRounds pins every rank's sends per SOP kind on 4 tasks, with one
// array and with two: the fixed cost of a small SOP is its rounds, not
// its bytes, and the rounds do not grow with the array count (a
// rollback's one data message per array aside). A
// checkpoint is the generation header broadcast (which on the enabling
// SOP also carries whether to write at all), one gather of every array's
// piece locations and the commit barrier; a delta adds one gather of
// every array's fingerprints and the broadcast of rank 0's decision. A
// restore is one gather of every array's piece CRCs, the broadcast of
// the verdict and the stop broadcast; from the tier, a gather of the
// tasks' residency votes and the broadcast of rank 0's decision come
// first. A rollback decides in that one round too: each task votes
// whether its arrays match the metadata and whether it loads from the
// checkpoint, and rank 0 broadcasts the restore set it judged on
// storage. No barrier only marks a trace phase, and no reduction delivers what
// rank 0 alone decides.
// `make rounds` prints the table.
func TestSOPRounds(t *testing.T) {
	ckptStep := func(name string) sopStep {
		return sopStep{name, Continued, func(t *Task) (Status, int, error) { return t.ReconfigCheckpoint("job") }}
	}
	chkEnable := func(name string) sopStep {
		return sopStep{name, Continued, func(t *Task) (Status, int, error) { return t.ReconfigChkEnable("job") }}
	}
	restore := sopStep{"restore (at ReconfigCheckpoint)", Restored,
		func(t *Task) (Status, int, error) { return t.ReconfigCheckpoint("job") }}
	hotRestore := sopStep{"restore from the tier", Restored, restore.sop}
	// A rollback replaces rank 2: the survivors hold the generation in
	// their park snapshots, as a Partial run's commit leaves them.
	var rollFrom string
	rollback := sopStep{"rollback, rank 2 replaced", Restored, func(t *Task) (Status, int, error) {
		if t.Rank() != 2 {
			t.snapshot(rollFrom)
		}
		return t.ReconfigCheckpoint("job")
	}}
	// Each run writes its own store: an anchor-only rotation that it then
	// restores, or a chain whose second generation is a delta.
	runs := []struct {
		anchorEvery int
		gen         int // the newest generation once the steps ran
		steps       []sopStep
	}{
		{0, 2, []sopStep{
			ckptStep("ReconfigCheckpoint, first generation"),
			ckptStep("ReconfigCheckpoint"),
			chkEnable("ReconfigChkEnable, armed"),
			chkEnable("ReconfigChkEnable, unarmed"),
		}},
		{4, 1, []sopStep{
			ckptStep("ReconfigCheckpoint, chain anchor"),
			ckptStep("ReconfigCheckpoint, delta"),
		}},
	}
	want := map[string][]int64{
		"ReconfigCheckpoint, first generation": {4, 4, 3, 3},
		"ReconfigCheckpoint":                   {4, 4, 3, 3},
		"ReconfigChkEnable, armed":             {4, 4, 3, 3},
		"ReconfigChkEnable, unarmed":           {2, 1, 0, 0},
		"ReconfigCheckpoint, chain anchor":     {4, 4, 3, 3},
		"ReconfigCheckpoint, delta":            {6, 6, 4, 4},
		restore.name:                           {4, 3, 1, 1},
		hotRestore.name:                        {6, 5, 2, 2},
		rollback.name:                          {7, 5, 2, 2},
	}
	// What each further array adds: a rollback's data, rank 2's piece of
	// every array, which rank 0 reads and sends on.
	perArray := map[string][]int64{rollback.name: {1, 0, 0, 0}}
	var names []string
	sent := map[string][2][]int64{}
	for arrays := 1; arrays <= 2; arrays++ {
		for _, run := range runs {
			fs := testFS()
			cfg := Config{Tasks: 4, FS: fs, Keep: 2, Verify: true, AnchorEvery: run.anchorEvery}
			h := &Handle{done: make(chan struct{})}
			h.EnableCheckpoint() // the first ReconfigChkEnable consumes it
			steps := run.steps
			counts := countSOPs(t, cfg, h, restoreNone, arrays, steps)
			if gen, ok := h.CommittedGen(); !ok || gen != run.gen {
				t.Fatalf("committed generation %d (%v), want %d: the unarmed SOP must not checkpoint", gen, ok, run.gen)
			}
			if run.anchorEvery == 0 {
				from, ok := ckpt.Resolve(fs, "job")
				if !ok {
					t.Fatal("no committed generation to restore")
				}
				cfg.RestartFrom = from
				counts = append(counts, countSOPs(t, cfg, &Handle{done: make(chan struct{})}, restoreLaunch, arrays, []sopStep{restore})...)
				steps = append(steps, restore)
			}
			for i, s := range steps {
				if arrays == 1 {
					names = append(names, s.name)
				}
				row := sent[s.name]
				row[arrays-1] = counts[i]
				sent[s.name] = row
			}
		}

		// The hot workloads' store (tier k = 1, Partial): one generation
		// whose node 2 then fails, restored whole from the surviving peer
		// memory, then rolled back onto a pool whose rank 2 is new.
		fs := testFS()
		cfg := Config{Tasks: 4, FS: fs, Keep: 2, Verify: true, Tier: ckpt.NewMemTier(), Replicas: 1, Partial: true}
		countSOPs(t, cfg, &Handle{done: make(chan struct{})}, restoreNone, arrays, []sopStep{ckptStep("tiered write")})
		from, ok := ckpt.Resolve(fs, "job")
		if !ok {
			t.Fatal("no committed tiered generation")
		}
		cfg.Tier.DropStore(2) // the failed node's memory went with it
		hot, roll := cfg, cfg
		hot.RestartFrom, rollFrom = from, from
		hh := &Handle{done: make(chan struct{})}
		rh := &Handle{done: make(chan struct{}), partial: &attempt{gen: from, done: make(chan struct{})}}
		for _, s := range []struct {
			step   sopStep
			counts [][]int64
		}{
			{hotRestore, countSOPs(t, hot, hh, restoreLaunch, arrays, []sopStep{hotRestore})},
			{rollback, countSOPs(t, roll, rh, restoreRollback, arrays, []sopStep{rollback})},
		} {
			if arrays == 1 {
				names = append(names, s.step.name)
			}
			row := sent[s.step.name]
			row[arrays-1] = s.counts[0]
			sent[s.step.name] = row
		}
		if src := hh.restoreSrc.Load(); src != 2 {
			t.Fatalf("the hot restore was served from source %d, not peer memory", src)
		}
		if out := rh.partial.out; !slices.Equal(out.ranks, []int{2}) || out.mem == 0 {
			t.Fatalf("rollback restored ranks %v with %d bytes from peer memory, want [2] from the tier", out.ranks, out.mem)
		}
	}

	var table strings.Builder
	fmt.Fprintf(&table, "%-38s %-12s %s\n", "SOP (4 tasks, 32 KB per array)", "1 array", "2 arrays")
	for _, name := range names {
		one, two := fmt.Sprint(sent[name][0]), fmt.Sprint(sent[name][1])
		fmt.Fprintf(&table, "%-38s %-12s %s\n", name, strings.Trim(one, "[]"), strings.Trim(two, "[]"))
		w, w2 := want[name], slices.Clone(want[name])
		for r, n := range perArray[name] {
			w2[r] += n
		}
		if one != fmt.Sprint(w) || two != fmt.Sprint(w2) {
			t.Errorf("%s: sends by rank %v with one array and %v with two, want %v and %v", name, one, two, w, w2)
		}
	}
	t.Log("\n" + table.String())
}
