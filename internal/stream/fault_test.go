package stream

import (
	"errors"
	"sync"
	"testing"
	"time"

	"drms/internal/array"
	"drms/internal/msg"
	"drms/internal/pfs"
	"drms/internal/rangeset"
)

// TestWriterDeathMidStreamRevokesSurvivorsTCP is the parallel-streaming
// failure drill over real sockets: one writer dies during a parstream
// round (triggered deterministically by the first streamed piece), and
// every surviving task's Write must return msg.ErrRevoked promptly — not
// hang in a socket read waiting for the dead peer. A previously written
// stream stays readable, and a restarted run on a smaller pool restores
// exactly the values the prior stream holds.
func TestWriterDeathMidStreamRevokesSurvivorsTCP(t *testing.T) {
	const tasks, victim = 4, 1
	fs := pfs.NewSystem(pfs.Config{Servers: 4, StripeUnit: 256})
	g := rangeset.Box([]int{0, 0}, []int{23, 23})
	// Small pieces force several parstream rounds, so the kill lands with
	// genuinely in-flight exchange traffic on the survivors.
	o := Options{PieceBytes: 256}

	// The prior checkpoint: a clean stream from 4 tasks.
	mustRun(t, tasks, func(c *msg.Comm) {
		a, err := array.New[float64](c, "u", mustBlock(g, []int{tasks, 1}))
		if err != nil {
			panic(err)
		}
		a.Fill(coordVal)
		if _, err := Write(a, g, fs, "prior", o); err != nil {
			panic(err)
		}
	})

	// The faulted write: victim dies at its first transport operation
	// after any task streams a piece of the new file.
	r, err := msg.NewRunner(tasks, true)
	if err != nil {
		t.Fatal(err)
	}
	ft := r.InjectFault(msg.FaultSpec{Victim: victim})
	fo := o
	fo.PieceHook = func(int, int64, []byte) { ft.Arm() }

	var mu sync.Mutex
	taskErrs := make([]error, tasks)
	done := make(chan error, 1)
	go func() {
		done <- r.Run(func(c *msg.Comm) error {
			a, err := array.New[float64](c, "u", mustBlock(g, []int{1, tasks}))
			if err != nil {
				return err
			}
			a.Fill(coordVal)
			_, werr := Write(a, g, fs, "current", fo)
			mu.Lock()
			taskErrs[c.Rank()] = werr
			mu.Unlock()
			return werr
		})
	}()
	var runErr error
	select {
	case runErr = <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("survivors hung after writer death")
	}
	if !errors.Is(runErr, msg.ErrKilled) {
		t.Fatalf("run error = %v, want the injected kill as root cause", runErr)
	}
	mu.Lock()
	for rank, werr := range taskErrs {
		switch {
		case rank == victim:
			if !errors.Is(werr, msg.ErrKilled) {
				t.Fatalf("victim write error = %v, want ErrKilled", werr)
			}
		case !errors.Is(werr, msg.ErrRevoked):
			t.Fatalf("survivor rank %d write error = %v, want ErrRevoked", rank, werr)
		}
	}
	mu.Unlock()

	// Restart on a smaller pool: the prior stream restores bit-exact
	// under a different task count and distribution.
	r, err = msg.NewRunner(tasks-1, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(func(c *msg.Comm) error {
		b, err := array.New[float64](c, "v", mustBlock(g, []int{1, tasks - 1}))
		if err != nil {
			return err
		}
		if _, err := Read(b, g, fs, "prior", o); err != nil {
			return err
		}
		bad := false
		b.Mapped().Each(rangeset.ColMajor, func(cd []int) {
			if b.At(cd) != coordVal(cd) {
				bad = true
			}
		})
		if bad {
			return errors.New("prior stream corrupted by the failed write")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
