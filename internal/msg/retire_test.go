package msg_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"drms/internal/array"
	"drms/internal/ckpt"
	"drms/internal/dist"
	"drms/internal/msg"
	"drms/internal/pfs"
	"drms/internal/rangeset"
	"drms/internal/seg"
	"drms/internal/stream"
)

// swapper drives alternating Resize swaps between two sizes under a body
// that checkpoints a small array in each epoch — so the epoch's ranks
// build array and stream plans — then waits for the epoch's retirement
// and parks.
type swapper struct {
	r           *msg.Runner
	size, other int
	entered     chan struct{} // one token per rank done with an epoch's checkpoint; sized to the larger epoch
	done        chan error

	mu     sync.Mutex
	epochs []weak.Pointer[msg.LocalTransport] // each in-process epoch's transport, as rank 0 entered it
}

func startSwaps(t *testing.T, tcp bool, n, other int) *swapper {
	t.Helper()
	r, err := msg.NewRunner(n, tcp)
	if err != nil {
		t.Fatal(err)
	}
	fs := pfs.NewSystem(pfs.Config{Servers: 2, StripeUnit: 4096})
	g := rangeset.Box([]int{0}, []int{4095})
	s := &swapper{r: r, size: n, other: other, entered: make(chan struct{}, max(n, other)), done: make(chan error, 1)}
	go func() {
		s.done <- r.Run(func(c *msg.Comm) error {
			for {
				if lt, ok := msg.TransportOf(c).(*msg.LocalTransport); ok && c.Rank() == 0 {
					s.mu.Lock()
					s.epochs = append(s.epochs, weak.Make(lt))
					s.mu.Unlock()
				}
				d, err := dist.Block(g, []int{c.Size()})
				if err != nil {
					return err
				}
				a, err := array.New[float64](c, "u", d)
				if err != nil {
					return err
				}
				o := stream.Options{PieceBytes: 4096}
				if _, err := ckpt.WriteDRMS(fs, fmt.Sprint("ck.g", c.Epoch()), c, seg.New(), []ckpt.ArrayRef{ckpt.Ref(a)}, o); err != nil {
					return err
				}
				s.entered <- struct{}{}
				if _, err := c.Recv((c.Rank()+1)%c.Size(), 0); err == nil {
					return errors.New("a receive nobody sent completed")
				}
				nc, _, err := r.Park(c)
				if err != nil {
					return nil // superseded by a narrowing swap, or the final kill
				}
				c = nc
			}
		})
	}()
	for i := 0; i < n; i++ {
		<-s.entered
	}
	return s
}

// swap resizes to the other size and waits until every rank of the new
// epoch has checkpointed in it (and so dropped its comm of the retired
// one).
func (s *swapper) swap(t *testing.T) {
	t.Helper()
	s.size, s.other = s.other, s.size
	if _, err := s.r.Resize(s.size); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.size; i++ {
		<-s.entered
	}
}

func (s *swapper) stop() {
	s.r.Kill()
	<-s.done
}

// TestRetiredEpochsAreReleased: a runner keeps only its live epoch, and
// nothing else does — the communication plans a checkpoint builds in an
// epoch belong to that epoch's comms. In process, every transport a swap
// retires is garbage while the run goes on; over TCP, a retired mesh's
// sockets and reader pumps are gone once the swap returns, so the
// goroutine count does not grow with the swaps.
func TestRetiredEpochsAreReleased(t *testing.T) {
	t.Run("local", func(t *testing.T) {
		const swaps = 50
		s := startSwaps(t, false, 4, 2)
		defer s.stop()
		for i := 0; i < swaps; i++ {
			s.swap(t)
		}
		runtime.GC()
		s.mu.Lock()
		defer s.mu.Unlock()
		if len(s.epochs) != swaps+1 {
			t.Fatalf("rank 0 entered %d epochs, want %d", len(s.epochs), swaps+1)
		}
		for epoch, p := range s.epochs[:swaps] {
			if p.Value() != nil {
				t.Fatalf("the transport of epoch %d is still reachable after %d swaps", epoch, swaps)
			}
		}
	})
	t.Run("tcp", func(t *testing.T) {
		const swaps = 20
		s := startSwaps(t, true, 2, 4)
		defer s.stop()
		s.swap(t)
		base := runtime.NumGoroutine()
		for i := 0; i < swaps; i++ {
			s.swap(t)
		}
		// Superseded ranks exit on their own schedule: allow them a moment.
		got := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); got > base+2 && time.Now().Before(deadline); {
			time.Sleep(10 * time.Millisecond)
			got = runtime.NumGoroutine()
		}
		if got > base+2 {
			t.Fatalf("%d goroutines after %d more swaps, %d after the first: retired meshes keep their reader pumps",
				got, swaps, base)
		}
	})
}
