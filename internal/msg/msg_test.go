package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// runBoth executes the SPMD body on both transports so every collective
// is exercised over channels and over sockets. The body returns an error
// on any mismatch; a clean run must return nil on every rank.
func runBoth(t *testing.T, n int, f func(c *Comm) error) {
	t.Helper()
	t.Run("local", func(t *testing.T) {
		if err := Run(n, f); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("tcp", func(t *testing.T) {
		if err := runTCP(n, f); err != nil {
			t.Fatal(err)
		}
	})
}

// runTCP executes f as an SPMD application of n tasks over the TCP
// transport, with the same failure semantics as Run.
func runTCP(n int, f func(c *Comm) error) error {
	r, err := NewRunner(n, true)
	if err != nil {
		return err
	}
	return r.Run(f)
}

func TestSendRecvOrdering(t *testing.T) {
	runBoth(t, 2, func(c *Comm) error {
		const k = 50
		if c.Rank() == 0 {
			for i := 0; i < k; i++ {
				if err := c.Send(1, 7, []byte{byte(i)}); err != nil {
					return err
				}
			}
		} else {
			for i := 0; i < k; i++ {
				m, err := c.Recv(0, 7)
				if err != nil {
					return err
				}
				if len(m) != 1 || m[0] != byte(i) {
					return fmt.Errorf("message %d out of order: %v", i, m)
				}
			}
		}
		return nil
	})
}

func TestSendRecvTagsIndependent(t *testing.T) {
	runBoth(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []byte("tag1-first"))
			c.Send(1, 2, []byte("tag2"))
			c.Send(1, 1, []byte("tag1-second"))
			return nil
		}
		// Receive tag 2 before draining tag 1: matching is by tag.
		for _, want := range []struct {
			tag int
			pay string
		}{{2, "tag2"}, {1, "tag1-first"}, {1, "tag1-second"}} {
			m, err := c.Recv(0, want.tag)
			if err != nil {
				return err
			}
			if string(m) != want.pay {
				return fmt.Errorf("tag %d payload = %q, want %q", want.tag, m, want.pay)
			}
		}
		return nil
	})
}

func TestSelfSend(t *testing.T) {
	runBoth(t, 2, func(c *Comm) error {
		if err := c.Send(c.Rank(), 3, []byte{42}); err != nil {
			return err
		}
		m, err := c.Recv(c.Rank(), 3)
		if err != nil {
			return err
		}
		if m[0] != 42 {
			return fmt.Errorf("self-send payload lost")
		}
		return nil
	})
}

func TestSendCopiesBuffer(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []byte{1, 2, 3}
			c.Send(1, 0, buf)
			buf[0] = 99 // must not affect the delivered message
			return c.Send(1, 1, nil)
		}
		m, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if _, err := c.Recv(0, 1); err != nil {
			return err
		}
		if m[0] != 1 {
			return fmt.Errorf("transport aliased the sender's buffer")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierActuallySynchronizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			var entered, exited atomic.Int32
			err := Run(n, func(c *Comm) error {
				for round := 0; round < 5; round++ {
					entered.Add(1)
					if err := c.Barrier(); err != nil {
						return err
					}
					// Every task must have entered before any exits.
					if int(entered.Load()) < n*(round+1) {
						return fmt.Errorf("barrier released early")
					}
					exited.Add(1)
					if err := c.Barrier(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if entered.Load() != int32(5*n) || exited.Load() != int32(5*n) {
				t.Fatalf("entered=%d exited=%d", entered.Load(), exited.Load())
			}
		})
	}
}

func TestBcast(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		for root := 0; root < n; root++ {
			n, root := n, root
			runBoth(t, n, func(c *Comm) error {
				var payload []byte
				if c.Rank() == root {
					payload = []byte(fmt.Sprintf("hello from %d", root))
				}
				got, err := c.Bcast(root, payload)
				if err != nil {
					return err
				}
				want := fmt.Sprintf("hello from %d", root)
				if string(got) != want {
					return fmt.Errorf("rank %d got %q", c.Rank(), got)
				}
				return nil
			})
		}
	}
}

func TestGather(t *testing.T) {
	runBoth(t, 5, func(c *Comm) error {
		data := []byte{byte(c.Rank() * 10)}
		got, err := c.Gather(2, data)
		if err != nil {
			return err
		}
		if c.Rank() != 2 {
			if got != nil {
				return fmt.Errorf("non-root gather result not nil")
			}
			return nil
		}
		for r := 0; r < 5; r++ {
			if got[r][0] != byte(r*10) {
				return fmt.Errorf("gather slot %d = %d", r, got[r][0])
			}
		}
		return nil
	})
}

func TestAllgather(t *testing.T) {
	runBoth(t, 4, func(c *Comm) error {
		got, err := c.Allgather([]byte{byte(c.Rank() + 1)})
		if err != nil {
			return err
		}
		for r := 0; r < 4; r++ {
			if len(got[r]) != 1 || got[r][0] != byte(r+1) {
				return fmt.Errorf("rank %d allgather slot %d = %v", c.Rank(), r, got[r])
			}
		}
		return nil
	})
}

func TestAlltoall(t *testing.T) {
	for _, n := range []int{1, 2, 3, 6} {
		n := n
		runBoth(t, n, func(c *Comm) error {
			send := make([][]byte, n)
			for d := 0; d < n; d++ {
				// Rank r sends "r->d" with variable length.
				send[d] = []byte(fmt.Sprintf("%d->%d", c.Rank(), d))
			}
			got, err := c.Alltoall(send)
			if err != nil {
				return err
			}
			// The caller keeps its buffers: reusing them once the call
			// returns changes nothing a peer received.
			for _, b := range send {
				b[0] = 'x'
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			for s := 0; s < n; s++ {
				want := fmt.Sprintf("%d->%d", s, c.Rank())
				if string(got[s]) != want {
					return fmt.Errorf("rank %d slot %d = %q want %q", c.Rank(), s, got[s], want)
				}
			}
			return nil
		})
	}
}

// TestAlltoallCountsOneCollective: Alltoall runs as an AlltoallSparse over
// the complete graph and still counts one collective per call and rank.
func TestAlltoallCountsOneCollective(t *testing.T) {
	const n = 3
	before := msgCollectives.Value()
	if err := Run(n, func(c *Comm) error {
		_, err := c.Alltoall(make([][]byte, n))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got := msgCollectives.Value() - before; got != n {
		t.Fatalf("%d collectives counted for one Alltoall on %d ranks, want %d", got, n, n)
	}
}

func TestAlltoallEmptyBuffers(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		send := make([][]byte, 3)
		send[(c.Rank()+1)%3] = []byte{byte(c.Rank())}
		got, err := c.Alltoall(send)
		if err != nil {
			return err
		}
		from := (c.Rank() + 2) % 3
		for s := 0; s < 3; s++ {
			if s == from {
				if len(got[s]) != 1 || got[s][0] != byte(from) {
					return fmt.Errorf("expected payload missing")
				}
			} else if len(got[s]) != 0 {
				return fmt.Errorf("unexpected payload")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceAllreduce(t *testing.T) {
	runBoth(t, 6, func(c *Comm) error {
		v := float64(c.Rank() + 1)
		sum, ok, err := c.ReduceF64(0, v, Sum)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if !ok || sum != 21 {
				return fmt.Errorf("reduce sum = %v, ok=%v", sum, ok)
			}
		} else if ok {
			return fmt.Errorf("non-root claims reduce result")
		}
		if got, err := c.AllreduceF64(v, Sum); err != nil || got != 21 {
			return fmt.Errorf("allreduce sum = %v, err=%v", got, err)
		}
		if got, err := c.AllreduceF64(v, Max); err != nil || got != 6 {
			return fmt.Errorf("allreduce max = %v, err=%v", got, err)
		}
		if got, err := c.AllreduceF64(v, Min); err != nil || got != 1 {
			return fmt.Errorf("allreduce min = %v, err=%v", got, err)
		}
		return nil
	})
}

func TestReduceDeterministicOrder(t *testing.T) {
	// Floating-point sums depend on order; the reduction promises fixed
	// rank-ascending order, so repeated runs must agree bitwise.
	vals := []float64{1e16, 1.0, -1e16, 3.5}
	var first float64
	for iter := 0; iter < 20; iter++ {
		var got atomic.Value
		err := Run(4, func(c *Comm) error {
			s, err := c.AllreduceF64(vals[c.Rank()], Sum)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				got.Store(s)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if iter == 0 {
			first = got.Load().(float64)
		} else if got.Load().(float64) != first {
			t.Fatalf("iteration %d: sum %v != first %v", iter, got.Load(), first)
		}
	}
}

func TestCollectivesBackToBack(t *testing.T) {
	// Stress tag isolation: many different collectives in a row without
	// intervening user traffic.
	runBoth(t, 4, func(c *Comm) error {
		for i := 0; i < 30; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
			b, err := c.Bcast(i%4, []byte{byte(i)})
			if err != nil {
				return err
			}
			if b[0] != byte(i) {
				return fmt.Errorf("bcast corrupted under load")
			}
			if got, err := c.AllreduceF64(1, Sum); err != nil || got != 4 {
				return fmt.Errorf("allreduce corrupted under load: %v, err=%v", got, err)
			}
		}
		return nil
	})
}

func TestRunPropagatesPanic(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic in task not propagated as error: %v", err)
	}
}

func TestRunPropagatesError(t *testing.T) {
	sentinel := errors.New("task failure")
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 2 {
			return sentinel
		}
		// The other ranks block; the failure must release them.
		_, err := c.Recv((c.Rank()+1)%3, 5)
		return err
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("run error = %v, want the task's own error as root cause", err)
	}
}

func TestNegativeUserTagRejected(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		if err := c.Send(0, -1, nil); err == nil {
			return fmt.Errorf("negative send tag accepted")
		}
		if _, err := c.Recv(0, -1); err == nil {
			return fmt.Errorf("negative recv tag accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPackUnpackFrames(t *testing.T) {
	parts := [][]byte{nil, {1}, {2, 3, 4}, {}}
	got, err := unpackFrames(packFrames(parts), 4)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{{}, {1}, {2, 3, 4}, {}}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("frame %d = %v, want %v", i, got[i], want[i])
		}
		if len(want[i]) > 0 && !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("frame %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestF64Codec(t *testing.T) {
	for _, v := range []float64{0, 1, -1.5, 1e300, -1e-300} {
		if got := bytesF64(f64Bytes(v)); got != v {
			t.Fatalf("roundtrip %v -> %v", v, got)
		}
	}
	// The encoding is little-endian IEEE-754, the checkpoint wire format.
	b := f64Bytes(1.0)
	if binary.LittleEndian.Uint64(b) != 0x3FF0000000000000 {
		t.Fatalf("encoding of 1.0 = % x", b)
	}
}

func TestRunnerKillTerminatesBlockedTasks(t *testing.T) {
	r, err := NewRunner(3, false)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	go func() {
		<-started
		r.Kill()
	}()
	runErr := r.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			close(started)
		}
		// Every task blocks in a receive that will never be satisfied;
		// Kill must release them all with ErrRevoked.
		_, err := c.Recv((c.Rank()+1)%3, 99)
		return err
	})
	if !errors.Is(runErr, ErrRevoked) {
		t.Fatalf("killed run returned %v, want ErrRevoked", runErr)
	}
	if !r.Killed() {
		t.Fatal("Killed() false after Kill")
	}
}

func TestRunnerKillIdempotent(t *testing.T) {
	r, err := NewRunner(2, false)
	if err != nil {
		t.Fatal(err)
	}
	r.Kill()
	r.Kill() // second call is a no-op
	if !r.Killed() {
		t.Fatal("not killed")
	}
}

func TestRunnerTCPKill(t *testing.T) {
	r, err := NewRunner(2, true)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	go func() {
		<-started
		r.Kill()
	}()
	runErr := r.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			close(started)
		}
		_, err := c.Recv((c.Rank()+1)%2, 99)
		return err
	})
	if !errors.Is(runErr, ErrRevoked) {
		t.Fatalf("killed TCP run returned %v, want ErrRevoked", runErr)
	}
}

func TestAlltoallSparse(t *testing.T) {
	// Graph: rank r sends to r+1 and r+2 (mod n) and, when r is even, to
	// itself — sparse, asymmetric, and deterministic, so every task can
	// derive both its send mask and the matching receive mask locally,
	// exactly as plan-driven collectives derive both from one distribution
	// pair.
	for _, n := range []int{1, 2, 3, 6} {
		n := n
		sends := func(from, to int) bool {
			if from == to {
				return from%2 == 0
			}
			d := (to - from + n) % n
			return d == 1 || d == 2%n
		}
		runBoth(t, n, func(c *Comm) error {
			send := make([][]byte, n)
			sendTo := make([]bool, n)
			recvFrom := make([]bool, n)
			for q := 0; q < n; q++ {
				sendTo[q] = sends(c.Rank(), q)
				recvFrom[q] = sends(q, c.Rank())
				if sendTo[q] {
					send[q] = []byte(fmt.Sprintf("%d->%d", c.Rank(), q))
				}
			}
			got, err := c.AlltoallSparse(send, sendTo, recvFrom)
			if err != nil {
				return err
			}
			for s := 0; s < n; s++ {
				if !recvFrom[s] {
					if got[s] != nil {
						return fmt.Errorf("rank %d: inactive peer %d delivered %q", c.Rank(), s, got[s])
					}
					continue
				}
				want := fmt.Sprintf("%d->%d", s, c.Rank())
				if string(got[s]) != want {
					return fmt.Errorf("rank %d slot %d = %q want %q", c.Rank(), s, got[s], want)
				}
			}
			return nil
		})
	}
}

func TestAlltoallSparseMatchesDense(t *testing.T) {
	// With all-true masks the sparse exchange is the dense one.
	runBoth(t, 4, func(c *Comm) error {
		n := c.Size()
		send := make([][]byte, n)
		all := make([]bool, n)
		for q := 0; q < n; q++ {
			send[q] = []byte{byte(c.Rank()), byte(q)}
			all[q] = true
		}
		dense, err := c.Alltoall(send)
		if err != nil {
			return err
		}
		sparse, err := c.AlltoallSparse(send, all, all)
		if err != nil {
			return err
		}
		for s := 0; s < n; s++ {
			if !reflect.DeepEqual(dense[s], sparse[s]) {
				return fmt.Errorf("rank %d slot %d: dense %v sparse %v", c.Rank(), s, dense[s], sparse[s])
			}
		}
		return nil
	})
}

func TestAlltoallSparseEmptyGraph(t *testing.T) {
	// All-false masks are a legal degenerate call: no traffic, all-nil
	// result, and the collective still lines up across tasks.
	err := Run(3, func(c *Comm) error {
		masks := make([]bool, 3)
		got, err := c.AlltoallSparse(make([][]byte, 3), masks, masks)
		if err != nil {
			return err
		}
		for s, b := range got {
			if b != nil {
				return fmt.Errorf("slot %d non-nil under empty graph", s)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallSparseLengthRejected(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if _, err := c.AlltoallSparse(make([][]byte, 2), make([]bool, 1), make([]bool, 2)); err == nil {
			return fmt.Errorf("short mask accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPackFramesSparseLayout(t *testing.T) {
	// Only non-empty frames are indexed and copied: the header records the
	// active count and the body holds one [idx][len][bytes] record per
	// non-empty frame, so a mostly-empty set costs O(active), not O(ranks).
	parts := [][]byte{nil, {7, 8}, nil, nil, {9}, nil}
	flat := packFrames(parts)
	if got := int(binary.LittleEndian.Uint32(flat)); got != 6 {
		t.Fatalf("frame count = %d, want 6", got)
	}
	if got := int(binary.LittleEndian.Uint32(flat[4:])); got != 2 {
		t.Fatalf("active count = %d, want 2", got)
	}
	if want := 8 + (8 + 2) + (8 + 1); len(flat) != want {
		t.Fatalf("packed %d bytes, want %d", len(flat), want)
	}
	got, err := unpackFrames(flat, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		if len(p) == 0 {
			if got[i] != nil {
				t.Fatalf("frame %d = %v, want nil", i, got[i])
			}
			continue
		}
		if !reflect.DeepEqual(got[i], p) {
			t.Fatalf("frame %d = %v, want %v", i, got[i], p)
		}
	}
}

func TestUnpackFramesAliasesInput(t *testing.T) {
	// The contract: frames are subslices of flat, no defensive copy, and
	// each is capacity-clipped so appending to one cannot clobber the next.
	flat := packFrames([][]byte{{1, 2}, {3}})
	got, err := unpackFrames(flat, 2)
	if err != nil {
		t.Fatal(err)
	}
	flat[8+8] = 99 // first payload byte of frame 0
	if got[0][0] != 99 {
		t.Fatal("unpackFrames copied; expected aliasing")
	}
	if cap(got[0]) != len(got[0]) {
		t.Fatal("frame capacity not clipped to its length")
	}
	_ = append(got[0], 42)
	if got[1][0] != 3 {
		t.Fatal("append to frame 0 clobbered frame 1")
	}
}

func TestUnpackFramesCountMismatchRejected(t *testing.T) {
	if _, err := unpackFrames(packFrames(make([][]byte, 3)), 4); err == nil {
		t.Fatal("count mismatch accepted")
	}
}
