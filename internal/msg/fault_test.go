package msg

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
)

// perRankErrs collects each rank's returned error so tests can assert on
// the full failure picture, not just the run's root cause.
type perRankErrs struct {
	mu   sync.Mutex
	errs []error
}

func newPerRankErrs(n int) *perRankErrs { return &perRankErrs{errs: make([]error, n)} }

func (p *perRankErrs) set(rank int, err error) error {
	p.mu.Lock()
	p.errs[rank] = err
	p.mu.Unlock()
	return err
}

// barrierLoop is the standard entangled workload: every rank runs rounds
// of the dissemination barrier, so no rank can make progress once any
// rank stops participating.
func barrierLoop(rounds int, completed []int64) func(c *Comm) error {
	return func(c *Comm) error {
		for i := 0; i < rounds; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
			if completed != nil {
				completed[c.Rank()]++
			}
		}
		return nil
	}
}

func TestRevokeReleasesBlockedPeers(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		name := "local"
		if tcp {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			const n = 4
			r, err := NewRunner(n, tcp)
			if err != nil {
				t.Fatal(err)
			}
			per := newPerRankErrs(n)
			parked := make(chan struct{}, n-1)
			runErr := r.Run(func(c *Comm) error {
				if c.Rank() == 0 {
					// Wait until every peer is about to park, then revoke.
					for i := 0; i < n-1; i++ {
						<-parked
					}
					c.Revoke()
					if err := c.Err(); !errors.Is(err, ErrRevoked) {
						return fmt.Errorf("Err() after Revoke = %v", err)
					}
					return per.set(0, ErrRevoked)
				}
				parked <- struct{}{}
				// A receive that will never be satisfied: only revocation
				// can release it.
				_, err := c.Recv(0, 42)
				return per.set(c.Rank(), err)
			})
			if !errors.Is(runErr, ErrRevoked) {
				t.Fatalf("run error = %v, want ErrRevoked", runErr)
			}
			for rank := 1; rank < n; rank++ {
				if !errors.Is(per.errs[rank], ErrRevoked) {
					t.Errorf("rank %d returned %v, want ErrRevoked", rank, per.errs[rank])
				}
			}
		})
	}
}

func TestFaultKillAtOpIsDeterministic(t *testing.T) {
	// Kill rank 2 at its 5th transport operation. With 4 ranks a barrier
	// costs 4 operations (2 dissemination rounds x send+recv), so the
	// victim completes exactly 1 barrier and dies on the first operation
	// of its 2nd — on every run.
	const (
		n      = 4
		victim = 2
		atOp   = 5
	)
	for run := 0; run < 3; run++ {
		r, err := NewRunner(n, false)
		if err != nil {
			t.Fatal(err)
		}
		ft := r.InjectFault(FaultSpec{Victim: victim, AtOp: atOp})
		completed := make([]int64, n)
		runErr := r.Run(barrierLoop(10, completed))
		if !errors.Is(runErr, ErrKilled) {
			t.Fatalf("run %d: error = %v, want ErrKilled as root cause", run, runErr)
		}
		if !ft.Dead() {
			t.Fatalf("run %d: victim not marked dead", run)
		}
		if completed[victim] != 1 {
			t.Fatalf("run %d: victim completed %d barriers, want exactly 1", run, completed[victim])
		}
	}
}

func TestFaultSurvivorsObserveRevocation(t *testing.T) {
	// The paper's §4 failure sequence at transport scale: one rank dies
	// mid-collective, the runner revokes the communicator, and every
	// survivor's in-flight operation returns ErrRevoked instead of
	// blocking forever. Exercised over real sockets as well as channels.
	for _, tcp := range []bool{false, true} {
		name := "local"
		if tcp {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			const (
				n      = 4
				victim = 1
			)
			r, err := NewRunner(n, tcp)
			if err != nil {
				t.Fatal(err)
			}
			r.InjectFault(FaultSpec{Victim: victim, AtOp: 3})
			per := newPerRankErrs(n)
			runErr := r.Run(func(c *Comm) error {
				return per.set(c.Rank(), barrierLoop(10, nil)(c))
			})
			if !errors.Is(runErr, ErrKilled) {
				t.Fatalf("run error = %v, want ErrKilled as root cause", runErr)
			}
			if !errors.Is(per.errs[victim], ErrKilled) {
				t.Fatalf("victim returned %v, want ErrKilled", per.errs[victim])
			}
			for rank := 0; rank < n; rank++ {
				if rank == victim {
					continue
				}
				if !errors.Is(per.errs[rank], ErrRevoked) {
					t.Errorf("survivor %d returned %v, want ErrRevoked", rank, per.errs[rank])
				}
			}
		})
	}
}

func TestFaultArmKillsAtNextOp(t *testing.T) {
	// AtOp = 0 is the hook-driven mode: the victim dies at its first
	// transport operation after Arm, letting tests place the death at an
	// exact point of a higher-level protocol.
	const (
		n      = 3
		victim = 2
	)
	r, err := NewRunner(n, false)
	if err != nil {
		t.Fatal(err)
	}
	ft := r.InjectFault(FaultSpec{Victim: victim})
	killed := false
	ft.OnKill(func() { killed = true })
	armAfter := 3
	completed := make([]int64, n)
	runErr := r.Run(func(c *Comm) error {
		for i := 0; i < 10; i++ {
			if c.Rank() == 0 && i == armAfter {
				ft.Arm()
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			completed[c.Rank()]++
		}
		return nil
	})
	if !errors.Is(runErr, ErrKilled) {
		t.Fatalf("run error = %v, want ErrKilled", runErr)
	}
	if !killed {
		t.Fatal("OnKill hook did not fire")
	}
	if !ft.Dead() {
		t.Fatal("victim not marked dead")
	}
	// Before arming, the victim makes normal progress.
	if completed[victim] < 1 {
		t.Fatalf("victim completed %d barriers before dying, want >= 1", completed[victim])
	}
}

func TestFaultVictimStaysDead(t *testing.T) {
	// Once dead, every further operation of the victim fails — the process
	// is gone, it cannot half-participate.
	tr := NewLocalTransport(2)
	ft := NewFaultTransport(tr, FaultSpec{Victim: 0, AtOp: 1})
	if err := ft.Send(0, 1, 0, nil); !errors.Is(err, ErrKilled) {
		t.Fatalf("first victim op = %v, want ErrKilled", err)
	}
	if err := ft.Send(0, 1, 0, nil); !errors.Is(err, ErrKilled) {
		t.Fatalf("post-death victim send = %v, want ErrKilled", err)
	}
	if _, err := ft.Recv(0, 1, 0, nil); !errors.Is(err, ErrKilled) {
		t.Fatalf("post-death victim recv = %v, want ErrKilled", err)
	}
	// Non-victims are untouched.
	if err := ft.Send(1, 1, 0, []byte{1}); err != nil {
		t.Fatalf("non-victim send = %v", err)
	}
}

// DropConn severs the socket pair between ranks a and b without touching
// mailboxes — the fault injector's "lost TC connection": subsequent
// sends on the pair fail at the socket layer and the reader pumps exit.
func (t *TCPTransport) DropConn(a, b int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, key := range [][2]int{{a, b}, {b, a}} {
		if fc := t.ends[key]; fc != nil {
			fc.c.Close()
		}
	}
}

func TestDropConnFailsSendAndRevokesRun(t *testing.T) {
	// Severing one socket pair is the transport-level "lost connection"
	// event: the next send on the pair fails, the runner revokes, and the
	// peer parked in Recv is released rather than hung.
	const n = 2
	r, err := NewRunner(n, true)
	if err != nil {
		t.Fatal(err)
	}
	dropped := make(chan struct{})
	per := newPerRankErrs(n)
	runErr := r.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			r.tcp.DropConn(0, 1)
			close(dropped)
			// The socket to rank 1 is gone; this send must fail, not block.
			err := c.Send(1, 7, []byte("after drop"))
			if err == nil {
				return fmt.Errorf("send over a dropped connection succeeded")
			}
			return per.set(0, err)
		}
		<-dropped
		_, err := c.Recv(0, 7)
		return per.set(1, err)
	})
	if runErr == nil {
		t.Fatal("run with a dropped connection reported success")
	}
	if per.errs[0] == nil || errors.Is(per.errs[0], ErrRevoked) {
		t.Fatalf("rank 0 send error = %v, want a socket-layer failure", per.errs[0])
	}
	if !errors.Is(per.errs[1], ErrRevoked) {
		t.Fatalf("rank 1 recv error = %v, want ErrRevoked", per.errs[1])
	}
}

// retiringConn is a socket whose write loses the race to its epoch's
// retirement: the transport is aborted and shut down under the writer.
type retiringConn struct {
	net.Conn
	t *TCPTransport
}

func (c retiringConn) Write([]byte) (int, error) {
	c.t.Abort(ErrProcFailed)
	c.Conn.Close()
	return 0, net.ErrClosed
}

// TestSendRacingRetirementReturnsAbortError: a send whose socket is shut
// down because the transport was aborted meanwhile reports the abort
// error, so a survivor of a retired epoch parks instead of failing the
// run on a socket error.
func TestSendRacingRetirementReturnsAbortError(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Shutdown()
	fc := tr.ends[[2]int{0, 1}]
	fc.c = retiringConn{Conn: fc.c, t: tr}
	if err := tr.Send(0, 1, 7, []byte("in flight")); !errors.Is(err, ErrProcFailed) {
		t.Fatalf("send racing the retirement = %v, want ErrProcFailed", err)
	}
}

// TestRecvCancelLeavesTransportHealthy: a receive released through the
// Transport's cancel channel returns errRecvCanceled without aborting
// the transport, and the message it was waiting for is still delivered
// to the next receive, on both transports.
func TestRecvCancelLeavesTransportHealthy(t *testing.T) {
	tcp, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Shutdown()
	for name, tr := range map[string]Transport{"local": NewLocalTransport(2), "tcp": tcp} {
		t.Run(name, func(t *testing.T) {
			cancel := make(chan struct{})
			close(cancel)
			if _, err := tr.Recv(1, 0, 9, cancel); !errors.Is(err, errRecvCanceled) {
				t.Fatalf("canceled recv = %v, want errRecvCanceled", err)
			}
			if err := tr.Err(); err != nil {
				t.Fatalf("transport aborted by a canceled recv: %v", err)
			}
			if err := tr.Send(0, 1, 9, []byte("late")); err != nil {
				t.Fatal(err)
			}
			if got, err := tr.Recv(1, 0, 9, nil); err != nil || string(got) != "late" {
				t.Fatalf("recv after cancel = %q, %v", got, err)
			}
		})
	}
}

// TestChaosPlanReplaysFromSeed checks a chaos plan is a pure function of
// its seed and the successive pool sizes: the same seed replays the same
// kill schedule, the budget bounds the kills, and victims always fit the
// pool they were drawn for.
func TestChaosPlanReplaysFromSeed(t *testing.T) {
	pools := []int{8, 4, 4, 8, 2, 6, 3}
	draw := func() []FaultSpec {
		p := NewChaosPlan(42, 5, 10, 300)
		var specs []FaultSpec
		for _, n := range pools {
			if s := p.Next(n); s != nil {
				specs = append(specs, *s)
			}
		}
		if p.Kills() != 5 {
			t.Fatalf("Kills = %d, want budget 5", p.Kills())
		}
		return specs
	}
	a, b := draw(), draw()
	if len(a) != 5 {
		t.Fatalf("budget 5 issued %d specs", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across replays: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Victim < 0 || a[i].Victim >= pools[i] {
			t.Fatalf("draw %d victim %d outside pool of %d", i, a[i].Victim, pools[i])
		}
		if a[i].AtOp < 10 || a[i].AtOp > 300 {
			t.Fatalf("draw %d AtOp %d outside [10,300]", i, a[i].AtOp)
		}
	}
	if NewChaosPlan(43, 5, 10, 300).Next(8).AtOp == a[0].AtOp &&
		NewChaosPlan(43, 5, 10, 300).Next(8).Victim == a[0].Victim {
		t.Fatal("different seeds produced an identical first draw (suspicious)")
	}
}
