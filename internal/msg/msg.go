// Package msg is the message-passing substrate the DRMS reproduction runs
// on. The paper's implementation sits on MPL/MPI on an IBM SP; this
// package provides the equivalent primitives from scratch: tagged,
// ordered point-to-point messages between the tasks of a parallel
// application, plus the collectives (barrier, broadcast, gather, reduce,
// all-to-all) the redistribution and streaming layers need.
//
// Two transports are provided: an in-process transport (tasks are
// goroutines exchanging buffers through mailboxes) and a TCP transport
// (tasks exchange length-prefixed frames over loopback sockets),
// preserving the distributed-memory character of the original system.
// All algorithms in this repository are written against Comm and run
// unchanged on either transport.
//
// # Failure semantics
//
// The substrate is fallible and cancelable, matching the paper's failure
// model (§4: loss of a task's connection kills the application, which
// restarts from its latest checkpoint). Every operation returns an error
// instead of panicking or blocking forever:
//
//   - Comm.Revoke (ULFM-style) marks the communicator revoked: every
//     pending and future operation on it — on every rank — returns
//     ErrRevoked instead of blocking. The resource coordinator revokes an
//     application's communicator when it detects a processor failure, so
//     tasks unwind to a clean state the restart path can trust.
//   - The Runner revokes the communicator when any task fails (error or
//     panic), so a death mid-collective propagates to every peer rather
//     than leaving them blocked in Recv.
package msg

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Sentinel errors of the substrate. Operations wrap these, so callers
// test with errors.Is.
var (
	// ErrRevoked reports that the communicator was revoked: a rank died
	// (or the system declared it dead) and every surviving operation
	// unwinds instead of blocking.
	ErrRevoked = errors.New("msg: communicator revoked")
	// ErrClosed reports an operation on a transport that was shut down.
	ErrClosed = errors.New("msg: transport closed")
	// ErrKilled is what a fault-injected victim observes from its own
	// operations once its configured death point is reached.
	ErrKilled = errors.New("msg: rank killed by fault injection")
	// ErrProcFailed reports that the communicator's epoch was retired —
	// ranks were declared dead (Runner.Shrink) or the task count changed
	// (Runner.Resize): survivors observe it from their pending operations
	// and should Park to obtain the next epoch's communicator instead of
	// unwinding (ULFM MPI_ERR_PROC_FAILED semantics).
	ErrProcFailed = errors.New("msg: process failure, communicator shrunk")
	// ErrSuperseded is Park's answer to a goroutine whose rank was
	// declared dead while it was still running (the simulation's node
	// loss does not kill goroutines): a fresh goroutine now owns the
	// rank, so the superseded one must exit without rejoining.
	ErrSuperseded = errors.New("msg: rank superseded by a replacement task")
)

// Comm is a task's endpoint into the parallel application: its rank, the
// task count, and the send/receive primitives. A Comm is used by exactly
// one task (goroutine); distinct Comms may be used concurrently.
type Comm struct {
	rank, size int
	tr         Transport
	collSeq    int // per-rank collective sequence number (advances in lockstep across ranks)
	// epoch numbers the communicator's incarnation within one Runner:
	// 0 for the launch communicator, incremented by every Shrink or
	// Resize.
	epoch int
	// resized is set when Runner.Resize installed the epoch.
	resized bool
	// local is the endpoint's slot for the layers above (Local).
	local map[any]any
}

// NewComm builds the endpoint of one rank over a transport. The runner
// calls it once per task; tests building custom harnesses may too.
func NewComm(rank, size int, tr Transport) *Comm {
	return &Comm{rank: rank, size: size, tr: tr}
}

// Transport moves byte messages between ranks. Implementations must
// deliver messages from a fixed (src, dst, tag) triple in send order,
// and must fail — never block forever — once aborted.
type Transport interface {
	// Send delivers data to dst and takes ownership of it: the caller must
	// not touch data again, whatever the call returns. The transport may
	// deliver the slice itself; what Recv returns is the receiver's.
	Send(src, dst, tag int, data []byte) error
	// Recv blocks until a message with the given source and tag is
	// available at dst and returns its payload. A receive on an aborted
	// (or per-rank closed) transport returns the abort error; a receive
	// canceled through the cancel channel returns errRecvCanceled.
	Recv(dst, src, tag int, cancel <-chan struct{}) ([]byte, error)
	// Close releases transport resources for the given rank; pending and
	// future receives at that rank return ErrClosed.
	Close(rank int)
	// Abort revokes the whole transport: every pending and future
	// operation on any rank returns err. Idempotent; the first error
	// sticks.
	Abort(err error)
	// Err returns the abort error, or nil while the transport is healthy.
	Err() error
}

// errRecvCanceled is the transport-level marker for a receive interrupted
// by its cancel channel.
var errRecvCanceled = errors.New("msg: receive canceled")

// Rank returns this task's rank in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Epoch returns the communicator's epoch: 0 for the launch
// communicator, one higher per Runner.Shrink or Runner.Resize that
// replaced it.
func (c *Comm) Epoch() int { return c.epoch }

// Resized reports whether Runner.Resize installed the communicator's
// epoch, as opposed to the launch or a Shrink: the runtime sends a task
// of such an epoch down the resize-restore path.
func (c *Comm) Resized() bool { return c.resized }

// Size returns the number of tasks in the application.
func (c *Comm) Size() int { return c.size }

// Local returns what the layers above keep on this endpoint under key,
// storing mk() there first if nothing is. msg never looks inside. The
// slot lives and dies with the Comm — one per rank and communicator
// epoch — so what it holds, the array and stream layers' communication
// plans, is released with the epoch that ran it. Like every operation on
// a Comm, Local belongs to the one task that owns the endpoint.
func (c *Comm) Local(key any, mk func() any) any {
	v, ok := c.local[key]
	if !ok {
		if c.local == nil {
			c.local = map[any]any{}
		}
		v = mk()
		c.local[key] = v
	}
	return v
}

// Revoke marks the communicator revoked (ULFM MPI_Comm_revoke): every
// pending and future operation on it, on every rank, returns ErrRevoked.
// Any task — or the system, through the same transport handle — may
// revoke; revocation is idempotent and irreversible.
func (c *Comm) Revoke() { c.tr.Abort(ErrRevoked) }

// Err returns ErrRevoked (or the transport's abort error) once the
// communicator is dead, nil while it is healthy.
func (c *Comm) Err() error { return c.tr.Err() }

// Send delivers data to task dst with the given tag. Tags must be
// non-negative; negative tags are reserved for collectives. Send is
// buffered and does not block on the receiver.
func (c *Comm) Send(dst, tag int, data []byte) error {
	if tag < 0 {
		return fmt.Errorf("msg: negative user tag %d", tag)
	}
	return c.send(dst, tag, data)
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload. Messages from the same (src, tag) are received in
// send order. Recv returns ErrRevoked when the communicator is revoked.
func (c *Comm) Recv(src, tag int) ([]byte, error) {
	if tag < 0 {
		return nil, fmt.Errorf("msg: negative user tag %d", tag)
	}
	return c.recv(src, tag)
}

// send hands off a copy of data, so the caller may reuse its buffer at once
// (MPI semantics).
func (c *Comm) send(dst, tag int, data []byte) error {
	return c.handOff(dst, tag, append([]byte(nil), data...))
}

// handOff delivers data itself: the transport, then the receiver, own it
// from the call on. Only send and AlltoallSparse call it (TestArchitecture).
func (c *Comm) handOff(dst, tag int, data []byte) error {
	if dst < 0 || dst >= c.size {
		return fmt.Errorf("msg: send to rank %d of %d", dst, c.size)
	}
	if err := c.tr.Send(c.rank, dst, tag, data); err != nil {
		msgOpErrors.Inc()
		return err
	}
	msgSends.Inc()
	msgSendBytes.Add(uint64(len(data)))
	return nil
}

func (c *Comm) recv(src, tag int) ([]byte, error) {
	if src < 0 || src >= c.size {
		return nil, fmt.Errorf("msg: recv from rank %d of %d", src, c.size)
	}
	m, err := c.tr.Recv(c.rank, src, tag, nil)
	if err != nil {
		msgOpErrors.Inc()
		return nil, err
	}
	msgRecvs.Inc()
	msgRecvBytes.Add(uint64(len(m)))
	return m, nil
}

// collTag reserves a fresh internal tag for one collective operation.
// SPMD tasks execute collectives in the same global order, so the
// per-rank counters advance in lockstep and matching ranks use matching
// tags.
func (c *Comm) collTag(op int) int {
	c.collSeq++
	return -(c.collSeq*16 + op + 1)
}

const (
	opBarrier = iota
	opBcast
	opGather
	opAlltoall
	opReduce
)

// Barrier blocks until every task has entered the barrier. It uses the
// dissemination algorithm: ceil(log2 n) rounds of pairwise signals.
func (c *Comm) Barrier() error {
	defer observeCollective(time.Now())
	tag := c.collTag(opBarrier)
	// One tag serves every round: the partner ranks differ per round
	// (distinct powers of two are never congruent mod size), so (src, tag)
	// matching stays unambiguous.
	for dist := 1; dist < c.size; dist *= 2 {
		to := (c.rank + dist) % c.size
		from := (c.rank - dist%c.size + c.size) % c.size
		if err := c.send(to, tag, nil); err != nil {
			return err
		}
		if _, err := c.recv(from, tag); err != nil {
			return err
		}
	}
	return nil
}

// Bcast distributes root's buffer to every task and returns it. Non-root
// callers pass nil (any value they pass is ignored). A binomial tree is
// used, as on the SP.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	defer observeCollective(time.Now())
	tag := c.collTag(opBcast)
	rel := (c.rank - root + c.size) % c.size // rank relative to root
	if rel != 0 {
		parent := (((rel - 1) / 2) + root) % c.size
		var err error
		if data, err = c.recv(parent, tag); err != nil {
			return nil, err
		}
	}
	for _, child := range []int{2*rel + 1, 2*rel + 2} {
		if child < c.size {
			if err := c.send((child+root)%c.size, tag, data); err != nil {
				return nil, err
			}
		}
	}
	return data, nil
}

// Gather collects each task's buffer at root. At root the result has one
// entry per rank (entry i from rank i); elsewhere it is nil.
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	defer observeCollective(time.Now())
	tag := c.collTag(opGather)
	if c.rank != root {
		if err := c.send(root, tag, data); err != nil {
			return nil, err
		}
		return nil, nil
	}
	out := make([][]byte, c.size)
	out[root] = append([]byte(nil), data...)
	for r := 0; r < c.size; r++ {
		if r == root {
			continue
		}
		m, err := c.recv(r, tag)
		if err != nil {
			return nil, err
		}
		out[r] = m
	}
	return out, nil
}

// Allgather collects every task's buffer at every task. The returned
// frames share one backing buffer (the broadcast payload); callers that
// mutate one frame must copy it first.
func (c *Comm) Allgather(data []byte) ([][]byte, error) {
	parts, err := c.Gather(0, data)
	if err != nil {
		return nil, err
	}
	// Broadcast the gathered set from root. Frame as length-prefixed
	// concatenation to keep a single Bcast.
	var flat []byte
	if c.rank == 0 {
		flat = packFrames(parts)
	}
	if flat, err = c.Bcast(0, flat); err != nil {
		return nil, err
	}
	return unpackFrames(flat, c.size)
}

// Alltoall performs a personalized all-to-all exchange: send[i] goes to
// rank i, and the result's entry i holds the buffer rank i sent to this
// task. Entries may be nil/empty. This is the workhorse of array
// redistribution. The caller keeps its buffers: Alltoall exchanges copies
// of them as an AlltoallSparse over the complete graph.
func (c *Comm) Alltoall(send [][]byte) ([][]byte, error) {
	if len(send) != c.size {
		return nil, fmt.Errorf("msg: Alltoall with %d buffers for %d ranks", len(send), c.size)
	}
	own := make([][]byte, c.size)
	all := make([]bool, c.size)
	for q := range own {
		own[q] = append([]byte(nil), send[q]...)
		all[q] = true
	}
	return c.AlltoallSparse(own, all, all)
}

// AlltoallSparse is Alltoall restricted to a known communication graph,
// the exchange a precomputed redistribution plan drives: this task sends
// send[q] to exactly the ranks q with sendTo[q] true and receives from
// exactly the ranks q with recvFrom[q] true; all other peers are skipped
// entirely — no message, no empty-frame transport round-trip. The graph
// must be globally consistent (sendTo[q] here iff recvFrom[here] at q —
// guaranteed when both sides derive it from the same pair of
// distributions); an inconsistent graph deadlocks or misroutes, exactly
// as mismatched point-to-point calls would. The self entry travels only
// if sendTo[rank] is set. Result entries for inactive peers are nil.
// Collective: every task must call it, even with all-false masks.
//
// Unlike every other operation it does not copy: each active send[q] is
// handed off — the caller gives it up, whatever the outcome — and in
// process arrives as that very slice, which its receiver owns and may recycle.
func (c *Comm) AlltoallSparse(send [][]byte, sendTo, recvFrom []bool) ([][]byte, error) {
	defer observeCollective(time.Now())
	if len(send) != c.size || len(sendTo) != c.size || len(recvFrom) != c.size {
		return nil, fmt.Errorf("msg: AlltoallSparse with %d/%d/%d entries for %d ranks",
			len(send), len(sendTo), len(recvFrom), c.size)
	}
	tag := c.collTag(opAlltoall)
	recv := make([][]byte, c.size)
	if sendTo[c.rank] {
		recv[c.rank] = send[c.rank]
	}
	// Shifted pairwise schedule, correct for any size: in step s this
	// rank's partner pair is (rank+s, rank-s), and the peer that would send
	// to us in this step is exactly the one our recvFrom mask covers, so
	// the skip decisions pair up across ranks. Sends are buffered, so a
	// step with a send and no receive (or vice versa) cannot deadlock.
	for s := 1; s < c.size; s++ {
		dst := (c.rank + s) % c.size
		src := (c.rank - s + c.size) % c.size
		if sendTo[dst] {
			if err := c.handOff(dst, tag, send[dst]); err != nil {
				return nil, err
			}
		}
		if recvFrom[src] {
			m, err := c.recv(src, tag)
			if err != nil {
				return nil, err
			}
			recv[src] = m
		}
	}
	return recv, nil
}

// ReduceF64 combines one float64 per task with op at root; non-root tasks
// receive 0 and ok=false. Combination uses a fixed rank-ascending order,
// so results are bitwise deterministic and independent of transport
// timing.
func (c *Comm) ReduceF64(root int, v float64, op func(a, b float64) float64) (float64, bool, error) {
	defer observeCollective(time.Now())
	tag := c.collTag(opReduce)
	if c.rank != root {
		if err := c.send(root, tag, f64Bytes(v)); err != nil {
			return 0, false, err
		}
		return 0, false, nil
	}
	acc := 0.0
	first := true
	for r := 0; r < c.size; r++ {
		var rv float64
		if r == root {
			rv = v
		} else {
			m, err := c.recv(r, tag)
			if err != nil {
				return 0, false, err
			}
			rv = bytesF64(m)
		}
		if first {
			acc, first = rv, false
		} else {
			acc = op(acc, rv)
		}
	}
	return acc, true, nil
}

// AllreduceF64 combines one float64 per task with op and returns the
// result on every task, with the same deterministic ordering as
// ReduceF64.
func (c *Comm) AllreduceF64(v float64, op func(a, b float64) float64) (float64, error) {
	r, ok, err := c.ReduceF64(0, v, op)
	if err != nil {
		return 0, err
	}
	var buf []byte
	if ok {
		buf = f64Bytes(r)
	}
	out, err := c.Bcast(0, buf)
	if err != nil {
		return 0, err
	}
	return bytesF64(out), nil
}

// Sum is the addition operator for reductions.
func Sum(a, b float64) float64 { return a + b }

// Max is the maximum operator for reductions.
func Max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Min is the minimum operator for reductions.
func Min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// Run executes f as an SPMD application of n tasks over the in-process
// transport and blocks until every task returns. The first task failure
// (error or panic) revokes the communicator — releasing every peer
// blocked in a collective — and is returned as the run's error.
func Run(n int, f func(c *Comm) error) error {
	r, err := NewRunner(n, false)
	if err != nil {
		return err
	}
	return r.Run(f)
}

// Runner executes SPMD applications over a transport it owns and supports
// killing them from outside — the mechanism the coordination layer uses
// when a processor failure takes an application down (§4: "it kills all
// other processes of that application").
//
// A runner holds one live communicator epoch. Epoch 0 is the launch
// communicator; every Shrink or Resize installs a fresh transport as the
// next epoch and retires the current one — aborted, shut down over TCP
// and dropped (shrink.go) — so nothing the runner keeps grows with the
// number of epochs.
type Runner struct {
	useTCP  bool
	killed  atomic.Bool
	spawned atomic.Int64 // task goroutines ever started (launch, replacements, grown ranks)

	mu    sync.Mutex
	cond  *sync.Cond // signals epoch changes, task exits, kills
	cause error      // root cause of an aborted run

	// The live epoch (all guarded by mu). size starts at the launch task
	// count and changes only through Resize.
	body    func(*Comm) error // the application body, set by Run
	seq     int               // current epoch
	size    int               // current epoch's task count
	tr      Transport         // current epoch's transport (InjectFault may wrap the launch one)
	tcp     *TCPTransport     // tr's socket mesh, shut down at retirement; nil in process
	resized bool              // Resize installed the current epoch
	reborn  map[int]int       // rank -> epoch of its newest goroutine (replacements and retirements)
	active  int               // live task goroutines across all epochs
	ran     bool              // Run was called
	fin     bool              // Run returned (no further epoch)
}

// NewRunner builds a runner for n tasks; tcp selects the socket transport.
func NewRunner(n int, tcp bool) (*Runner, error) {
	if n < 1 {
		return nil, fmt.Errorf("msg: runner of %d tasks", n)
	}
	r := &Runner{size: n, useTCP: tcp, reborn: map[int]int{}}
	r.cond = sync.NewCond(&r.mu)
	if tcp {
		t, err := NewTCPTransport(n)
		if err != nil {
			return nil, err
		}
		r.tr, r.tcp = t, t
	} else {
		r.tr = NewLocalTransport(n)
	}
	return r, nil
}

// InjectFault wraps the runner's transport in a deterministic
// fault-injection layer (see FaultTransport) and returns it for arming.
// Must be called before Run. Only the launch epoch is wrapped: transports
// opened by Shrink or Resize are fresh and fault-free.
func (r *Runner) InjectFault(spec FaultSpec) *FaultTransport {
	r.mu.Lock()
	defer r.mu.Unlock()
	ft := NewFaultTransport(r.tr, spec)
	r.tr = ft
	return ft
}

// Kill revokes the application's communicator from outside: every blocked
// or future operation returns ErrRevoked, so all tasks unwind promptly at
// their next communication, and parked tasks wake and unwind too. This is
// the paper's processor-failure action (§4). Idempotent. Only the current
// epoch needs the abort: a retired one was aborted at its retirement, and
// its tasks find the kill when they park.
func (r *Runner) Kill() {
	if r.killed.Swap(true) {
		return
	}
	r.mu.Lock()
	tr := r.tr
	r.cond.Broadcast()
	r.mu.Unlock()
	tr.Abort(ErrRevoked)
}

// Killed reports whether Kill was called.
func (r *Runner) Killed() bool { return r.killed.Load() }

// Spawned returns how many task goroutines the runner ever started: the
// launch epoch's n plus one per rank replaced by a Shrink or added by a
// growing Resize. A localized recovery that truly parked its survivors
// shows exactly n + len(dead) here — the observable proof that survivor
// goroutines persisted.
func (r *Runner) Spawned() int64 { return r.spawned.Load() }

func (r *Runner) shutdown() {
	r.mu.Lock()
	r.fin = true
	tr, tcp, size := r.tr, r.tcp, r.size
	r.mu.Unlock()
	if tcp != nil {
		tcp.Shutdown()
		return
	}
	for rank := 0; rank < size; rank++ {
		tr.Close(rank)
	}
}

// fail records a task failure and revokes the communicator so every peer,
// parked or running, unwinds. The root cause is the first failure that is
// not itself a revocation echo: when task 3 dies and tasks 0-2 then
// observe ErrRevoked, the run's error is task 3's.
func (r *Runner) fail(err error) {
	r.mu.Lock()
	if r.cause == nil || (errors.Is(r.cause, ErrRevoked) && !errors.Is(err, ErrRevoked)) {
		r.cause = err
	}
	tr := r.tr
	r.cond.Broadcast()
	r.mu.Unlock()
	tr.Abort(ErrRevoked)
}

// Err returns the run's root-cause error (nil while healthy or after a
// clean run).
func (r *Runner) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cause
}

// commLocked returns rank's endpoint into the live epoch. r.mu must be
// held.
func (r *Runner) commLocked(rank int) *Comm {
	c := NewComm(rank, r.size, r.tr)
	c.epoch, c.resized = r.seq, r.resized
	return c
}

// runTask executes the application body for one rank of one epoch and
// folds its outcome into the run.
func (r *Runner) runTask(c *Comm) {
	rank := c.rank // c is the body's: it drops it when it parks
	r.spawned.Add(1)
	defer func() {
		if p := recover(); p != nil {
			r.fail(fmt.Errorf("task %d panicked: %v", rank, p))
		}
		r.mu.Lock()
		r.active--
		if r.active == 0 {
			r.cond.Broadcast()
		}
		r.mu.Unlock()
	}()
	if err := r.body(c); err != nil {
		r.fail(fmt.Errorf("task %d: %w", rank, err))
	}
}

// Run executes f on every rank and blocks until all return — including
// the tasks a Shrink or a growing Resize spawns along the way. The first
// task failure — a returned error or a panic — revokes the communicator
// (releasing peers blocked mid-collective) and becomes the returned
// error; peers' secondary ErrRevoked errors are subsumed by it.
func (r *Runner) Run(f func(c *Comm) error) error {
	defer r.shutdown()
	r.mu.Lock()
	r.body = f
	r.ran = true
	comms := make([]*Comm, r.size)
	for rank := range comms {
		comms[rank] = r.commLocked(rank)
	}
	r.active += len(comms)
	r.mu.Unlock()
	for _, c := range comms {
		go r.runTask(c)
	}
	r.mu.Lock()
	for r.active > 0 {
		r.cond.Wait()
	}
	r.mu.Unlock()
	return r.Err()
}
