package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"drms/internal/msg"
)

// countingTransport wraps a msg.Transport and counts, from outside the
// message layer, what crosses it: sends, payload bytes, and the time
// ranks sat blocked in Recv. The layer probes run ckpt calls over it to
// attribute a checkpoint's message traffic without reading the program's
// own counters. Counters are kept per rank — a send counts for its
// source, a receive for its destination — so a rank reading its own
// between two points of its own program gets an exact count, whatever
// its peers are still doing.
type countingTransport struct {
	msg.Transport
	ranks []rankCounters
}

type rankCounters struct {
	sends, bytes, recvWait atomic.Int64 // recvWait in nanoseconds
}

func newCountingTransport(n int) *countingTransport {
	return &countingTransport{Transport: msg.NewLocalTransport(n), ranks: make([]rankCounters, n)}
}

func (t *countingTransport) Send(src, dst, tag int, data []byte) error {
	t.ranks[src].sends.Add(1)
	t.ranks[src].bytes.Add(int64(len(data)))
	return t.Transport.Send(src, dst, tag, data)
}

func (t *countingTransport) Recv(dst, src, tag int, cancel <-chan struct{}) ([]byte, error) {
	start := time.Now()
	b, err := t.Transport.Recv(dst, src, tag, cancel)
	t.ranks[dst].recvWait.Add(int64(time.Since(start)))
	return b, err
}

// msgCounts is a reading of one rank's counters, or a sum of readings.
type msgCounts struct {
	sends, bytes int64
	recvWait     time.Duration
}

func (t *countingTransport) rank(r int) msgCounts {
	c := &t.ranks[r]
	return msgCounts{sends: c.sends.Load(), bytes: c.bytes.Load(), recvWait: time.Duration(c.recvWait.Load())}
}

// total sums every rank's counters; exact once the ranks are quiescent.
func (t *countingTransport) total() msgCounts {
	var sum msgCounts
	for r := range t.ranks {
		sum = sum.add(t.rank(r))
	}
	return sum
}

func (a msgCounts) add(b msgCounts) msgCounts {
	return msgCounts{sends: a.sends + b.sends, bytes: a.bytes + b.bytes, recvWait: a.recvWait + b.recvWait}
}

func (a msgCounts) sub(b msgCounts) msgCounts {
	return msgCounts{sends: a.sends - b.sends, bytes: a.bytes - b.bytes, recvWait: a.recvWait - b.recvWait}
}

// spmd runs fn as n ranks over the transport, each on its own goroutine
// with its own msg.Comm, and waits for all of them. The first error
// aborts the transport, so peers blocked in a collective unwind instead of
// hanging, and is the one returned.
func spmd(n int, tr msg.Transport, fn func(c *msg.Comm) error) error {
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if err := fn(msg.NewComm(rank, n, tr)); err != nil {
				once.Do(func() {
					first = fmt.Errorf("rank %d: %w", rank, err)
					tr.Abort(msg.ErrRevoked)
				})
			}
		}(r)
	}
	wg.Wait()
	return first
}

// timedCollective runs step k times on every rank, each repetition
// bracketed by barriers, and returns rank 0's per-repetition times: the
// time from all ranks ready to all ranks done, as seen by one of them.
// prep, if not nil, runs before each repetition's opening barrier,
// outside the timed window. Only rank 0's slice is filled.
func timedCollective(c *msg.Comm, k int, prep, step func(i int) error) ([]time.Duration, error) {
	var out []time.Duration
	for i := 0; i < k; i++ {
		if prep != nil {
			if err := prep(i); err != nil {
				return nil, err
			}
		}
		if err := c.Barrier(); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := step(i); err != nil {
			return nil, err
		}
		if err := c.Barrier(); err != nil {
			return nil, err
		}
		if c.Rank() == 0 {
			out = append(out, time.Since(start))
		}
	}
	return out, nil
}
