package msg

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"weak"
)

// handOffBody runs one AlltoallSparse on every rank of a dense graph, self
// entry included, and hands each received frame with the buffer its sender
// gave up to check. The senders' buffers are recorded before the call;
// receiving a frame orders the record before its read.
func handOffBody(check func(got, sent []byte) error) func(c *Comm) error {
	var mu sync.Mutex
	sent := map[[2]int][]byte{}
	return func(c *Comm) error {
		n := c.Size()
		send, all := make([][]byte, n), make([]bool, n)
		for q := range send {
			send[q] = bytes.Repeat([]byte{byte(c.Rank()), byte(q)}, 64)
			all[q] = true
		}
		mu.Lock()
		for q, b := range send {
			sent[[2]int{c.Rank(), q}] = b
		}
		mu.Unlock()
		got, err := c.AlltoallSparse(send, all, all)
		if err != nil {
			return err
		}
		for s := range got {
			mu.Lock()
			want := sent[[2]int{s, c.Rank()}]
			mu.Unlock()
			if err := check(got[s], want); err != nil {
				return fmt.Errorf("rank %d, frame from %d: %w", c.Rank(), s, err)
			}
		}
		return nil
	}
}

// TestAlltoallSparseHandsOff pins the one collective that does not copy: in
// process — directly and through a fault injector — each rank receives the
// very buffer its sender handed off; over TCP it receives the same bytes.
func TestAlltoallSparseHandsOff(t *testing.T) {
	same := func(got, sent []byte) error {
		if len(got) == 0 || &got[0] != &sent[0] {
			return fmt.Errorf("received a copy, not the sender's buffer")
		}
		return nil
	}
	t.Run("local", func(t *testing.T) {
		if err := Run(4, handOffBody(same)); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("fault", func(t *testing.T) {
		r, err := NewRunner(4, false)
		if err != nil {
			t.Fatal(err)
		}
		r.InjectFault(FaultSpec{Victim: -1}) // counts operations, kills nobody
		if err := r.Run(handOffBody(same)); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("tcp", func(t *testing.T) {
		err := runTCP(4, handOffBody(func(got, sent []byte) error {
			if !bytes.Equal(got, sent) {
				return fmt.Errorf("got %v, sent %v", got, sent)
			}
			return nil
		}))
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestMailboxDropsReceivedPayload: once received, a payload belongs to the
// receiver, which may recycle it — the queue it came from must not keep it
// reachable, even while later messages of the same key wait behind it.
func TestMailboxDropsReceivedPayload(t *testing.T) {
	b := newMailbox()
	k := mailKey{src: 0, tag: 1}
	b.deliver(k, make([]byte, 1<<10))
	b.deliver(k, make([]byte, 1<<10))
	m, err := b.recv(k, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := weak.Make(&m[0])
	m = nil
	runtime.GC()
	if w.Value() != nil {
		t.Fatal("the mailbox keeps a received payload reachable")
	}
	runtime.KeepAlive(b)
}
