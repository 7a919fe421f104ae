package msg

import (
	"sync"
	"sync/atomic"
)

// LocalTransport delivers messages between tasks running as goroutines in
// one process. Each rank owns a mailbox keyed by (source, tag); senders
// append, receivers block until a matching message arrives or the box
// fails. Delivery from a fixed (src, tag) is FIFO.
type LocalTransport struct {
	boxes   []*mailbox
	aborted atomic.Pointer[abortErr]
}

type abortErr struct{ err error }

type mailKey struct {
	src, tag int
}

// mailbox is the per-rank message store shared by the local and TCP
// transports. Waiting is channel-based rather than condvar-based so a
// receive can select on delivery, failure, and caller-side cancellation
// simultaneously: wake is closed (and replaced) whenever state changes
// and a receiver is parked.
type mailbox struct {
	mu      sync.Mutex
	queues  map[mailKey][][]byte
	wake    chan struct{}
	waiters int
	err     error // sticky failure: ErrClosed, ErrRevoked, ...
}

func newMailbox() *mailbox {
	return &mailbox{queues: make(map[mailKey][][]byte), wake: make(chan struct{})}
}

// notifyLocked wakes every parked receiver. Caller holds b.mu.
func (b *mailbox) notifyLocked() {
	if b.waiters > 0 {
		close(b.wake)
		b.wake = make(chan struct{})
	}
}

// deliver appends a message, which the mailbox owns from then on.
// Messages arriving after failure are dropped: the receiver is unwinding
// and will never look.
func (b *mailbox) deliver(k mailKey, payload []byte) {
	b.mu.Lock()
	if b.err == nil {
		b.queues[k] = append(b.queues[k], payload)
		b.notifyLocked()
	}
	b.mu.Unlock()
}

// fail marks the mailbox dead with err (first error sticks) and releases
// every parked receiver.
func (b *mailbox) fail(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.notifyLocked()
	b.mu.Unlock()
}

// recv blocks until a message matching k is available, the mailbox fails,
// or cancel fires; already-queued messages are drained even after
// failure-free cancellation.
func (b *mailbox) recv(k mailKey, cancel <-chan struct{}) ([]byte, error) {
	b.mu.Lock()
	for {
		if q := b.queues[k]; len(q) > 0 {
			m := q[0]
			if len(q) == 1 {
				delete(b.queues, k)
			} else {
				q[0] = nil // m is the receiver's to recycle: do not pin it
				b.queues[k] = q[1:]
			}
			b.mu.Unlock()
			return m, nil
		}
		if b.err != nil {
			err := b.err
			b.mu.Unlock()
			return nil, err
		}
		b.waiters++
		wake := b.wake
		b.mu.Unlock()
		select {
		case <-wake:
			b.mu.Lock()
			b.waiters--
		case <-cancel:
			b.mu.Lock()
			b.waiters--
			b.mu.Unlock()
			return nil, errRecvCanceled
		}
	}
}

// NewLocalTransport creates a transport connecting n ranks.
func NewLocalTransport(n int) *LocalTransport {
	t := &LocalTransport{boxes: make([]*mailbox, n)}
	for i := range t.boxes {
		t.boxes[i] = newMailbox()
	}
	return t
}

// Send implements Transport. Ranks share one address space, so the
// receiver gets data itself, by reference: nothing is copied.
func (t *LocalTransport) Send(src, dst, tag int, data []byte) error {
	if err := t.Err(); err != nil {
		return err
	}
	t.boxes[dst].deliver(mailKey{src, tag}, data)
	return nil
}

// Recv implements Transport.
func (t *LocalTransport) Recv(dst, src, tag int, cancel <-chan struct{}) ([]byte, error) {
	return t.boxes[dst].recv(mailKey{src, tag}, cancel)
}

// Close implements Transport: pending and future receives at rank return
// ErrClosed (unless the transport was already aborted with another
// error).
func (t *LocalTransport) Close(rank int) {
	t.boxes[rank].fail(ErrClosed)
}

// Abort implements Transport: the whole transport fails with err, every
// rank's pending and future operations included.
func (t *LocalTransport) Abort(err error) {
	t.aborted.CompareAndSwap(nil, &abortErr{err})
	err = t.Err() // first abort wins everywhere
	for _, b := range t.boxes {
		b.fail(err)
	}
}

// Err implements Transport.
func (t *LocalTransport) Err() error {
	if a := t.aborted.Load(); a != nil {
		return a.err
	}
	return nil
}
