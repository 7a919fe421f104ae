package msg

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// TCPTransport connects the ranks of an application over loopback TCP
// sockets: a full mesh with one duplex connection per rank pair, each
// carrying length-prefixed frames. It exists to keep the reproduction
// honest about the paper's setting — tasks on an RS/6000 SP share no
// memory — so every byte the algorithms exchange really crosses a socket.
type TCPTransport struct {
	n       int
	boxes   []*mailbox
	mu      sync.Mutex
	ends    map[[2]int]*frameConn // key: {owner rank, peer rank} — the endpoint owner writes to
	wg      sync.WaitGroup
	aborted atomic.Pointer[abortErr]
}

type frameConn struct {
	mu  sync.Mutex // serializes frame writes from one owner
	c   net.Conn
	hdr [8]byte // the frame header being written; guarded by mu
}

// frame layout: tag int32 | len uint32 | payload. The sender and receiver
// ranks are fixed per endpoint, so frames need not carry them.

// NewTCPTransport builds a fully connected transport for n ranks on
// loopback. It blocks until the mesh is established.
func NewTCPTransport(n int) (*TCPTransport, error) {
	t := &TCPTransport{
		n:     n,
		boxes: make([]*mailbox, n),
		ends:  make(map[[2]int]*frameConn),
	}
	for i := range t.boxes {
		t.boxes[i] = newMailbox()
	}

	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("msg: listen for rank %d: %w", i, err)
		}
		listeners[i] = l
	}
	defer func() {
		for _, l := range listeners {
			l.Close()
		}
	}()

	// Rank j accepts one connection from every lower rank; rank i dials
	// every higher rank and announces itself with a 4-byte rank header.
	errs := make(chan error, n*n)
	var wg sync.WaitGroup
	for j := 1; j < n; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for k := 0; k < j; k++ {
				conn, err := listeners[j].Accept()
				if err != nil {
					errs <- err
					return
				}
				var hdr [4]byte
				if _, err := io.ReadFull(conn, hdr[:]); err != nil {
					errs <- err
					return
				}
				peer := int(binary.LittleEndian.Uint32(hdr[:]))
				t.addEndpoint(j, peer, conn)
			}
		}(j)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			wg.Add(1)
			go func(i, j int) {
				defer wg.Done()
				conn, err := net.Dial("tcp", listeners[j].Addr().String())
				if err != nil {
					errs <- err
					return
				}
				var hdr [4]byte
				binary.LittleEndian.PutUint32(hdr[:], uint32(i))
				if _, err := conn.Write(hdr[:]); err != nil {
					errs <- err
					return
				}
				t.addEndpoint(i, j, conn)
			}(i, j)
		}
	}
	wg.Wait()
	select {
	case err := <-errs:
		return nil, fmt.Errorf("msg: establishing TCP mesh: %w", err)
	default:
	}
	return t, nil
}

// addEndpoint registers owner's endpoint of its connection to peer and
// starts the reader pump: every frame read from this endpoint was sent by
// peer to owner.
func (t *TCPTransport) addEndpoint(owner, peer int, c net.Conn) {
	fc := &frameConn{c: c}
	t.mu.Lock()
	t.ends[[2]int{owner, peer}] = fc
	t.mu.Unlock()

	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for {
			var hdr [8]byte
			if _, err := io.ReadFull(c, hdr[:]); err != nil {
				return // connection closed
			}
			tag := int(int32(binary.LittleEndian.Uint32(hdr[0:4])))
			n := int(binary.LittleEndian.Uint32(hdr[4:8]))
			payload := make([]byte, n)
			if _, err := io.ReadFull(c, payload); err != nil {
				return
			}
			t.deliver(peer, owner, tag, payload)
		}
	}()
}

func (t *TCPTransport) deliver(src, dst, tag int, payload []byte) {
	t.boxes[dst].deliver(mailKey{src, tag}, payload)
}

// Send implements Transport. A write failure on the underlying socket
// means the peer's connection is gone — the paper's processor-failure
// signal — and is returned to the caller; the coordination layer decides
// whether to revoke. A write that fails because the transport was aborted
// and shut down meanwhile (a retired epoch's mesh) returns the abort
// error instead, so a survivor parks rather than failing the run. The
// header and data go out in one gathered write and data is dropped after
// it; a self-send delivers data itself.
func (t *TCPTransport) Send(src, dst, tag int, data []byte) error {
	if err := t.Err(); err != nil {
		return err
	}
	if src == dst {
		t.deliver(src, dst, tag, data)
		return nil
	}
	t.mu.Lock()
	fc := t.ends[[2]int{src, dst}]
	t.mu.Unlock()
	if fc == nil {
		return fmt.Errorf("msg: no connection from rank %d to %d", src, dst)
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	binary.LittleEndian.PutUint32(fc.hdr[0:4], uint32(int32(tag)))
	binary.LittleEndian.PutUint32(fc.hdr[4:8], uint32(len(data)))
	frame := net.Buffers{fc.hdr[:], data}
	if _, err := frame.WriteTo(fc.c); err != nil {
		if aerr := t.Err(); aerr != nil {
			return aerr
		}
		return fmt.Errorf("msg: send %d->%d: %w", src, dst, err)
	}
	return nil
}

// Recv implements Transport.
func (t *TCPTransport) Recv(dst, src, tag int, cancel <-chan struct{}) ([]byte, error) {
	return t.boxes[dst].recv(mailKey{src, tag}, cancel)
}

// Close implements Transport: pending and future receives at rank return
// ErrClosed.
func (t *TCPTransport) Close(rank int) {
	t.boxes[rank].fail(ErrClosed)
}

// Abort implements Transport: every rank's pending and future operations
// fail with err. The sockets are left to Shutdown — survivors are parked
// in mailboxes, not socket reads, so failing the boxes is what unblocks
// them.
func (t *TCPTransport) Abort(err error) {
	t.aborted.CompareAndSwap(nil, &abortErr{err})
	err = t.Err()
	for _, b := range t.boxes {
		b.fail(err)
	}
}

// Err implements Transport.
func (t *TCPTransport) Err() error {
	if a := t.aborted.Load(); a != nil {
		return a.err
	}
	return nil
}

// Shutdown tears down every socket and waits for reader pumps to exit.
func (t *TCPTransport) Shutdown() {
	for r := 0; r < t.n; r++ {
		t.Close(r)
	}
	t.mu.Lock()
	for _, fc := range t.ends {
		fc.c.Close() // each endpoint is a distinct net.Conn
	}
	t.mu.Unlock()
	t.wg.Wait()
}
