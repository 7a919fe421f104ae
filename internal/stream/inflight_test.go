package stream

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"drms/internal/array"
	"drms/internal/msg"
	"drms/internal/rangeset"
)

// inflightTransport counts the bytes handed to Send and not yet returned by
// Recv, and keeps their high-water mark.
type inflightTransport struct {
	msg.Transport
	now, peak atomic.Int64
}

func (t *inflightTransport) Send(src, dst, tag int, data []byte) error {
	n := t.now.Add(int64(len(data)))
	for p := t.peak.Load(); n > p && !t.peak.CompareAndSwap(p, n); p = t.peak.Load() {
	}
	return t.Transport.Send(src, dst, tag, data)
}

func (t *inflightTransport) Recv(dst, src, tag int, cancel <-chan struct{}) ([]byte, error) {
	b, err := t.Transport.Recv(dst, src, tag, cancel)
	t.now.Add(-int64(len(b)))
	return b, err
}

// TestInFlightBytesStayWithinARound: the exchange hands its buffers to the
// transport, so whatever is sent and not yet received is pinned. Streaming
// a BT-shaped array out and back in over several rounds on 4 tasks — the
// read onto another decomposition — never has more than P × PieceBytes in
// flight. Both decompositions split every piece (a z-plane) four ways, so
// in every round each task trades with every other and the tasks move in
// step: a task sends round r+1 only once it has landed round r, and round
// r+2 only once every task has. What is in flight is then what the
// laggards have yet to land of round r — at most a piece each — and what
// the others have sent of round r+1 — at most a piece's worth each.
func TestInFlightBytesStayWithinARound(t *testing.T) {
	const tasks = 4
	g := rangeset.Box([]int{0, 0, 0, 0}, []int{4, 19, 19, 19})
	o := Options{PieceBytes: 16 << 10}
	if spans, _ := PieceSpans(g, 8, tasks, o); len(spans) < 4*tasks || spans[0].Axis(3).Size() != 1 {
		t.Fatalf("pieces %v: want z-planes, four rounds or more", spans)
	}
	fs := testFS()
	tr := &inflightTransport{Transport: msg.NewLocalTransport(tasks)}
	errs := make([]error, tasks)
	var wg sync.WaitGroup
	for r := 0; r < tasks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := msg.NewComm(rank, tasks, tr)
			errs[rank] = func() error {
				for rep := 0; rep < 2; rep++ { // plans built, plans replayed
					a, err := array.New[float64](c, "u", mustBlock(g, []int{1, 2, 2, 1}))
					if err != nil {
						return err
					}
					a.Fill(coordVal)
					if _, err := Write(a, g, fs, "f", o); err != nil {
						return err
					}
					b, err := array.New[float64](c, "v", mustBlock(g, []int{1, 4, 1, 1}))
					if err != nil {
						return err
					}
					if _, err := Read(b, g, fs, "f", o); err != nil {
						return err
					}
					var bad error
					b.Mapped().Each(rangeset.ColMajor, func(cd []int) {
						if bad == nil && b.At(cd) != coordVal(cd) {
							bad = fmt.Errorf("rank %d: element %v = %v", rank, cd, b.At(cd))
						}
					})
					if bad != nil {
						return bad
					}
				}
				return nil
			}()
			if errs[rank] != nil {
				tr.Abort(msg.ErrRevoked)
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if tr.now.Load() != 0 {
		t.Fatalf("%d bytes sent and never received", tr.now.Load())
	}
	peak, bound := tr.peak.Load(), int64(tasks*o.PieceBytes)
	t.Logf("in-flight high-water mark %d bytes, bound %d", peak, bound)
	if peak == 0 || peak > bound {
		t.Fatalf("%d bytes in flight at once; one round's pieces are at most %d", peak, bound)
	}
}
