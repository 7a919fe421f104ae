package array

import "sync"

// Wire-buffer pool for the pack/exchange paths. Array assignment and
// streaming pack every moved byte into short-lived []byte buffers; at
// steady state (a checkpoint every few minutes, a shadow exchange every
// iteration) the same handful of sizes recurs, so recycling them keeps
// the pack side allocation-free. The buffers circulate: the packing rank
// takes one per peer, the exchange hands it off (msg.Comm.AlltoallSparse),
// and the rank that lands its bytes puts it back — the sender's own in
// process, the transport's frame over TCP. One get and one put per
// message: the pool never holds more than is taken from it.
var bufPool sync.Pool

// getBuf returns a length-n byte buffer, reusing a pooled one when its
// capacity suffices. Undersized pooled buffers are dropped for the
// garbage collector rather than returned, so the pool converges on the
// largest working-set size.
func getBuf(n int) []byte {
	if p, ok := bufPool.Get().(*[]byte); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]byte, n)
}

// putBuf recycles a buffer this task owns and no longer reads.
func putBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	bufPool.Put(&b)
}
