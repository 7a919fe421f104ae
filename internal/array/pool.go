package array

import "sync"

// Wire-buffer pool for the pack/exchange paths. Array assignment and
// streaming pack every moved byte into short-lived []byte buffers; at
// steady state (a checkpoint every few minutes, a shadow exchange every
// iteration) the same handful of sizes recurs, so recycling them keeps
// the pack side allocation-free. Buffers are handed to the message
// transport, which copies on Send and never retains them, so a buffer is
// safe to recycle as soon as the collective that carried it returns.
// Only what getBuf handed out comes back: the transport's receive copies
// are not fed in, or the pool would hold more than is ever taken from it.
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

// putBuf recycles a buffer obtained from getBuf.
func putBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	bufPool.Put(&b)
}
