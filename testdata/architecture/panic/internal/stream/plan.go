package stream

// A panic in the fallible core: the violation. panic("in a string") and
// panic( in this comment do not count.
func plan(n int) int {
	if n < 0 {
		panic("negative")
	}
	return n
}
