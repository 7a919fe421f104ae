package stream

// A test may panic inside an SPMD body.
func check(ok bool) {
	if !ok {
		panic("assertion")
	}
}
