package array

// Outside the fallible core a guard may panic.
func guard(ok bool) {
	if !ok {
		panic("escaped storage")
	}
}
