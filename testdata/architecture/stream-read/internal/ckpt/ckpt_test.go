package ckpt

// A test may read a stream itself.
func readBack(a ArrayRef) error {
	_, err := a.StreamRead(nil, "ck.arr.u", opts)
	return err
}
