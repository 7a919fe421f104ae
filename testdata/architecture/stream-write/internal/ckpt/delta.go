package ckpt

// A second writer: the violation.
func writeDelta(a ArrayRef) error {
	_, err := a.StreamWrite(nil, "ck.arr.u", opts)
	return err
}
