package ckpt

// A second reader: the violation.
func restorePartial(a ArrayRef) error {
	_, err := a.StreamRead(nil, "ck.arr.u", opts)
	return err
}
