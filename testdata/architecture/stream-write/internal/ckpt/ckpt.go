package ckpt

// The one restore engine.
func restoreDRMS(a ArrayRef) error {
	_, err := a.StreamRead(nil, "ck.arr.u", opts)
	return err
}
