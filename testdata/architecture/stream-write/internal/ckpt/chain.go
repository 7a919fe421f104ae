package ckpt

// The one encoder.
func WriteDRMSChained(a ArrayRef) error {
	_, err := a.StreamWrite(nil, "ck.arr.u", opts)
	return err
}
