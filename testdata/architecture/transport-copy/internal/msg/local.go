package msg

// Delivered as it is.
func (t *LocalTransport) Send(src, dst, tag int, data []byte) error {
	t.box(dst) <- data
	return nil
}
