package msg

// install opens every later one.
func (r *Runner) install(size int) error {
	tr, err := NewTCPTransport(size)
	r.tr = tr
	return err
}
