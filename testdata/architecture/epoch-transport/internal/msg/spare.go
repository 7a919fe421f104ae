package msg

// A spare epoch opened beside the live one: the violation.
func (r *Runner) spare(size int) { r.next = NewLocalTransport(size) }
