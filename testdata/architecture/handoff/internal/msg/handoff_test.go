package msg

// A test may hand off.
func deliver(c *Comm, data []byte) error { return c.handOff(1, 0, data) }
