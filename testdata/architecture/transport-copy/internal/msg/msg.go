package msg

// send copies for an operation that gives the caller its buffer back.
func (c *Comm) send(dst, tag int, data []byte) error {
	return c.handOff(dst, tag, append([]byte(nil), data...))
}
