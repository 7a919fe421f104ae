package msg

func (c *Comm) send(dst, tag int, data []byte) error {
	return c.handOff(dst, tag, append([]byte(nil), data...))
}

func (c *Comm) AlltoallSparse(send [][]byte) error {
	for dst := range send {
		if err := c.handOff(dst, 0, send[dst]); err != nil {
			return err
		}
	}
	return nil
}

// A broadcast handing off the caller's buffer: the violation.
func (c *Comm) Bcast(data []byte) error {
	return c.handOff(0, 1, data)
}
