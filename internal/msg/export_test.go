package msg

// TransportOf returns c's transport, for the external tests of this
// package.
func TransportOf(c *Comm) Transport { return c.tr }
