package msg

// A copy of a payload the transport owns: the violation.
func (t *TCPTransport) Send(src, dst, tag int, data []byte) error {
	return t.write(dst, append([]byte(nil), data...))
}
