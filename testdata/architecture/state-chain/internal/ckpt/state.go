package ckpt

// The control-plane store walking a chain: the violation.
func (s *StateStore) load(prefix string) ([]Meta, error) {
	return loadChain(s.fs, prefix)
}
