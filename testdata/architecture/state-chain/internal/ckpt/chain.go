package ckpt

// The DRMS chain has its length and dependencies.
func WriteDRMSChained(a ArrayRef, m *Meta) error {
	m.ChainLen, m.Deps = 1, nil
	_, err := a.StreamWrite(nil, "ck.arr.u", opts)
	return err
}

func loadChain(fs any, prefix string) ([]Meta, error) { return nil, nil }
