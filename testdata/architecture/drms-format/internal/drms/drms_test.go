package drms

import "drms/internal/ckpt"

// A test may write a standalone anchor.
func anchor(t *Task) error {
	_, err := ckpt.WriteDRMS(t.fs, t.prefix, t.comm, t.seg, t.refs, t.opts)
	return err
}
