package drms

import "drms/internal/ckpt"

// The run-time system picking the standalone format: the violation.
func (t *Task) checkpoint() error {
	_, err := ckpt.WriteDRMS(t.fs, t.prefix, t.comm, t.seg, t.refs, t.opts)
	return err
}
