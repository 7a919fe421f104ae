package drms

import "drms/internal/ckpt"

// Every configuration goes through the one chained writer.
func (t *Task) write() error {
	_, err := ckpt.WriteDRMSChained(t.fs, t.prefix, t.comm, t.seg, t.refs, t.opts, t.chain)
	return err
}
