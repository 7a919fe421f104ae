package drms

// The in-place incremental writer back: the violation.
func (t *Task) IncrementalCheckpoint() error { return nil }
