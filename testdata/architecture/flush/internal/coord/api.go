package coord

// A synchronous flush in an API call: the violation.
func (rc *RC) CheckpointApp(name string) error {
	rc.mark(name)
	return rc.flushState()
}
