package coord

// The persister flushes as often as it must.
func (rc *RC) persist() {
	rc.flushState()
	rc.flushState()
}
