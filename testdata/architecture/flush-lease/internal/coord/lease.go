package coord

// A second flush in recovery: the violation.
func (rc *RC) reconcile(changed bool) {
	if changed {
		rc.flushState()
	}
	rc.flushState()
}
