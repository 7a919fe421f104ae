package coord

// RecoverRC's one final flush.
func (rc *RC) reconcile() { rc.flushState() }
