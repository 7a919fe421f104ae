package coord

// The persister and SyncState flush.
func (rc *RC) SyncState() error { return rc.flushState() }
