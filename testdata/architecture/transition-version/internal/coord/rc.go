package coord

// Reading the version is not a change.
func (rc *RC) version(app *appState) uint64 { return app.Version }
