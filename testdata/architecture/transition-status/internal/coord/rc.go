package coord

// Reading the status is not a change.
func (rc *RC) finished(app *appState) bool { return app.Status == StatusFinished }
