package coord

// A status set beside the transition function: the violation. Reading it
// is not a change.
func (rc *RC) done(app *appState) bool {
	if app.Status == StatusFinished {
		return true
	}
	app.Status = StatusFinished
	return false
}
