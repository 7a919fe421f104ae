package coord

// A second status assignment in the transition function: the violation.
func (rc *RC) transition(app *appState, r rule) {
	app.Status = r.next
	app.Version++
	if r.fail {
		app.Status = StatusFailed
	}
}
