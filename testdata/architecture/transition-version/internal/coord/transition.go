package coord

// A second version bump in the transition function: the violation.
func (rc *RC) transition(app *appState, r rule) {
	app.Status = r.next
	app.Version++
	if r.resize {
		app.Version++
	}
}
