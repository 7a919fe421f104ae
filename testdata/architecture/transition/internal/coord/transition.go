package coord

import "drms/internal/drms"

// The one place an application's state changes.
func (rc *RC) transition(app *appState, r rule, h *drms.Handle) {
	app.Status = r.next
	app.Version++
	h.Kill()
}
