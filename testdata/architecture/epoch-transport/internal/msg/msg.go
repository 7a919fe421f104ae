package msg

// NewRunner opens the launch epoch.
func NewRunner(n int) *Runner { return &Runner{tr: NewLocalTransport(n)} }
