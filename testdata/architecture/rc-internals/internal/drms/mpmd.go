package drms

// The run-time system kills its own previous incarnation.
func replace(prev interface{ Kill() }) { prev.Kill() }
