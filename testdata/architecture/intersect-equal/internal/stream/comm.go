package stream

import "drms/internal/rangeset"

// Containment by arithmetic.
func covers(a, b rangeset.Slice) bool { return a.Within(b) }
