package dist

import "drms/internal/rangeset"

// A subset test by intersection: the violation.
func covers(a, b rangeset.Slice) bool { return a.Intersect(b).Equal(a) }
