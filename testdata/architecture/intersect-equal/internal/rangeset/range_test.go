package rangeset

// The oracle of Within.
func within(a, b Slice) bool { return a.Intersect(b).Equal(a) }
