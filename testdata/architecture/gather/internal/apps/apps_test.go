package apps

import "drms/internal/rangeset"

// A test may gather.
func full(u interface {
	Gather(int, rangeset.Order) ([]float64, error)
}) ([]float64, error) {
	return u.Gather(0, rangeset.ColMajor)
}
