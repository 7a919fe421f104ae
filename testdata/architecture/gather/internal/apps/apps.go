package apps

import "drms/internal/rangeset"

// The whole array moved to one rank in product code: the violation.
func residual(u interface {
	Gather(int, rangeset.Order) ([]float64, error)
}) ([]float64, error) {
	return u.Gather(0, rangeset.ColMajor)
}
