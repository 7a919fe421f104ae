package stream

import "drms/internal/array"

// An auxiliary typed array in the stream: the violation.
func (p *plan) aux() *array.Array[float64] {
	return array.New[float64](p.comm, p.dist)
}
