package stream

import "drms/internal/array"

// A test may build the array it streams.
func source(p *plan) *array.Array[float64] {
	return array.New[float64](p.comm, p.dist)
}
