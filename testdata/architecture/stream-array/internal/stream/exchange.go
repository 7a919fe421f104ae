package stream

import "drms/internal/array"

// Pieces land in their buffers in wire form.
func (p *plan) land(bufs [][]byte) error {
	return array.UnpackPieces(p.round, bufs)
}
