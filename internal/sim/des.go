package sim

import (
	"container/heap"
	"fmt"

	"drms/internal/pfs"
)

// Discrete-event cross-validation of the phase model. Replay (sim.go)
// approximates each phase analytically: servers as a pooled resource,
// clients as independent streams, the phase ending at the slower of the
// two. DESReplayPhase simulates the same phase event by event instead —
// every client issues its operations in order, every operation fans out
// into per-server stripe chunks, and every server is a true FIFO queue —
// with the *same* calibrated rates. The cross-check tests demand the two
// agree within a small factor on uniform striped traffic (which
// checkpoint traffic is); where they diverge, the DES is the arbiter and
// the analytic model's error is visible.
//
// The DES is deterministic: ties in event time break by client rank.

// desEvent is a client becoming ready to issue its next operation.
type desEvent struct {
	t      float64
	client int
}

type desHeap []desEvent

func (h desHeap) Len() int { return len(h) }
func (h desHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].client < h[j].client
}
func (h desHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *desHeap) Push(x any)   { *h = append(*h, x.(desEvent)) }
func (h *desHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// DESReplayPhase simulates the ops of one phase and returns its elapsed
// seconds. The rate assignments mirror replayPhase: writes sink at the
// per-server write rate, the first read of a byte extent pays the disk
// read rate, rereads of an already-pulled extent pay the buffered rate,
// client-side costs (per-op, read/write bandwidth with the same pressure
// and interference rules, net traffic) gate issue times.
func (m Model) DESReplayPhase(ops []pfs.Op, cfg pfs.Config, cl Cluster, resident []int64) (float64, error) {
	nc := len(cl.TaskNode)
	perClient := make([][]pfs.Op, nc)
	for _, op := range ops {
		if op.Client < 0 || op.Client >= nc {
			return 0, fmt.Errorf("sim: op client %d outside cluster of %d tasks", op.Client, nc)
		}
		perClient[op.Client] = append(perClient[op.Client], op)
	}

	// Pre-classification shared with the analytic model: node occupancy,
	// interference, and the memory-pressure rule.
	pre, err := m.classify(ops, cfg, cl, resident)
	if err != nil {
		return 0, err
	}

	// Server FIFO availability and per-server effective rates.
	srvAvail := make([]float64, cfg.Servers)
	wRate := make([]float64, cfg.Servers)
	rdRate := make([]float64, cfg.Servers)
	rbRate := make([]float64, cfg.Servers)
	for s := 0; s < cfg.Servers; s++ {
		interf := 1.0
		if pre.activeClientNode[cl.ServerNode[s]] {
			interf = 1 - m.Interference
		}
		wRate[s] = m.ServerWriteBW * interf
		rdRate[s] = m.ServerDiskReadBW * interf
		rbRate[s] = m.ServerBufReadBW * interf
	}

	// Extent-level read tracking: the first client to pull an extent pays
	// disk; identical rereads are buffer-served (the DRMS segment-restore
	// pattern is byte-identical rereads).
	type extent struct {
		file     string
		off, len int64
	}
	pulled := make(map[extent]bool)

	next := make([]int, nc) // next op index per client
	h := &desHeap{}
	for c := 0; c < nc; c++ {
		if len(perClient[c]) > 0 {
			heap.Push(h, desEvent{t: 0, client: c})
		}
	}
	end := 0.0
	for h.Len() > 0 {
		ev := heap.Pop(h).(desEvent)
		c := ev.client
		op := perClient[c][next[c]]
		next[c]++

		// PIOFS semantics are pipelined: write-behind lets a client start
		// producing its next piece while earlier pieces drain through the
		// server queues, and prefetch overlaps server reads with client
		// absorption. The client's ready time therefore advances only by
		// its own costs; server chunks queue from that point and the
		// phase ends when both the clients and the queues are done.
		ready := ev.t + m.PerOpSeconds
		switch {
		case op.Net:
			ready += float64(op.Bytes)/m.NetClientBW + float64(op.Bytes)/pre.netCPU
		case op.Write:
			ready += float64(op.Bytes) / pre.wBW[c]
			for s, b := range split(cfg, op.File, op.Offset, op.Bytes) {
				if b == 0 {
					continue
				}
				start := max(ready, srvAvail[s])
				srvAvail[s] = start + float64(b)/wRate[s]
				end = max(end, srvAvail[s])
			}
		default:
			ext := extent{op.File, op.Offset, op.Bytes}
			buffered := pulled[ext]
			pulled[ext] = true
			arrival := ready
			for s, b := range split(cfg, op.File, op.Offset, op.Bytes) {
				if b == 0 {
					continue
				}
				rate := rdRate[s]
				if buffered {
					rate = rbRate[s]
				}
				start := max(arrival, srvAvail[s])
				srvAvail[s] = start + float64(b)/rate
				end = max(end, srvAvail[s])
			}
			// Client absorption pipelines with the next prefetched piece.
			ready += float64(op.Bytes) / pre.rBW[c]
		}
		end = max(end, ready)
		if next[c] < len(perClient[c]) {
			heap.Push(h, desEvent{t: ready, client: c})
		}
	}
	return end, nil
}

// phasePre carries the per-phase classification both models share.
type phasePre struct {
	activeClientNode map[int]bool
	rBW, wBW         []float64
	netCPU           float64
}

// classify computes node occupancy and per-client effective rates using
// exactly the analytic model's rules (pressure threshold, co-location
// interference, pack/unpack direction).
func (m Model) classify(ops []pfs.Op, cfg pfs.Config, cl Cluster, resident []int64) (phasePre, error) {
	nc := len(cl.TaskNode)
	pre := phasePre{
		activeClientNode: make(map[int]bool),
		rBW:              make([]float64, nc),
		wBW:              make([]float64, nc),
	}
	type loads struct{ read, write, sole int64 }
	ld := make([]loads, nc)
	fileReaders := map[string]map[int]bool{}
	clientFileRead := map[string]map[int]int64{}
	var readBytes, writeBytes int64
	serverBusyNode := make(map[int]bool)
	for _, op := range ops {
		pre.activeClientNode[cl.TaskNode[op.Client]] = true
		switch {
		case op.Net:
		case op.Write:
			ld[op.Client].write += op.Bytes
			writeBytes += op.Bytes
			for s, b := range split(cfg, op.File, op.Offset, op.Bytes) {
				if b > 0 {
					serverBusyNode[cl.ServerNode[s]] = true
				}
			}
		default:
			ld[op.Client].read += op.Bytes
			readBytes += op.Bytes
			if fileReaders[op.File] == nil {
				fileReaders[op.File] = map[int]bool{}
				clientFileRead[op.File] = map[int]int64{}
			}
			fileReaders[op.File][op.Client] = true
			clientFileRead[op.File][op.Client] += op.Bytes
			for s, b := range split(cfg, op.File, op.Offset, op.Bytes) {
				if b > 0 {
					serverBusyNode[cl.ServerNode[s]] = true
				}
			}
		}
	}
	for f, readers := range fileReaders {
		if len(readers) == 1 {
			for c, b := range clientFileRead[f] {
				ld[c].sole += b
			}
		}
	}
	dedicated := false
	if readBytes+writeBytes > 0 {
		for s := 0; s < cfg.Servers; s++ {
			if !pre.activeClientNode[cl.ServerNode[s]] {
				dedicated = true
				break
			}
		}
	}
	memLimit := cl.MemBytes
	if readBytes+writeBytes > 0 && !dedicated {
		memLimit -= m.ServerBufBytes
	}
	pre.netCPU = m.PackBW
	if writeBytes < readBytes {
		pre.netCPU = m.UnpackBW
	}
	for c := 0; c < nc; c++ {
		var res int64
		if c < len(resident) {
			res = resident[c]
		}
		rBW := m.ClientReadBW
		if res+ld[c].sole > memLimit {
			rBW *= m.ReadThrashFactor
		}
		wBW := m.ClientWriteBW
		if res+ld[c].write > memLimit {
			wBW *= m.WriteThrashFactor
		}
		if serverBusyNode[cl.TaskNode[c]] {
			wBW *= 1 - m.Interference
		}
		pre.rBW[c] = rBW
		pre.wBW[c] = wBW
	}
	return pre, nil
}

// DESReplay simulates a whole trace phase by phase.
func (m Model) DESReplay(t *pfs.Trace, cfg pfs.Config, cl Cluster, resident []int64) (float64, error) {
	total := 0.0
	for p := range t.Phases {
		ops := t.PhaseOps(p)
		if len(ops) == 0 {
			continue
		}
		dt, err := m.DESReplayPhase(ops, cfg, cl, resident)
		if err != nil {
			return 0, err
		}
		total += dt
	}
	return total, nil
}
