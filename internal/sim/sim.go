// Package sim models the paper's measurement platform — a 16-node IBM
// RS/6000 SP with the PIOFS parallel file system — as a deterministic,
// phase-based queueing cost model. The functional layers (internal/pfs,
// internal/ckpt) record an I/O trace of a real checkpoint or restart;
// Replay pushes that trace through the model and returns elapsed seconds
// per phase.
//
// The model captures the mechanisms §5 of the paper identifies as the
// drivers of the timing tables, none of which depend on 1997 absolute
// bandwidths:
//
//   - Writes are server-limited: PIOFS servers act as a pooled sink whose
//     aggregate rate is the sum of per-server rates (striping spreads
//     load; buffering smooths imbalance). A server sharing its node with
//     an active application task runs degraded (CPU/memory interference),
//     so moving from 8 to 16 tasks on 16 nodes removes the unperturbed
//     servers and shrinks the pool rate — checkpoints slow down.
//   - Reads are client-limited when prefetch is effective: servers stream
//     ahead, each client absorbs at its own fixed rate, so aggregate read
//     bandwidth rises with the number of clients (the DRMS restart
//     speedup from 8 to 16 PEs). File data one client already pulled is
//     served to other clients from server buffers, which is why all tasks
//     rereading the single DRMS segment file scales so well.
//   - Prefetch is defeated by memory pressure: if a task's resident state
//     plus its private read stream exceed the node memory left after the
//     co-located server's buffer claim, the client drops to a slow
//     unprefetched rate. Streams of files other clients are also reading
//     are exempt (their blocks arrive via the shared server buffer). This
//     is the SPMD-restart threshold BT crosses between 8 and 16 PEs and
//     LU crosses already at 8 (§5).
//   - Redistribution traffic (two-phase parallel streaming) pays a
//     per-client link cost plus a pack/scatter CPU cost, and an aggregate
//     switch ceiling that serializes with the file I/O of its phase.
//
// All parameters live in Model and are documented where calibrated
// against the paper's Tables 5 and 6.
package sim

import (
	"fmt"

	"drms/internal/pfs"
)

// MB is 2^20 bytes, the unit the paper reports sizes in.
const MB = 1 << 20

// Cluster describes the machine: how many nodes, their memory, where the
// file-system servers live, and where each application task is placed.
type Cluster struct {
	Nodes    int
	MemBytes int64 // physical memory per node
	// ServerNode maps PFS server index to the node hosting it.
	ServerNode []int
	// TaskNode maps application task rank (the trace's client id) to the
	// node executing it.
	TaskNode []int
}

// SPCluster builds the paper's platform: 128 MB nodes, one PFS server per
// node (files stripe across all of them), and application tasks placed
// one per node starting at node 0. With 8 tasks on 16 nodes, the other 8
// nodes' servers run unperturbed; with 16 tasks every server shares its
// node with a task — exactly the interference regime the paper discusses.
func SPCluster(nodes, tasks int) Cluster {
	c := Cluster{
		Nodes:      nodes,
		MemBytes:   128 * MB,
		ServerNode: make([]int, nodes),
		TaskNode:   make([]int, tasks),
	}
	for i := range c.ServerNode {
		c.ServerNode[i] = i
	}
	for t := range c.TaskNode {
		c.TaskNode[t] = t % nodes
	}
	return c
}

// Model holds the calibrated performance parameters. All rates are
// bytes/second.
type Model struct {
	// ServerWriteBW is the sustained sink rate of one PIOFS server.
	// Calibrated from SPMD checkpoint on 8 PEs (Table 5: BT writes
	// 502 MB in ~41 s through the 16-server pool ≈ 0.78 MB/s each).
	ServerWriteBW float64
	// ServerDiskReadBW is one server's unbuffered read rate.
	ServerDiskReadBW float64
	// ServerBufReadBW is one server's rate for data already buffered (a
	// second client rereading what prefetch pulled in).
	ServerBufReadBW float64
	// ServerBufBytes is the buffer memory of one server; it is charged
	// against node memory in the pressure rule when no unperturbed
	// server nodes remain.
	ServerBufBytes int64

	// ClientWriteBW is the rate one client produces file data.
	ClientWriteBW float64
	// ClientReadBW is the rate one client absorbs prefetched data.
	// Calibrated from DRMS restart segment reads (Table 6: each task
	// reads the 63 MB BT segment in ~18 s ≈ 3.4 MB/s).
	ClientReadBW float64

	// NetClientBW bounds one task's redistribution sends; NetAggBW is the
	// switch ceiling. PackBW and UnpackBW charge the CPU cost of
	// gathering sections into wire form (checkpoint direction) and
	// scattering them into local sections (restart direction); scattering
	// strided sections is the slower of the two (Table 6: array phases
	// run at 7.7 MB/s on checkpoint but 4.1 MB/s on restart).
	NetClientBW float64
	NetAggBW    float64
	PackBW      float64
	UnpackBW    float64

	// PerOpSeconds is fixed per-operation cost (request, seek).
	PerOpSeconds float64

	// Interference in [0,1) is the slowdown a server suffers when sharing
	// its node with an active task, and vice versa for client writes.
	Interference float64

	// ReadThrashFactor multiplies ClientReadBW when the pressure rule
	// fires (prefetch defeated); WriteThrashFactor likewise for writes.
	ReadThrashFactor  float64
	WriteThrashFactor float64

	// StartupSeconds is charged once to restart-like replays by the
	// caller (application text load; the "other" component of Figure 7).
	StartupSeconds float64
}

// Calibrated1997 returns the model tuned against Tables 5 and 6 of the
// paper (see the per-field comments). The absolute values are 1997-scale;
// the shape assertions in the benchmark tests hold for any scale.
func Calibrated1997() Model {
	return Model{
		ServerWriteBW:     0.78 * MB,
		ServerDiskReadBW:  2.0 * MB,
		ServerBufReadBW:   8.0 * MB,
		ServerBufBytes:    32 * MB,
		ClientWriteBW:     14.0 * MB,
		ClientReadBW:      3.3 * MB,
		NetClientBW:       6.0 * MB,
		NetAggBW:          20.0 * MB,
		PackBW:            4.0 * MB,
		UnpackBW:          1.0 * MB,
		PerOpSeconds:      0.0004,
		Interference:      0.28,
		ReadThrashFactor:  0.20,
		WriteThrashFactor: 0.53,
		StartupSeconds:    4.0,
	}
}

// PhaseCost is the modeled cost of one trace phase.
type PhaseCost struct {
	Name       string
	Seconds    float64
	ReadBytes  int64
	WriteBytes int64
	NetBytes   int64
	Ops        int // operations issued in this phase (I/O and net)
	// Limiter names the binding constraint of the I/O portion: "server"
	// or "client".
	Limiter string
}

// Result is the modeled cost of a whole trace.
type Result struct {
	Phases []PhaseCost
}

// Total returns the summed phase seconds.
func (r Result) Total() float64 {
	t := 0.0
	for _, p := range r.Phases {
		t += p.Seconds
	}
	return t
}

// Phase returns the aggregate cost of all phases with the given name.
func (r Result) Phase(name string) PhaseCost {
	out := PhaseCost{Name: name}
	for _, p := range r.Phases {
		if p.Name == name {
			out.Seconds += p.Seconds
			out.ReadBytes += p.ReadBytes
			out.WriteBytes += p.WriteBytes
			out.NetBytes += p.NetBytes
		}
	}
	return out
}

// Replay pushes a recorded trace through the model. cfg is the file
// system geometry the trace was recorded against; resident[c] is the
// application state resident on client c's node during the traced
// operation (it drives the memory-pressure threshold).
func (m Model) Replay(t *pfs.Trace, cfg pfs.Config, cl Cluster, resident []int64) (Result, error) {
	if len(cl.ServerNode) < cfg.Servers {
		return Result{}, fmt.Errorf("sim: cluster places %d servers but config has %d",
			len(cl.ServerNode), cfg.Servers)
	}
	var res Result
	for p := range t.Phases {
		ops := t.PhaseOps(p)
		if len(ops) == 0 {
			continue
		}
		pc, err := m.replayPhase(t.Phases[p], ops, cfg, cl, resident)
		if err != nil {
			return Result{}, err
		}
		res.Phases = append(res.Phases, pc)
	}
	return res, nil
}

// split stripes n bytes at off of a file over the servers. A file's first
// stripe unit sits on a server picked by a hash of its name, as a real
// striped file system places it: were every file to start on server 0,
// many files shorter than a full stripe — a checkpoint's per-task piece
// files — would load the low-numbered servers only.
func split(cfg pfs.Config, file string, off, n int64) []int64 {
	out := make([]int64, cfg.Servers)
	unit := int64(cfg.StripeUnit)
	first := uint32(2166136261) // FNV-1a
	for i := 0; i < len(file); i++ {
		first = (first ^ uint32(file[i])) * 16777619
	}
	for n > 0 {
		srv := (off/unit + int64(first)) % int64(cfg.Servers)
		inUnit := unit - off%unit
		take := min(inUnit, n)
		out[srv] += take
		off += take
		n -= take
	}
	return out
}

type interval struct{ lo, hi int64 } // [lo, hi)

// mergeIntervals unions a set of byte extents (destructively).
func mergeIntervals(iv []interval) []interval {
	if len(iv) == 0 {
		return nil
	}
	for i := 1; i < len(iv); i++ {
		for j := i; j > 0 && iv[j].lo < iv[j-1].lo; j-- {
			iv[j], iv[j-1] = iv[j-1], iv[j]
		}
	}
	out := iv[:1]
	for _, v := range iv[1:] {
		last := &out[len(out)-1]
		if v.lo <= last.hi {
			if v.hi > last.hi {
				last.hi = v.hi
			}
		} else {
			out = append(out, v)
		}
	}
	return out
}

func (m Model) replayPhase(name string, ops []pfs.Op, cfg pfs.Config, cl Cluster, resident []int64) (PhaseCost, error) {
	nc := len(cl.TaskNode)
	type clientLoad struct {
		read, write, netSent int64
		soleRead             int64 // reads of files no other client touches this phase
		ops                  int
	}
	clients := make([]clientLoad, nc)
	srvWrite := make([]int64, cfg.Servers)
	srvReadTotal := make([]int64, cfg.Servers)
	type readKey struct {
		client int
		file   string
	}
	readExtents := map[string][]interval{}
	fileReaders := map[string]map[int]bool{}
	clientFileRead := map[readKey]int64{}

	pc := PhaseCost{Name: name, Ops: len(ops)}
	for _, op := range ops {
		if op.Client < 0 || op.Client >= nc {
			return pc, fmt.Errorf("sim: op client %d outside cluster of %d tasks", op.Client, nc)
		}
		c := &clients[op.Client]
		c.ops++
		switch {
		case op.Net:
			c.netSent += op.Bytes
			pc.NetBytes += op.Bytes
		case op.Write:
			c.write += op.Bytes
			pc.WriteBytes += op.Bytes
			for s, b := range split(cfg, op.File, op.Offset, op.Bytes) {
				srvWrite[s] += b
			}
		default:
			c.read += op.Bytes
			pc.ReadBytes += op.Bytes
			for s, b := range split(cfg, op.File, op.Offset, op.Bytes) {
				srvReadTotal[s] += b
			}
			readExtents[op.File] = append(readExtents[op.File],
				interval{op.Offset, op.Offset + op.Bytes})
			if fileReaders[op.File] == nil {
				fileReaders[op.File] = map[int]bool{}
			}
			fileReaders[op.File][op.Client] = true
			clientFileRead[readKey{op.Client, op.File}] += op.Bytes
		}
	}

	// Private read streams: bytes a client reads from files it alone
	// reads this phase. Shared files ride the server buffer and are
	// exempt from the pressure rule.
	for key, b := range clientFileRead {
		if len(fileReaders[key.file]) == 1 {
			clients[key.client].soleRead += b
		}
	}

	// Distinct read bytes per server: union extents per file, then
	// stripe-split. Rereads beyond the distinct set are buffer-served.
	srvReadDistinct := make([]int64, cfg.Servers)
	for file, iv := range readExtents {
		for _, v := range mergeIntervals(iv) {
			for s, b := range split(cfg, file, v.lo, v.hi-v.lo) {
				srvReadDistinct[s] += b
			}
		}
	}

	// Node occupancy.
	activeClientNode := make(map[int]bool)
	for c := range clients {
		if clients[c].ops > 0 {
			activeClientNode[cl.TaskNode[c]] = true
		}
	}
	anyIO := pc.ReadBytes > 0 || pc.WriteBytes > 0
	dedicatedServers := false
	if anyIO {
		for s := 0; s < cfg.Servers; s++ {
			if !activeClientNode[cl.ServerNode[s]] {
				dedicatedServers = true
				break
			}
		}
	}

	// Server pool: aggregate rates with per-server interference. Summing
	// rates (rather than taking the slowest server) models striping plus
	// buffering smoothing the load across the pool.
	var wRate, rdRate, rbRate float64
	for s := 0; s < cfg.Servers; s++ {
		interf := 1.0
		if activeClientNode[cl.ServerNode[s]] {
			interf = 1 - m.Interference
		}
		wRate += m.ServerWriteBW * interf
		rdRate += m.ServerDiskReadBW * interf
		rbRate += m.ServerBufReadBW * interf
	}
	var wTot, rdTot, rbTot int64
	for s := 0; s < cfg.Servers; s++ {
		wTot += srvWrite[s]
		rdTot += srvReadDistinct[s]
		rep := srvReadTotal[s] - srvReadDistinct[s]
		if rep > 0 {
			rbTot += rep
		}
	}
	tServer := float64(wTot)/wRate + float64(rdTot)/rdRate + float64(rbTot)/rbRate

	// Memory-pressure threshold: when no server node is free of tasks,
	// the co-located server's buffer claim comes out of every node.
	memLimit := cl.MemBytes
	if anyIO && !dedicatedServers {
		memLimit -= m.ServerBufBytes
	}

	// Phase direction decides whether net traffic pays the pack (gather,
	// checkpoint) or unpack (scatter, restart) CPU cost.
	writeHeavy := pc.WriteBytes >= pc.ReadBytes

	tClient := 0.0
	for c := range clients {
		ld := clients[c]
		if ld.ops == 0 {
			continue
		}
		var res int64
		if c < len(resident) {
			res = resident[c]
		}
		coloc := false
		for s := 0; s < cfg.Servers; s++ {
			if cl.ServerNode[s] == cl.TaskNode[c] && (srvWrite[s] > 0 || srvReadTotal[s] > 0) {
				coloc = true
				break
			}
		}
		rBW := m.ClientReadBW
		if res+ld.soleRead > memLimit {
			rBW *= m.ReadThrashFactor
		}
		wBW := m.ClientWriteBW
		if res+ld.write > memLimit {
			wBW *= m.WriteThrashFactor
		}
		if coloc {
			wBW *= 1 - m.Interference
		}
		netCPU := m.PackBW
		if !writeHeavy {
			netCPU = m.UnpackBW
		}
		t := float64(ld.ops)*m.PerOpSeconds +
			float64(ld.read)/rBW +
			float64(ld.write)/wBW
		if ld.netSent > 0 {
			t += float64(ld.netSent)/m.NetClientBW + float64(ld.netSent)/netCPU
		}
		tClient = max(tClient, t)
	}

	// Redistribution serializes (approximately) with the I/O of its
	// phase: the aggregate switch time adds to the I/O bound.
	tNet := float64(pc.NetBytes) / m.NetAggBW

	if tServer >= tClient {
		pc.Limiter = "server"
	} else {
		pc.Limiter = "client"
	}
	pc.Seconds = max(tServer, tClient) + tNet
	return pc, nil
}
