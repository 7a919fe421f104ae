package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"drms/internal/array"
	"drms/internal/ckpt"
	"drms/internal/codec"
	"drms/internal/dist"
	"drms/internal/drms"
	"drms/internal/msg"
	"drms/internal/obs"
	"drms/internal/pfs"
	"drms/internal/rangeset"
	"drms/internal/seg"
	"drms/internal/stream"
)

// The layer probes: after the traced cycles, every layer's public
// functions are timed from outside on the workload's own shapes — its
// distributions, piece sizes, codec and tier settings. Repetition counts
// are fixed, so every count repeats exactly for a seed. Each probe is a
// child span of the "probes" span.

const (
	probeReps   = 5       // collective probes that move the whole state
	microReps   = 200     // sub-millisecond calls
	probePrefix = "probe" // checkpoint prefix of the direct ckpt probe
)

// prober carries what the probes share and collects their metrics.
type prober struct {
	w    *workload
	cfg  drms.Config // the workload's configuration, FS and Tier unset
	seed uint64
	tr   *tracer
	m    map[string]float64
	// ckptWrite and ckptRead are the medians of the direct ckpt probes,
	// kept for the self-time subtractions.
	ckptWrite, ckptRead time.Duration
}

// probeState is one rank's copy of the workload's state outside drms.
type probeState struct {
	arrays []stateArray
	refs   []ckpt.ArrayRef
	sg     *seg.Segment
	iter   int
}

func newProbeState(w *workload, c *msg.Comm, seed uint64, fill bool) (*probeState, error) {
	arrays, err := declareAll(w, nil, c)
	if err != nil {
		return nil, err
	}
	st := &probeState{arrays: arrays, sg: seg.New()}
	st.sg.Register("iter", &st.iter)
	for i, a := range arrays {
		if fill {
			a.fill(seed+uint64(i), w.palette)
		}
		st.refs = append(st.refs, a.ref())
	}
	return st, nil
}

func (st *probeState) dirty(w *workload, seed uint64) {
	for i, a := range st.arrays {
		a.dirty(seed+uint64(i), w.window, w.palette)
	}
	st.iter++
}

// pieceBytes is the workload's streaming piece size.
func (p *prober) pieceBytes() int {
	if p.cfg.Stream.PieceBytes > 0 {
		return p.cfg.Stream.PieceBytes
	}
	return stream.DefaultPieceBytes
}

// perPeerBytes is what one rank contributes to one writer's piece in a
// streaming round: the size the message probes exchange.
func (p *prober) perPeerBytes() int {
	n := int64(p.w.tasks())
	return int(min(int64(p.pieceBytes()), p.w.logicalBytes()/n) / n)
}

func medianDur(ds []time.Duration) time.Duration {
	return time.Duration(median(msAll(ds)) * float64(time.Millisecond))
}

// perLayer runs the probes and derives the per-layer metrics from them
// and from the traced cycles' samples.
func (r *runResult) perLayer(eng engine) error {
	s := eng.live()
	p := &prober{w: r.workload, cfg: r.workload.config(nil, nil), seed: r.opt.seed, tr: r.trace, m: r.metrics}
	root := p.tr.driver("probes")
	defer root.end()
	type step struct {
		name string
		fn   func() error
	}
	steps := []step{
		{"rangeset+dist", p.shapes},
		{"array", p.arrayLayer},
		{"msg", p.msgLayer},
		{"msg.epoch_swap", p.epochSwap},
		{"stream", p.streamLayer},
		{"codec+seg", p.codecSeg},
		{"pfs", p.pfsLayer},
		{"ckpt", p.ckptLayer},
		{"ckpt.state_store", p.stateStore},
		{"drms.launch", p.launch},
		{"obs", p.obsLayer},
	}
	if ce, ok := eng.(*coordEngine); ok {
		steps = append(steps, step{"coord", func() error { return ce.probes(p) }})
	}
	for _, st := range steps {
		sp := p.tr.begin("probe."+st.name, root)
		err := st.fn()
		sp.end()
		if err != nil {
			return fmt.Errorf("%s: %w", st.name, err)
		}
	}

	// What the traced cycles counted.
	out := r.samples
	m := p.m
	m["array.plan_hits_per_cycle"] = median(out.arrayHits)
	m["array.plan_misses_per_cycle"] = median(out.arrayMisses)
	m["stream.plan_hits_per_cycle"] = median(out.streamHits)
	m["stream.plan_misses_per_cycle"] = median(out.streamMisses)
	m["pfs.ops_per_ckpt"] = median(out.pfsCkptOps)
	m["pfs.bytes_written_per_ckpt"] = median(out.pfsCkptBytes)
	m["pfs.ops_per_restore"] = median(out.pfsRecOps)
	m["pfs.bytes_read_per_restore"] = median(out.pfsRecBytes)
	if len(out.tierMem) > 0 { // resize and partial recovery report their own tier split
		m["ckpt.tier_mem_bytes_per_restore"] = median(out.tierMem)
		m["ckpt.tier_pfs_bytes_per_restore"] = median(out.tierPFS)
	}
	m["ckpt.tier_resident_mb"] = float64(s.tier.ResidentBytes()) / 1e6
	m["drms.ckpt_cold_ms"] = ms(medianDur(out.cold))
	ck := ms(medianDur(out.ckpt))
	m["drms.sop_self_ms"] = ck - ms(p.ckptWrite)
	if r.workload.recovery == recRestart {
		m["drms.restore_self_ms"] = ms(medianDur(out.recovery)) - m["drms.launch_ms"] - ms(p.ckptRead)
	}
	if len(out.detect) > 0 {
		m["coord.detect_ms"] = ms(medianDur(out.detect))
		m["coord.relaunch_ms"] = ms(medianDur(out.relaunch))
		m["coord.restore_ms"] = ms(medianDur(out.restoreTail))
	}
	if len(out.tracedCkpt) > 0 && len(out.untracedCkpt) > 0 {
		on, off := ms(medianDur(out.tracedCkpt)), ms(medianDur(out.untracedCkpt))
		m["obs.trace_overhead_pct"] = 100 * (on - off) / off
	}
	cycles := float64(out.cycles)
	m["proc.alloc_mb_per_cycle"] = float64(out.procEnd.alloc-out.procStart.alloc) / 1e6 / cycles
	m["proc.mallocs_per_cycle"] = float64(out.procEnd.mallocs-out.procStart.mallocs) / cycles
	m["proc.gc_per_cycle"] = float64(out.procEnd.gcs-out.procStart.gcs) / cycles
	m["proc.cpu_s_per_cycle"] = (out.procEnd.cpu - out.procStart.cpu).Seconds() / cycles
	return nil
}

// repeatFor calls fn until it has run for at least 20 ms and at least
// microReps times, and returns the mean time per call.
func repeatFor(fn func()) time.Duration {
	n := 0
	start := time.Now()
	for n < microReps || time.Since(start) < 20*time.Millisecond {
		fn()
		n++
	}
	return time.Since(start) / time.Duration(n)
}

// shapes times rangeset and dist on the first array's index space.
func (p *prober) shapes() error {
	spec := p.w.arrays[0]
	n := p.w.tasks()
	d, err := spec.dist(n)
	if err != nil {
		return err
	}
	d2, err := spec.dist(n) // an equal index space that shares no storage
	if err != nil {
		return err
	}
	g, g2 := d.Global(), d2.Global()
	equal := true
	per := repeatFor(func() { equal = equal && g.Equal(g2) })
	if !equal {
		return fmt.Errorf("equal global slices compare unequal")
	}
	p.m["rangeset.equal_ns"] = float64(per)

	spans, _ := stream.PieceSpans(g, int(spec.kind.size()), n, p.cfg.Stream)
	mine := d.Assigned(0)
	var hit int
	per = repeatFor(func() {
		for _, sp := range spans {
			if !sp.Intersect(mine).Empty() {
				hit++
			}
		}
	})
	if hit == 0 {
		return fmt.Errorf("no piece intersects rank 0's section")
	}
	p.m["rangeset.intersect_ns"] = float64(per) / float64(len(spans))

	var berr error
	per = repeatFor(func() {
		b, err := spec.dist(n)
		if err == nil {
			err = b.Validate()
		}
		if err != nil {
			berr = err
		}
	})
	p.m["dist.build_us"] = us(per)
	return berr
}

// canonical builds the first streaming round's distribution of an index
// space: piece i wholly on task i, as stream's two-phase plan does.
func canonical(g rangeset.Slice, elemSize, tasks int, o stream.Options) (*dist.Distribution, int64, error) {
	spans, _ := stream.PieceSpans(g, elemSize, tasks, o)
	assigned := make([]rangeset.Slice, tasks)
	var bytes int64
	for i := range assigned {
		assigned[i] = g.EmptyLike()
		if i < len(spans) {
			assigned[i] = spans[i]
			bytes += int64(spans[i].Size()) * int64(elemSize)
		}
	}
	d, err := dist.Irregular(g, assigned, nil)
	return d, bytes, err
}

// arrayLayer times Assign from the application's distribution into the
// canonical piece distribution — plans flushed, then cached — and the
// pack of a rank's assigned section.
func (p *prober) arrayLayer() error {
	n := p.w.tasks()
	var cold, warm []time.Duration
	var moved, packed int64
	var packTime time.Duration
	err := spmd(n, msg.NewLocalTransport(n), func(c *msg.Comm) error {
		st, err := newProbeState(p.w, c, p.seed, true)
		if err != nil {
			return err
		}
		a := st.arrays[0]
		ad, bytes, err := canonical(a.dist().Global(), a.ref().ElemSize(), n, p.cfg.Stream)
		if err != nil {
			return err
		}
		assign, err := a.assigner(ad)
		if err != nil {
			return err
		}
		flush := func(int) error {
			if c.Rank() == 0 {
				array.FlushPlans()
			}
			return c.Barrier()
		}
		step := func(int) error { return assign() }
		cd, err := timedCollective(c, 3, flush, step)
		if err != nil {
			return err
		}
		wd, err := timedCollective(c, 2*probeReps, nil, step)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			cold, warm, moved = cd, wd, bytes
			var buf []byte
			var perr error
			packTime = repeatFor(func() {
				nb, err := a.packAssigned(&buf)
				packed = int64(nb)
				if err != nil {
					perr = err
				}
			})
			return perr
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.m["array.assign_cold_ms"] = ms(medianDur(cold))
	p.m["array.assign_warm_mb_s"] = mbPerS(moved, medianDur(warm))
	p.m["array.pack_mb_s"] = mbPerS(packed, packTime)
	return nil
}

// msgLayer times the two collectives a checkpoint leans on.
func (p *prober) msgLayer() error {
	n := p.w.tasks()
	size := p.perPeerBytes()
	var reduce, exchange time.Duration
	err := spmd(n, msg.NewLocalTransport(n), func(c *msg.Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < microReps; i++ {
			if _, err := c.AllreduceF64(float64(i), msg.Max); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			reduce = time.Since(start) / microReps
		}
		send := make([][]byte, n)
		for i := range send {
			send[i] = make([]byte, size)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		start = time.Now()
		for i := 0; i < microReps; i++ {
			if _, err := c.Alltoall(send); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			exchange = time.Since(start) / microReps
		}
		return nil
	})
	p.m["msg.allreduce_us"] = us(reduce)
	// Every rank sends size bytes to each of its n-1 peers per exchange.
	p.m["msg.alltoall_mb_s"] = mbPerS(int64(size)*int64(n)*int64(n-1), exchange)
	return err
}

// epochSwap times Runner.Resize plus every surviving rank's Park, with a
// body that does nothing else: the floor under a resize or a shrink.
func (p *prober) epochSwap() error {
	const swaps = 20
	r, err := msg.NewRunner(writerTasks, false)
	if err != nil {
		return err
	}
	// Every rank announces each epoch it enters; buffered for all of them
	// so no rank ever blocks on the driver.
	entered := make(chan struct{}, writerTasks*(swaps+1))
	done := make(chan error, 1)
	go func() {
		done <- r.Run(func(c *msg.Comm) error {
			for {
				entered <- struct{}{}
				_, err := c.Recv((c.Rank()+1)%c.Size(), parkTag) // blocks until the epoch is retired
				if err == nil {
					return fmt.Errorf("park receive completed")
				}
				nc, _, perr := r.Park(c)
				if perr != nil {
					return nil // superseded by a shrinking swap, or the final kill
				}
				c = nc
			}
		})
	}()
	wait := func(n int) {
		for i := 0; i < n; i++ {
			<-entered
		}
	}
	wait(writerTasks)
	size := writerTasks
	var total time.Duration
	for i := 0; i < swaps; i++ {
		size = writerTasks + writerTasks/2 - size // alternate 4 <-> 2
		start := time.Now()
		if _, err := r.Resize(size); err != nil {
			r.Kill()
			<-done
			return err
		}
		wait(size)
		total += time.Since(start)
	}
	r.Kill()
	<-done
	p.m["msg.epoch_swap_us"] = us(total / swaps)
	return nil
}

// streamLayer times parallel streaming of the whole state to and from a
// private file system, at the writer's task count and one fewer.
func (p *prober) streamLayer() error {
	fs := pfs.NewSystem(pfs.DefaultConfig())
	n := p.w.tasks()
	var write, read, reconf, sums []time.Duration
	var pieces int
	// streamAll streams every array of the state to or from its own file
	// and returns the piece count of the plans.
	streamAll := func(refs []ckpt.ArrayRef, write bool) (int, error) {
		np := 0
		for _, a := range refs {
			stream := a.StreamRead
			if write {
				stream = a.StreamWrite
			}
			s, err := stream(fs, "stream."+a.Name(), p.cfg.Stream)
			if err != nil {
				return 0, err
			}
			np += s.Pieces
		}
		return np, nil
	}
	err := spmd(n, msg.NewLocalTransport(n), func(c *msg.Comm) error {
		st, err := newProbeState(p.w, c, p.seed, true)
		if err != nil {
			return err
		}
		wd, err := timedCollective(c, probeReps, nil, func(int) error {
			np, err := streamAll(st.refs, true)
			if c.Rank() == 0 {
				pieces = np
			}
			return err
		})
		if err != nil {
			return err
		}
		rd, err := timedCollective(c, probeReps, nil, func(int) error {
			_, err := streamAll(st.refs, false)
			return err
		})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			write, read = wd, rd
			for i := 0; i < probeReps; i++ {
				start := time.Now()
				for _, a := range st.refs {
					if _, err := a.SectionSums(p.cfg.Stream); err != nil {
						return err
					}
				}
				sums = append(sums, time.Since(start))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m := max(n-1, 1)
	err = spmd(m, msg.NewLocalTransport(m), func(c *msg.Comm) error {
		st, err := newProbeState(p.w, c, p.seed, false)
		if err != nil {
			return err
		}
		rd, err := timedCollective(c, probeReps, nil, func(int) error {
			_, err := streamAll(st.refs, false)
			return err
		})
		if c.Rank() == 0 {
			reconf = rd
		}
		return err
	})
	if err != nil {
		return err
	}
	bytes := p.w.logicalBytes()
	p.m["stream.write_mb_s"] = mbPerS(bytes, medianDur(write))
	p.m["stream.read_mb_s"] = mbPerS(bytes, medianDur(read))
	p.m["stream.read_reconf_mb_s"] = mbPerS(bytes, medianDur(reconf))
	p.m["stream.pieces_per_ckpt"] = float64(pieces)
	p.m["stream.section_sums_ms"] = ms(medianDur(sums))
	return nil
}

// codecSeg times flate on one of the workload's pieces and the data
// segment's encoding.
func (p *prober) codecSeg() error {
	n := p.w.tasks()
	var piece []byte
	err := spmd(n, msg.NewLocalTransport(n), func(c *msg.Comm) error {
		st, err := newProbeState(p.w, c, p.seed, true)
		if err != nil || c.Rank() != 0 {
			return err
		}
		var buf []byte
		if _, err := st.arrays[0].packAssigned(&buf); err != nil {
			return err
		}
		piece = buf[:min(len(buf), p.pieceBytes())]
		return nil
	})
	if err != nil {
		return err
	}
	var enc []byte
	var cerr error
	per := repeatFor(func() {
		if enc, err = codec.Encode(codec.Flate, enc, piece); err != nil {
			cerr = err
		}
	})
	p.m["codec.encode_mb_s"] = mbPerS(int64(len(piece)), per)
	p.m["codec.ratio"] = float64(len(enc)) / float64(len(piece))
	dec := make([]byte, len(piece))
	per = repeatFor(func() {
		if err := codec.Decode(codec.Flate, dec, enc); err != nil {
			cerr = err
		}
	})
	p.m["codec.decode_mb_s"] = mbPerS(int64(len(piece)), per)

	sg := seg.New()
	iter := 0
	sg.Register("iter", &iter)
	var payload []byte
	per = repeatFor(func() {
		if payload, err = sg.Encode(); err != nil {
			cerr = err
		}
	})
	p.m["seg.encode_us"] = us(per)
	p.m["seg.bytes"] = float64(len(payload))
	return cerr
}

// pfsLayer moves the state's bytes through the file system in piece-sized
// operations from four clients at once.
func (p *prober) pfsLayer() error {
	const clients = 4
	fs := pfs.NewSystem(pfs.DefaultConfig())
	op := p.perPeerBytes() * p.w.tasks() // one piece, or a rank's share of a small state
	per := max(int(p.w.logicalBytes())/clients/op, 1)
	buf := make([]byte, op)
	for i := range buf {
		buf[i] = byte(mix(uint64(i)))
	}
	pass := func(write bool) (time.Duration, error) {
		var wg sync.WaitGroup
		errs := make([]error, clients)
		start := time.Now()
		for cl := 0; cl < clients; cl++ {
			wg.Add(1)
			go func(cl int) {
				defer wg.Done()
				dst := make([]byte, op)
				for i := 0; i < per && errs[cl] == nil; i++ {
					off := int64(cl*per+i) * int64(op)
					if write {
						errs[cl] = fs.WriteAt(cl, "pfs.probe", buf, off)
					} else {
						errs[cl] = fs.ReadAt(cl, "pfs.probe", dst, off)
					}
				}
			}(cl)
		}
		wg.Wait()
		d := time.Since(start)
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return d, nil
	}
	var writes, reads []time.Duration
	for i := 0; i < 2*probeReps; i++ {
		d, err := pass(true)
		if err != nil {
			return err
		}
		writes = append(writes, d)
	}
	for i := 0; i < 2*probeReps; i++ {
		d, err := pass(false)
		if err != nil {
			return err
		}
		reads = append(reads, d)
	}
	bytes := int64(clients) * int64(per) * int64(op)
	p.m["pfs.write_mb_s"] = mbPerS(bytes, medianDur(writes))
	p.m["pfs.read_mb_s"] = mbPerS(bytes, medianDur(reads))
	return nil
}

// chained mirrors drms's choice of checkpoint format for a configuration.
func chained(cfg drms.Config, hot bool) bool {
	return cfg.AnchorEvery > 1 || cfg.Codec != ckpt.CodecAuto || hot
}

// ckptLayer calls the workload's checkpoint writer and readers directly —
// no drms — over a counting transport: first generation untimed, then
// probeReps steady generations each after the workload's dirty step.
func (p *prober) ckptLayer() error {
	fs := pfs.NewSystem(pfs.DefaultConfig())
	var tier *ckpt.MemTier
	if p.w.hot {
		tier = ckpt.NewMemTier()
	}
	n := p.w.tasks()
	opts := p.cfg.Stream
	isChained := chained(p.cfg, p.w.hot)
	stats := make([][]ckpt.Stats, probeReps+1) // [generation][rank]
	for i := range stats {
		stats[i] = make([]ckpt.Stats, n)
	}
	gen := func(i int) string { return fmt.Sprintf("%s.g%d", probePrefix, i) }
	ct := newCountingTransport(n)
	var writes []time.Duration
	net := make([]msgCounts, n) // per rank: the steady writes' traffic, bracketing barriers taken out
	err := spmd(n, ct, func(c *msg.Comm) error {
		st, err := newProbeState(p.w, c, p.seed, true)
		if err != nil {
			return err
		}
		var prevMeta *ckpt.Meta
		write := func(i int) error {
			var s ckpt.Stats
			var err error
			if isChained {
				co := ckpt.ChainOptions{Codec: p.cfg.Codec, PrevMeta: prevMeta, Tier: tier, Replicas: p.cfg.Replicas}
				if i > 0 {
					co.Prev = gen(i - 1)
					co.Delta = p.cfg.AnchorEvery > 1 && i%p.cfg.AnchorEvery != 0
					co.MemOnly = tier != nil && p.cfg.DemoteEvery > 1
				}
				s, err = ckpt.WriteDRMSChained(fs, gen(i), c, st.sg, st.refs, opts, co)
			} else {
				s, err = ckpt.WriteDRMS(fs, gen(i), c, st.sg, st.refs, opts)
			}
			prevMeta = s.Meta
			stats[i][c.Rank()] = s
			return err
		}
		if err := write(0); err != nil {
			return err
		}
		// The bracketing barriers' own traffic, to take out of the counts.
		me := c.Rank()
		before := ct.rank(me)
		if _, err := timedCollective(c, probeReps, nil, func(int) error { return nil }); err != nil {
			return err
		}
		mid := ct.rank(me)
		rot := ckpt.Rotation{Base: probePrefix, Keep: max(p.cfg.Keep, 1), Tier: tier}
		wd, err := timedCollective(c, probeReps,
			func(i int) error {
				// Between checkpoints, what the run-time system does there:
				// the dirty step's owner is the application, pruning rank 0's.
				st.dirty(p.w, mix(p.seed+uint64(i)))
				if c.Rank() == 0 {
					rot.Prune(fs)
				}
				return nil
			},
			func(i int) error { return write(i + 1) })
		if err != nil {
			return err
		}
		net[me] = ct.rank(me).sub(mid).sub(mid.sub(before))
		if me == 0 {
			writes = wd
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.ckptWrite = medianDur(writes)
	p.m["ckpt.write_ms"] = ms(p.ckptWrite)
	var traffic msgCounts
	for _, r := range net {
		traffic = traffic.add(r)
	}
	p.m["msg.ops_per_ckpt"] = float64(traffic.sends) / probeReps
	p.m["msg.bytes_per_ckpt"] = float64(traffic.bytes) / probeReps
	p.m["msg.recv_wait_ms_per_ckpt"] = ms(traffic.recvWait) / probeReps
	var stored, skipped, remote []float64
	for _, g := range stats[1:] {
		var st, sk, nb int64
		for _, s := range g {
			st, sk, nb = st+s.StoredBytes, sk+s.SkippedBytes, nb+s.NetBytes
		}
		stored, skipped, remote = append(stored, float64(st)), append(skipped, float64(sk)), append(remote, float64(nb))
	}
	p.m["ckpt.stored_bytes_per_ckpt"] = median(stored)
	p.m["ckpt.skipped_bytes_per_ckpt"] = median(skipped)
	p.m["array.remote_bytes_per_ckpt"] = median(remote)

	latest := gen(probeReps)
	var merr error
	p.m["ckpt.read_meta_us"] = us(repeatFor(func() {
		if _, err := ckpt.ReadMeta(fs, latest, 0); err != nil {
			merr = err
		}
	}))
	if merr != nil {
		return merr
	}
	size, err := fs.Size(latest + ".meta")
	if err != nil {
		return err
	}
	p.m["ckpt.meta_bytes"] = float64(size)
	var resolves []time.Duration
	for i := 0; i < probeReps; i++ {
		start := time.Now()
		chosen, quarantined, ok, verr := ckpt.ResolveVerifiedTier(fs, tier, probePrefix)
		resolves = append(resolves, time.Since(start))
		if !ok || chosen != latest || len(quarantined) > 0 {
			return fmt.Errorf("verified resolution chose %q (quarantined %v): %v", chosen, quarantined, verr)
		}
	}
	p.m["ckpt.resolve_verified_ms"] = ms(medianDur(resolves))

	// Full restore at the workload's restore task count.
	m := p.w.restoreTasks()
	var reads []time.Duration
	var readStats ckpt.Stats
	err = spmd(m, msg.NewLocalTransport(m), func(c *msg.Comm) error {
		st, err := newProbeState(p.w, c, p.seed, false)
		if err != nil {
			return err
		}
		rd, err := timedCollective(c, probeReps, nil, func(int) error {
			_, s, err := ckpt.ReadDRMSOpts(fs, latest, c, st.sg, st.refs, opts,
				ckpt.RestoreOptions{Verify: p.cfg.Verify, Tier: tier})
			if c.Rank() == 0 {
				readStats = s
			}
			return err
		})
		if c.Rank() == 0 {
			reads = rd
		}
		return err
	})
	if err != nil {
		return err
	}
	p.ckptRead = medianDur(reads)
	p.m["ckpt.read_ms"] = ms(p.ckptRead)
	p.m["ckpt.tier_mem_bytes_per_restore"] = float64(readStats.TierMemBytes)
	p.m["ckpt.tier_pfs_bytes_per_restore"] = float64(readStats.TierPFSBytes)

	// Partial restore of rank 1's sections, where the format allows one.
	var partials []time.Duration
	err = spmd(n, msg.NewLocalTransport(n), func(c *msg.Comm) error {
		st, err := newProbeState(p.w, c, p.seed, false)
		if err != nil {
			return err
		}
		lost := []int{1 % n}
		if ckpt.PartialEligible(fs, tier, latest, n, st.refs, lost, opts) != nil {
			return nil // every rank reads the same storage, so all skip together
		}
		pd, err := timedCollective(c, probeReps, nil, func(int) error {
			_, _, err := ckpt.ReadDRMSPartial(fs, latest, c, st.sg, st.refs, opts,
				ckpt.PartialRestoreOptions{Tier: tier, Ranks: lost, NeedSegment: c.Rank() == lost[0]})
			return err
		})
		if c.Rank() == 0 {
			partials = pd
		}
		return err
	})
	if len(partials) > 0 {
		p.m["ckpt.read_partial_ms"] = ms(medianDur(partials))
	}
	return err
}

// stateStore times commits of a control-plane-shaped record table: one
// record changes between commits, as after a single application mutation.
func (p *prober) stateStore() error {
	fs := pfs.NewSystem(pfs.DefaultConfig())
	store := &ckpt.StateStore{Base: "probe.state"}
	records := map[string][]byte{"rc": []byte(strings.Repeat("r", 64))}
	var commits []time.Duration
	for i := 0; i < 4*probeReps; i++ {
		records["app/"+ckptPrefix] = []byte(strings.Repeat(string(rune('a'+i%26)), 512))
		start := time.Now()
		if _, err := store.Commit(fs, records); err != nil {
			return err
		}
		commits = append(commits, time.Since(start))
	}
	p.m["ckpt.state_commit_ms"] = ms(medianDur(commits))
	return nil
}

// launch times drms.Start until every rank runs an empty body.
func (p *prober) launch() error {
	n := p.w.tasks()
	var launches []time.Duration
	for i := 0; i < 2*probeReps; i++ {
		var in sync.WaitGroup
		in.Add(n)
		start := time.Now()
		h, err := drms.Start(drms.Config{Tasks: n, FS: pfs.NewSystem(pfs.DefaultConfig())},
			func(*drms.Task) error { in.Done(); return nil })
		if err != nil {
			return err
		}
		in.Wait()
		launches = append(launches, time.Since(start))
		if err := h.Wait(); err != nil {
			return err
		}
	}
	p.m["drms.launch_ms"] = ms(medianDur(launches))
	return nil
}

// obsLayer renders the program's metrics registry the way a scrape does.
func (p *prober) obsLayer() error {
	var text string
	per := repeatFor(func() { text = obs.Default.Render() })
	p.m["obs.render_ms"] = ms(per)
	series := 0
	for _, line := range strings.Split(text, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			series++
		}
	}
	p.m["obs.series"] = float64(series)
	return nil
}
