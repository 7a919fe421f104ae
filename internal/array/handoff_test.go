package array

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"drms/internal/dist"
	"drms/internal/msg"
	"drms/internal/rangeset"
)

// The exchange hands its send buffers to the transport, and the rank that
// lands a buffer's bytes recycles it. The tests below pin both halves: a
// buffer is never written again while its receiver still reads it, and the
// pool gets back exactly what it gives out.

// TestPieceExchangeCirculatesBuffers runs 200 alternating PackPieces and
// UnpackPieces rounds of 4-task decodePieceCase draws on one communicator,
// each compared with the reference path's bytes. Were a sender to recycle a
// buffer it handed off, the pool would give it out twice and two messages
// would share it: the bytes differ, and under -race the detector reports the
// pack racing the landing.
func TestPieceExchangeCirculatesBuffers(t *testing.T) {
	var cases []pieceCase
	for _, seed := range pieceCaseSeeds(400) {
		if pc := decodePieceCase(seed); pc.d.Tasks() == 4 && len(pc.rounds) > 0 && len(cases) < 8 {
			cases = append(cases, pc)
		}
	}
	if len(cases) < 8 {
		t.Fatalf("only %d four-task cases among the seeds", len(cases))
	}
	type step struct {
		a, b    *Array[float64]
		round   *dist.Distribution
		order   rangeset.Order
		piece   []byte    // the round's piece, from the reference path
		landed  []float64 // b's storage after the piece is unpacked into sentinels
		scratch []byte
	}
	mustRun(t, 4, func(c *msg.Comm) {
		must := func(err error) {
			if err != nil {
				panic(err)
			}
		}
		fresh := func(name string, d *dist.Distribution, f func([]int) float64) *Array[float64] {
			a, err := New[float64](c, name, d)
			must(err)
			if f != nil {
				a.Fill(f)
			}
			return a
		}
		sentinel := func([]int) float64 { return 101 }
		var steps []step
		for _, pc := range cases {
			a, b := fresh("a", pc.d, mark[float64]), fresh("b", pc.d2, nil)
			for _, round := range pc.rounds {
				aux := fresh("aux", round, nil)
				must(assignReference(aux, a))
				piece, err := aux.PackSection(round.Mapped(c.Rank()), pc.order)
				must(err)
				back, ref := fresh("back", round, nil), fresh("ref", pc.d2, sentinel)
				must(back.UnpackSection(round.Mapped(c.Rank()), pc.order, piece))
				must(assignReference(ref, back))
				steps = append(steps, step{a, b, round, pc.order, piece, ref.Local(), make([]byte, len(piece))})
			}
		}
		for i := 0; i < 200; i++ {
			s := steps[i%len(steps)]
			clear(s.scratch)
			_, err := PackPieces(s.a, s.round, s.order, s.scratch)
			must(err)
			if !bytes.Equal(s.scratch, s.piece) {
				panic(fmt.Sprintf("round %d rank %d: PackPieces\n got %v\nwant %v", i, c.Rank(), s.scratch, s.piece))
			}
			s.b.Fill(sentinel)
			_, err = UnpackPieces(s.b, s.round, s.order, s.piece)
			must(err)
			for k, v := range s.landed {
				if s.b.Local()[k] != v {
					panic(fmt.Sprintf("round %d rank %d: UnpackPieces left local[%d] = %v, reference %v", i, c.Rank(), k, s.b.Local()[k], v))
				}
			}
		}
	})
}

// TestPieceExchangePoolBalanced: with the collector off, so the pool keeps
// all it is given, steady-state piece rounds of a BT-shaped array allocate
// less than the bytes they move — the buffers circulate instead of being
// copied. Each round is a PackPieces and an UnpackPieces on 4 tasks; the
// least of five measurements counts, as in TestChecksumAllocsIndependentOfSize.
func TestPieceExchangePoolBalanced(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a share of what it is given")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const tasks, rounds = 4, 10
	g := rangeset.Box([]int{0, 0, 0, 0}, []int{4, 15, 15, 15})
	d := mustBlock(t, g, []int{1, 1, 2, 2})
	pieces := g.Partition(tasks, rangeset.ColMajor)
	round, err := dist.Irregular(g, pieces, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wire atomic.Int64 // bytes all ranks sent in the last measured rounds
	least := math.Inf(1)
	mustRun(t, tasks, func(c *msg.Comm) {
		a, _ := New[float64](c, "u", d)
		a.Fill(coordVal)
		buf := make([]byte, round.Mapped(c.Rank()).Size()*ElemSize[float64]())
		var before, after runtime.MemStats
		for rep := 0; rep < 6; rep++ { // the first builds the plans and fills the pool
			c.Barrier()
			if c.Rank() == 0 {
				wire.Store(0)
				runtime.ReadMemStats(&before)
			}
			c.Barrier()
			for i := 0; i < rounds; i++ {
				out, err := PackPieces(a, round, rangeset.ColMajor, buf)
				if err != nil {
					panic(err)
				}
				in, err := UnpackPieces(a, round, rangeset.ColMajor, buf)
				if err != nil {
					panic(err)
				}
				wire.Add(out + in)
			}
			c.Barrier()
			if c.Rank() == 0 && rep > 0 {
				runtime.ReadMemStats(&after)
				least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/rounds)
			}
		}
	})
	perRound := float64(wire.Load()) / rounds
	t.Logf("per round: %.0f bytes allocated, %.0f bytes on the wire", least, perRound)
	if perRound == 0 || least >= perRound {
		t.Fatalf("a round allocates %.0f bytes to move %.0f: the exchange copies or the pool leaks", least, perRound)
	}
}
