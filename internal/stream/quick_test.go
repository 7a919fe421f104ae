package stream

import (
	"math/rand"
	"testing"

	"drms/internal/array"
	"drms/internal/dist"
	"drms/internal/msg"
	"drms/internal/pfs"
	"drms/internal/rangeset"
)

// randomSection builds a random (possibly strided or irregular) section
// of a 2-D global box.
func randomSection(rng *rand.Rand, g rangeset.Slice) rangeset.Slice {
	pick := func(ax rangeset.Range) rangeset.Range {
		switch rng.Intn(3) {
		case 0: // dense sub-span
			lo := rng.Intn(ax.Size())
			hi := lo + rng.Intn(ax.Size()-lo)
			return rangeset.Span(ax.At(lo), ax.At(hi))
		case 1: // strided
			lo := rng.Intn(ax.Size())
			st := 1 + rng.Intn(3)
			return rangeset.Reg(ax.At(lo), ax.Max(), st)
		default: // irregular subset
			var v []int
			for i := 0; i < ax.Size(); i++ {
				if rng.Intn(2) == 0 {
					v = append(v, ax.At(i))
				}
			}
			if len(v) == 0 {
				v = []int{ax.At(rng.Intn(ax.Size()))}
			}
			return rangeset.List(v...)
		}
	}
	return rangeset.NewSlice(pick(g.Axis(0)), pick(g.Axis(1)))
}

// TestStreamQuickRandomSectionsRoundTrip is the model-based property test
// of §3.2: for random sections, orders, distributions, writer counts and
// piece sizes, (1) the streamed bytes equal the section's plain
// linearization and (2) reading them back into a differently distributed
// array under a different plan restores exactly the section.
func TestStreamQuickRandomSectionsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 30; iter++ {
		rows := 3 + rng.Intn(10)
		cols := 3 + rng.Intn(10)
		g := rangeset.Box([]int{0, 0}, []int{rows - 1, cols - 1})
		x := randomSection(rng, g)
		order := rangeset.Order(rng.Intn(2))
		wTasks := 1 + rng.Intn(4)
		rTasks := 1 + rng.Intn(4)
		wOpts := Options{
			Order:      order,
			Writers:    rng.Intn(wTasks + 1),
			PieceBytes: 8 * (1 + rng.Intn(40)),
		}
		rOpts := Options{
			Order:      order,
			Writers:    rng.Intn(rTasks + 1),
			PieceBytes: 8 * (1 + rng.Intn(40)),
		}
		fs := pfs.NewSystem(pfs.Config{Servers: 1 + rng.Intn(5), StripeUnit: 32 + rng.Intn(200)})

		wGrid := dist.FactorGrid(wTasks, 2, g.Shape())
		mustRun(t, wTasks, func(c *msg.Comm) {
			d, err := dist.Block(g, wGrid)
			if err != nil {
				panic(err)
			}
			a, err := array.New[float64](c, "u", d)
			if err != nil {
				panic(err)
			}
			a.Fill(coordVal)
			if _, err := Write(a, x, fs, "s", wOpts); err != nil {
				panic(err)
			}
		})

		// Property 1: bytes are the plain linearization.
		want := referenceStream(x, order)
		got := make([]byte, len(want))
		if err := fs.ReadAt(0, "s", got, 0); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if string(got) != string(want) {
			t.Fatalf("iter %d: stream of %v in %v order differs from linearization", iter, x, order)
		}

		// Property 2: roundtrip into a different configuration.
		rGrid := dist.FactorGrid(rTasks, 2, g.Shape())
		mustRun(t, rTasks, func(c *msg.Comm) {
			d, err := dist.Block(g, rGrid)
			if err != nil {
				panic(err)
			}
			a, err := array.New[float64](c, "u", d)
			if err != nil {
				panic(err)
			}
			if _, err := Read(a, x, fs, "s", rOpts); err != nil {
				panic(err)
			}
			x.Each(rangeset.ColMajor, func(cd []int) {
				if a.Mapped().Contains(cd) && a.At(cd) != coordVal(cd) {
					panic("roundtrip corrupted a section element")
				}
			})
		})
	}
}
