package ckpt_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"testing"

	"drms/internal/array"
	"drms/internal/ckpt"
	"drms/internal/dist"
	"drms/internal/msg"
	"drms/internal/pfs"
	"drms/internal/rangeset"
	"drms/internal/seg"
	"drms/internal/stream"
)

// TestSpecReaderRebuildsEveryStream writes a raw anchor and two flate
// deltas of two arrays from 1, 2, 3, 4 and 8 tasks under a block and a
// block-cyclic distribution, and rebuilds every array's stream of every
// generation with the independent reader (specread_test.go): each must
// be, byte for byte, the array as gathered at checkpoint time in
// column-major order, little-endian — the stored representation does
// not depend on how the array was distributed or who wrote it.
func TestSpecReaderRebuildsEveryStream(t *testing.T) {
	const gens = 3
	global := rangeset.Box([]int{0, 0}, []int{22, 16})
	for _, tasks := range []int{1, 2, 3, 4, 8} {
		for _, layout := range []string{"block", "block-cyclic"} {
			t.Run(fmt.Sprintf("%d-tasks/%s", tasks, layout), func(t *testing.T) {
				fs := pfs.NewSystem(pfs.Config{Servers: 4, StripeUnit: 256})
				want := make([]map[string][]byte, gens) // per generation: array -> gathered stream
				runSpec(t, tasks, func(c *msg.Comm) error {
					grid := dist.FactorGrid(tasks, 2, []int{23, 17})
					d, err := dist.Block(global, grid)
					if layout == "block-cyclic" {
						d, err = dist.BlockCyclic(global, grid, []int{3, 2})
					}
					if err != nil {
						return err
					}
					u, err := array.New[float64](c, "u", d)
					if err != nil {
						return err
					}
					ids, err := array.New[int32](c, "ids", d)
					if err != nil {
						return err
					}
					for g := range gens {
						// Generation g rewrites column g: a delta stores the
						// pieces it touches and points back for the rest.
						u.Fill(func(cd []int) float64 { return float64(cd[0]*17+cd[1])/7 + float64(g*btoi(cd[1] == g)) })
						ids.Fill(func(cd []int) int32 { return int32(cd[0]-cd[1]*31) * int32(1+btoi(cd[1] == g)) })
						co := ckpt.ChainOptions{Codec: ckpt.CodecRaw}
						if g > 0 {
							co = ckpt.ChainOptions{Prev: fmt.Sprintf("job.g%d", g-1), Delta: true, Codec: ckpt.CodecFlate}
						}
						refs := []ckpt.ArrayRef{ckpt.Ref(u), ckpt.Ref(ids)}
						if _, err := ckpt.WriteDRMSChained(fs, fmt.Sprintf("job.g%d", g), c, seg.New(), refs, stream.Options{PieceBytes: 256}, co); err != nil {
							return err
						}
						us, err := u.Gather(0, rangeset.ColMajor)
						if err != nil {
							return err
						}
						is, err := ids.Gather(0, rangeset.ColMajor)
						if err != nil {
							return err
						}
						if c.Rank() == 0 {
							want[g] = map[string][]byte{"u": nil, "ids": nil}
							for _, v := range us {
								want[g]["u"] = binary.LittleEndian.AppendUint64(want[g]["u"], math.Float64bits(v))
							}
							for _, v := range is {
								want[g]["ids"] = binary.LittleEndian.AppendUint32(want[g]["ids"], uint32(v))
							}
						}
					}
					return nil
				})
				read := func(name string) ([]byte, error) {
					n, err := fs.Size(name)
					if err != nil {
						return nil, err
					}
					b := make([]byte, n)
					return b, fs.ReadAt(0, name, b, 0)
				}
				var flated, carried int
				for g := range gens {
					prefix := fmt.Sprintf("job.g%d", g)
					b, err := read(prefix + ".meta")
					if err != nil {
						t.Fatal(err)
					}
					m, err := readSpecMeta(b)
					if err != nil || m.mode != "drms" || m.tasks != int64(tasks) || len(m.arrays) != 2 || len(m.locs) != 2 {
						t.Fatalf("%s: %s metadata of %d tasks, %d arrays: %v", prefix, m.mode, m.tasks, len(m.arrays), err)
					}
					for i, a := range m.arrays {
						got, err := specStream(read, prefix, &m, i)
						if err != nil {
							t.Fatalf("%s: %v", prefix, err)
						}
						if !bytes.Equal(got, want[g][a.name]) {
							t.Fatalf("%s: the stored stream of %q differs from the gathered array", prefix, a.name)
						}
						for _, l := range m.locs[i] {
							flated += btoi(l.codec == 1)
							carried += btoi(l.gen != int64(g))
						}
					}
				}
				if flated == 0 || carried == 0 {
					t.Fatalf("%d flate pieces and %d carried by back-pointer: the chain exercised neither codec or delta", flated, carried)
				}
			})
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runSpec runs f as n ranks over an in-process transport; the first
// error aborts the transport so peers blocked in a collective unwind.
func runSpec(t *testing.T, n int, f func(c *msg.Comm) error) {
	t.Helper()
	tr := msg.NewLocalTransport(n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[r] = f(msg.NewComm(r, n, tr)); errs[r] != nil {
				tr.Abort(msg.ErrRevoked)
			}
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}
