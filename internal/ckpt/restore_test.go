package ckpt

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"drms/internal/array"
	"drms/internal/msg"
	"drms/internal/pfs"
	"drms/internal/rangeset"
	"drms/internal/stream"
)

// sendCounter wraps a transport and counts, per source rank, the
// messages that cross it — from outside the message layer, so a restore
// that gains or loses a collective shows up whatever the layer's own
// counters say.
type sendCounter struct {
	msg.Transport
	sends []atomic.Int64
}

func (t *sendCounter) Send(src, dst, tag int, data []byte) error {
	t.sends[src].Add(1)
	return t.Transport.Send(src, dst, tag, data)
}

// runCounted runs f as n ranks over a counting transport. The first
// error aborts the transport so peers blocked in a collective unwind.
func runCounted(t *testing.T, n int, f func(c *msg.Comm, sent func() int64) error) {
	t.Helper()
	tr := &sendCounter{Transport: msg.NewLocalTransport(n), sends: make([]atomic.Int64, n)}
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			err := f(msg.NewComm(rank, n, tr), tr.sends[rank].Load)
			if err != nil {
				once.Do(func() {
					first = fmt.Errorf("rank %d: %w", rank, err)
					tr.Abort(msg.ErrRevoked)
				})
			}
		}(r)
	}
	wg.Wait()
	if first != nil {
		t.Fatal(first)
	}
}

// restoreFormats are the stored representations every restore shape must
// serve: each stores chainFill(step) state of 4 tasks — v1-flat as
// drmsfsck -repair leaves the stored v1 rotation (one task-0 piece file
// per array), the rest by writing — and names the generation to restore.
// Only a format written through the tier is restored with one configured.
var restoreFormats = []struct {
	name   string
	tiered bool
	write  func(t *testing.T, fs *pfs.System, tier *MemTier) (from string, step int)
}{
	{"v1-flat", false, func(t *testing.T, fs *pfs.System, _ *MemTier) (string, int) {
		loadUpgradedV1Rotation(t, fs)
		return "job.g0", 0
	}},
	{"chained-raw-anchor", false, func(t *testing.T, fs *pfs.System, _ *MemTier) (string, int) {
		writeChainGen(t, fs, "job.g0", ChainOptions{Codec: CodecRaw}, 0, 4, []int{2, 2})
		return "job.g0", 0
	}},
	{"chained-flate-delta", false, func(t *testing.T, fs *pfs.System, _ *MemTier) (string, int) {
		writeChainGen(t, fs, "job.g0", ChainOptions{Codec: CodecFlate}, 0, 4, []int{2, 2})
		writeChainGen(t, fs, "job.g1", ChainOptions{Prev: "job.g0", Delta: true, Codec: CodecFlate}, 1, 4, []int{2, 2})
		return "job.g1", 1
	}},
	{"memory-only", true, func(t *testing.T, fs *pfs.System, tier *MemTier) (string, int) {
		co := ChainOptions{Tier: tier, Replicas: 1, Codec: CodecRaw}
		writeChainGen(t, fs, "job.g0", co, 0, 4, []int{2, 2})
		co.Prev, co.Delta, co.MemOnly = "job.g0", true, true
		writeChainGen(t, fs, "job.g1", co, 1, 4, []int{2, 2})
		return "job.g1", 1
	}},
}

// restoreShapes are the restart shapes: ranks == nil loads every rank's
// sections through ReadDRMSOpts; otherwise the listed replacement ranks
// load theirs through ReadDRMSPartial while the survivors keep memory.
var restoreShapes = []struct {
	name  string
	tasks int
	grid  []int
	ranks []int
}{
	{"full-same", 4, []int{2, 2}, nil},
	{"full-reconfigured", 3, []int{1, 3}, nil},
	{"partial-one-rank", 4, []int{2, 2}, []int{2}},
	{"partial-two-ranks", 4, []int{2, 2}, []int{1, 3}},
}

// restorePinned holds, per format/shape, each rank's
// "sends:SegmentBytes/ArrayBytes/NetBytes/TierMemBytes/TierPFSBytes".
// The byte columns are those measured on the readers this engine
// replaced (commit bdae8b6). The send counts are the collectives'
// fingerprint: a restore path that gains one changes every rank's
// count. A full restore sends 4/3 when no tier is configured and 6/4
// with one: the difference is the residency vote, one Gather and Bcast
// for all arrays. A partial restore always votes, on its eligibility, in
// that round. Besides the piece exchange, what is left is one integrity
// round for every array together (checkRead: a Gather of the piece CRCs
// and tier byte counts, a Bcast of the verdict and the totals); no
// barrier marks a phase. An
// upgraded v1 generation restores exactly as a raw anchor: its full
// restores count the array bytes in TierPFSBytes too, where the v1
// reader counted the segments alone (168/126). The segment columns are
// framed payloads (DESIGN.md §3g): 42-byte files, 26-byte payloads in the
// tier, where the gob wrapper took 275 and 259.
var restorePinned = map[string]string{
	"v1-flat/full-same":                     "4:42/1728/216/0/1896 4:42/1728/216/0/1896 3:42/1728/216/0/1896 3:42/1728/216/0/1896",
	"v1-flat/full-reconfigured":             "4:42/1728/432/0/1854 3:42/1728/144/0/1854 3:42/1728/288/0/1854",
	"v1-flat/partial-one-rank":              "8:0/864/432/0/906 8:0/864/432/0/906 2:42/864/0/0/906 2:0/864/0/0/906",
	"v1-flat/partial-two-ranks":             "6:0/1728/216/0/1812 6:42/1728/216/0/1812 4:0/1728/216/0/1812 4:42/1728/216/0/1812",
	"chained-raw-anchor/full-same":          "4:42/1728/216/0/1896 4:42/1728/216/0/1896 3:42/1728/216/0/1896 3:42/1728/216/0/1896",
	"chained-raw-anchor/full-reconfigured":  "4:42/1728/432/0/1854 3:42/1728/144/0/1854 3:42/1728/288/0/1854",
	"chained-raw-anchor/partial-one-rank":   "8:0/864/432/0/906 8:0/864/432/0/906 2:42/864/0/0/906 2:0/864/0/0/906",
	"chained-raw-anchor/partial-two-ranks":  "6:0/1728/216/0/1812 6:42/1728/216/0/1812 4:0/1728/216/0/1812 4:42/1728/216/0/1812",
	"chained-flate-delta/full-same":         "4:42/1728/216/0/1896 4:42/1728/216/0/1896 3:42/1728/216/0/1896 3:42/1728/216/0/1896",
	"chained-flate-delta/full-reconfigured": "4:42/1728/432/0/1854 3:42/1728/144/0/1854 3:42/1728/288/0/1854",
	"chained-flate-delta/partial-one-rank":  "8:0/864/432/0/906 8:0/864/432/0/906 2:42/864/0/0/906 2:0/864/0/0/906",
	"chained-flate-delta/partial-two-ranks": "6:0/1728/216/0/1812 6:42/1728/216/0/1812 4:0/1728/216/0/1812 4:42/1728/216/0/1812",
	"memory-only/full-same":                 "6:42/1728/216/1832/0 6:42/1728/216/1832/0 4:42/1728/216/1832/0 4:42/1728/216/1832/0",
	"memory-only/full-reconfigured":         "6:42/1728/432/1806/0 4:42/1728/144/1806/0 4:42/1728/288/1806/0",
	"memory-only/partial-one-rank":          "8:0/864/432/890/0 8:0/864/432/890/0 2:42/864/0/890/0 2:0/864/0/890/0",
	"memory-only/partial-two-ranks":         "6:0/1728/216/1780/0 6:42/1728/216/1780/0 4:0/1728/216/1780/0 4:42/1728/216/1780/0",
}

// holdsChainFill checks this rank's elements of buildApp's two arrays
// against chainFill(step).
func holdsChainFill(u *array.Array[float64], ids *array.Array[int32], step int) (bad error) {
	uf, idf := chainFill(step)
	u.Mapped().Each(rangeset.ColMajor, func(cd []int) {
		if u.At(cd) != uf(cd) {
			bad = fmt.Errorf("u%v = %v, want %v", cd, u.At(cd), uf(cd))
		}
	})
	ids.Mapped().Each(rangeset.ColMajor, func(cd []int) {
		if ids.At(cd) != idf(cd) {
			bad = fmt.Errorf("ids%v = %v, want %v", cd, ids.At(cd), idf(cd))
		}
	})
	return bad
}

// TestRestoreEngineEveryFormatAndShape drives the one restore engine
// through every stored format and every restart shape: the restored
// state is bit-exact, and the Stats and per-rank message counts are those
// of the separate readers it replaced.
func TestRestoreEngineEveryFormatAndShape(t *testing.T) {
	for _, f := range restoreFormats {
		for _, sh := range restoreShapes {
			f, sh := f, sh
			t.Run(f.name+"/"+sh.name, func(t *testing.T) {
				fs, tier := testFS(), NewMemTier()
				from, step := f.write(t, fs, tier)
				if !f.tiered {
					tier = nil
				}
				rows := make([]string, sh.tasks)
				runCounted(t, sh.tasks, func(c *msg.Comm, sent func() int64) error {
					me := c.Rank()
					sg, refs, u, ids := buildApp(c, sh.grid)
					var iter int
					sg.Register("iter", &iter)
					replaced := sh.ranks == nil
					for _, r := range sh.ranks {
						replaced = replaced || r == me
					}
					if !replaced { // a survivor still holds the state
						iter = step
						uf, idf := chainFill(step)
						u.Fill(uf)
						ids.Fill(idf)
					}
					o := stream.Options{PieceBytes: 300}
					before := sent()
					var (
						st  Stats
						err error
					)
					if sh.ranks == nil {
						_, st, err = ReadDRMSOpts(fs, from, c, sg, refs, o, RestoreOptions{Verify: true, Tier: tier})
					} else {
						_, st, err = ReadDRMSPartial(fs, from, c, sg, refs, o,
							PartialRestoreOptions{Tier: tier, Ranks: sh.ranks, NeedSegment: replaced})
					}
					if err != nil {
						return err
					}
					ops := sent() - before
					if iter != step {
						return fmt.Errorf("iter = %d, want %d", iter, step)
					}
					if err := holdsChainFill(u, ids, step); err != nil {
						return err
					}
					if st.SkippedBytes != 0 || st.StoredBytes != 0 || st.Meta != nil {
						return fmt.Errorf("restore set write-side stats: %+v", st)
					}
					rows[me] = fmt.Sprintf("%d:%d/%d/%d/%d/%d", ops, st.SegmentBytes,
						st.ArrayBytes, st.NetBytes, st.TierMemBytes, st.TierPFSBytes)
					return nil
				})
				got := strings.Join(rows, " ")
				if want := restorePinned[f.name+"/"+sh.name]; got != want {
					t.Errorf("per-rank sends:stats\n got  %q\n want %q", got, want)
				}
			})
		}
	}
}

// TestResidencyVoteNeedsATier restores one disk-resident chained
// generation, every piece of it also resident in the tier it was written
// under, on a changed task count both ways. With no tier configured
// nobody votes — the sends are those of an untiered format — and every byte
// comes from the pfs; with it the vote passes and the arrays come from
// peer memory under the hot plan. Both are bit-exact.
func TestResidencyVoteNeedsATier(t *testing.T) {
	fs, tier := testFS(), NewMemTier()
	writeChainGen(t, fs, "job.g0", ChainOptions{Tier: tier, Replicas: 1, Codec: CodecRaw}, 0, 4, []int{2, 2})
	for _, tc := range []struct {
		name  string
		tier  *MemTier
		sends []int64
	}{
		{"no-tier", nil, []int64{4, 3, 3}},
		{"every-piece-resident", tier, []int64{6, 4, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runCounted(t, 3, func(c *msg.Comm, sent func() int64) error {
				sg, refs, u, ids := buildApp(c, []int{1, 3})
				var iter int
				sg.Register("iter", &iter)
				before := sent()
				_, st, err := ReadDRMSOpts(fs, "job.g0", c, sg, refs, stream.Options{PieceBytes: 300},
					RestoreOptions{Verify: true, Tier: tc.tier})
				if err != nil {
					return err
				}
				if ops := sent() - before; ops != tc.sends[c.Rank()] {
					return fmt.Errorf("%d sends, want %d", ops, tc.sends[c.Rank()])
				}
				if tiered := tc.tier != nil; (st.TierMemBytes > 0) != tiered || (st.TierPFSBytes > 0) == tiered {
					return fmt.Errorf("served %d bytes from memory and %d from the pfs", st.TierMemBytes, st.TierPFSBytes)
				}
				if iter != 0 {
					return fmt.Errorf("iter = %d, want 0", iter)
				}
				return holdsChainFill(u, ids, 0)
			})
		})
	}
}
