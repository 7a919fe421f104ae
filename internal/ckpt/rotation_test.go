package ckpt

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"drms/internal/msg"
	"drms/internal/pfs"
	"drms/internal/stream"
)

// touch fabricates checkpoint-shaped files: a name ending in ".meta"
// marks a committed generation, anything else is payload. Rotation logic
// keys only on file names, so layout tests need no real checkpoints.
func touch(fs *pfs.System, names ...string) {
	for _, n := range names {
		fs.Create(n)
	}
}

// TestRotationLayouts drives Latest/NextPrefix/Generations/Prune/
// CleanIncomplete through gap and quarantine layouts: pruned holes,
// quarantined generations between live ones, torn generations mixed with
// quarantined files of the same number.
func TestRotationLayouts(t *testing.T) {
	cases := []struct {
		name    string
		files   []string
		keep    int
		latest  string // "" = none
		next    string
		gens    []string
		cleaned []string // CleanIncomplete result
		pruned  []string // generations Prune removes (with keep)
	}{
		{
			name:   "empty",
			files:  nil,
			keep:   1,
			latest: "",
			next:   "ck.g0",
		},
		{
			name:   "dense",
			files:  []string{"ck.g0.meta", "ck.g0.seg", "ck.g1.meta", "ck.g1.seg"},
			keep:   2,
			latest: "ck.g1",
			next:   "ck.g2",
			gens:   []string{"ck.g0", "ck.g1"},
		},
		{
			name:   "gap from pruning",
			files:  []string{"ck.g1.meta", "ck.g4.meta"},
			keep:   2,
			latest: "ck.g4",
			next:   "ck.g5",
			gens:   []string{"ck.g1", "ck.g4"},
			pruned: nil, // two committed generations, keep 2: nothing goes
		},
		{
			name: "quarantined newest",
			files: []string{"ck.g1.meta", "ck.g1.seg",
				"ck.g2.bad.meta", "ck.g2.bad.seg"},
			keep:   1,
			latest: "ck.g1",
			next:   "ck.g3", // never reuses the quarantined number
			gens:   []string{"ck.g1"},
		},
		{
			name: "quarantined between live generations",
			files: []string{"ck.g1.meta", "ck.g2.bad.meta", pieceFile("ck.g2.bad", "u", 0),
				"ck.g4.meta"},
			keep:   2,
			latest: "ck.g4",
			next:   "ck.g5",
			gens:   []string{"ck.g1", "ck.g4"},
			pruned: nil, // g1 is the fallback; the gap must not evict it
		},
		{
			name: "keep 1 prunes older across gaps",
			files: []string{"ck.g0.meta", "ck.g2.meta", "ck.g5.meta",
				"ck.g3.bad.meta"},
			keep:   1,
			latest: "ck.g5",
			next:   "ck.g6",
			gens:   []string{"ck.g0", "ck.g2", "ck.g5"},
			pruned: []string{"ck.g0", "ck.g2"},
		},
		{
			name:    "torn generation",
			files:   []string{"ck.g0.meta", "ck.g1.seg", pieceFile("ck.g1", "u", 1)},
			keep:    1,
			latest:  "ck.g0",
			next:    "ck.g2", // torn numbers are burned, not reused
			gens:    []string{"ck.g0"},
			cleaned: []string{"ck.g1"},
		},
		{
			name:    "torn files alongside quarantined same generation",
			files:   []string{"ck.g0.meta", "ck.g1.bad.meta", "ck.g1.seg"},
			keep:    1,
			latest:  "ck.g0",
			next:    "ck.g2",
			gens:    []string{"ck.g0"},
			cleaned: []string{"ck.g1"}, // removes ck.g1.seg, keeps ck.g1.bad.*
		},
		{
			// A long-lived rotation: the numbers are high, the files few.
			name: "torn generations at generation 500",
			files: []string{"ck.g499.bad.meta", "ck.g500.meta", "ck.g500.seg",
				"ck.g501.meta", "ck.g501.seg", "ck.g502.seg", pieceFile("ck.g502", "u", 0), "ck.g1000.meta.tmp"},
			keep:    2,
			latest:  "ck.g501",
			next:    "ck.g1001",
			gens:    []string{"ck.g500", "ck.g501"},
			cleaned: []string{"ck.g502", "ck.g1000"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := testFS()
			touch(fs, tc.files...)
			rot := Rotation{Base: "ck", Keep: tc.keep}

			_, latest, ok := rot.Latest(fs)
			if tc.latest == "" && ok {
				t.Fatalf("Latest = %q on a history with no committed generation", latest)
			}
			if tc.latest != "" && (!ok || latest != tc.latest) {
				t.Fatalf("Latest = %q ok=%v, want %q", latest, ok, tc.latest)
			}
			if next := rot.NextPrefix(fs); next != tc.next {
				t.Fatalf("NextPrefix = %q, want %q", next, tc.next)
			}
			if gens := rot.Generations(fs); fmt.Sprint(gens) != fmt.Sprint(tc.gens) {
				t.Fatalf("Generations = %v, want %v", gens, tc.gens)
			}

			scans := ckptRotationScans.Value()
			cleaned := rot.CleanIncomplete(fs)
			if fmt.Sprint(cleaned) != fmt.Sprint(tc.cleaned) {
				t.Fatalf("CleanIncomplete = %v, want %v", cleaned, tc.cleaned)
			}
			// One storage listing however high the generation numbers run:
			// the supervisor cleans on every relaunch, and a listing per
			// generation number made recovery cost grow with the job's age.
			if n := ckptRotationScans.Value() - scans; n != 1 {
				t.Fatalf("CleanIncomplete listed storage %d times, want once", n)
			}
			// Quarantined files always survive cleaning.
			for _, f := range tc.files {
				if strings.Contains(f, ".bad.") && !fs.Exists(f) {
					t.Fatalf("CleanIncomplete removed quarantined file %q", f)
				}
			}

			rot.Prune(fs)
			for _, p := range tc.pruned {
				if existsDirect(fs, p) {
					t.Fatalf("Prune left %q (keep=%d)", p, tc.keep)
				}
			}
			// Prune never removes the committed generations it must keep.
			want := len(tc.gens) - len(tc.pruned)
			if got := len(rot.Generations(fs)); got != want {
				t.Fatalf("after Prune: %d generations, want %d (%v)", got, want, rot.Generations(fs))
			}
		})
	}
}

func TestGenOf(t *testing.T) {
	cases := []struct {
		prefix string
		base   string
		gen    int
		ok     bool
	}{
		{"job.g0", "job", 0, true},
		{"job.g17", "job", 17, true},
		{"job", "job", 0, false},
		{"my.grid", "my.grid", 0, false},
		{"a.g2.g5", "a.g2", 5, true},
	}
	for _, tc := range cases {
		base, gen, ok := GenOf(tc.prefix)
		if base != tc.base || gen != tc.gen || ok != tc.ok {
			t.Errorf("GenOf(%q) = %q %d %v, want %q %d %v",
				tc.prefix, base, gen, ok, tc.base, tc.gen, tc.ok)
		}
	}
}

// writeGeneration commits one real checkpoint under the rotation's next
// prefix and returns that prefix.
func writeGeneration(t *testing.T, fs *pfs.System, base string, iter int) string {
	t.Helper()
	rot := Rotation{Base: base, Keep: 100}
	prefix := rot.NextPrefix(fs)
	mustRun(t, 2, func(c *msg.Comm) {
		sg, refs, u, ids := buildApp(c, []int{2, 1})
		it := iter
		sg.Register("iter", &it)
		u.Fill(coordVal)
		ids.Fill(func([]int) int32 { return int32(iter) })
		if _, err := WriteDRMS(fs, prefix, c, sg, refs, stream.Options{PieceBytes: 256}); err != nil {
			panic(err)
		}
	})
	return prefix
}

// TestResolveVerifiedQuarantinesCorruptNewest corrupts the newer of two
// committed generations and checks ResolveVerified falls back to the
// older one, quarantining the corrupt files under ".bad" (and that the
// verify failure is a typed *CorruptError with the damage attributed).
func TestResolveVerifiedQuarantinesCorruptNewest(t *testing.T) {
	forEachEra(t, func(t *testing.T, fs *pfs.System) {
		const g0, g1 = "job.g0", "job.g1"
		// Flip bytes inside g1's stored u stream.
		file := flipStored(t, fs, g1, "u", 64, 4)
		verr := Verify(fs, g1, 0)
		var ce *CorruptError
		if !errors.As(verr, &ce) {
			t.Fatalf("Verify error = %v, want *CorruptError", verr)
		}
		if ce.Prefix != g1 || ce.Gen != 1 || ce.File != file {
			t.Fatalf("CorruptError = %+v, damaged %s", ce, file)
		}
		if ce.Piece < 0 {
			t.Fatalf("CorruptError did not attribute a piece: %+v", ce)
		}

		chosen, quarantined, ok, firstErr := ResolveVerified(fs, "job")
		if !ok || chosen != g0 {
			t.Fatalf("ResolveVerified chose %q ok=%v, want %q", chosen, ok, g0)
		}
		if len(quarantined) != 1 || quarantined[0] != g1 {
			t.Fatalf("quarantined %v, want [%s]", quarantined, g1)
		}
		if !errors.As(firstErr, &ce) {
			t.Fatalf("firstErr = %v, want *CorruptError", firstErr)
		}
		if Exists(fs, g1) {
			t.Fatal("corrupt generation still resolvable after quarantine")
		}
		if len(fs.List(g1+".bad.")) == 0 {
			t.Fatal("quarantine left no .bad files")
		}
		// The rotation skips the hole; the next checkpoint number is fresh.
		if next := (Rotation{Base: "job"}).NextPrefix(fs); next != "job.g2" {
			t.Fatalf("NextPrefix after quarantine = %q, want job.g2", next)
		}
		// The surviving generation still restores.
		checkChainRestore(t, fs, chosen, 0, 3, []int{3, 1}, 256)
	})
}

// TestResolveVerifiedExhaustsToFailure corrupts every generation and
// checks the resolution reports the first root cause instead of
// succeeding or hanging.
func TestResolveVerifiedExhaustsToFailure(t *testing.T) {
	fs := testFS()
	g0 := writeGeneration(t, fs, "job", 1)
	g1 := writeGeneration(t, fs, "job", 2)
	for _, g := range []string{g0, g1} {
		if err := fs.WriteAt(0, g+".seg", []byte{1, 2, 3}, 9); err != nil {
			t.Fatal(err)
		}
	}
	_, quarantined, ok, firstErr := ResolveVerified(fs, "job")
	if ok {
		t.Fatal("ResolveVerified succeeded on all-corrupt history")
	}
	if len(quarantined) != 2 {
		t.Fatalf("quarantined %v, want both generations", quarantined)
	}
	var ce *CorruptError
	if !errors.As(firstErr, &ce) {
		t.Fatalf("firstErr = %v, want *CorruptError", firstErr)
	}
}

// TestRestoreVerifyDetectsTornBytes corrupts a committed checkpoint and
// checks the Verify restore path returns a typed piece-attributed
// CorruptError on every task instead of silently loading torn bytes.
func TestRestoreVerifyDetectsTornBytes(t *testing.T) {
	forEachEra(t, func(t *testing.T, fs *pfs.System) {
		flipStored(t, fs, "job.g0", "u", 300, 3)
		mustRun(t, 4, func(c *msg.Comm) {
			sg, refs, _, _ := buildApp(c, []int{2, 2})
			var it int
			sg.Register("iter", &it)
			_, _, err := ReadDRMSOpts(fs, "job.g0", c, sg, refs, stream.Options{PieceBytes: 300}, RestoreOptions{Verify: true})
			var ce *CorruptError
			if !errors.As(err, &ce) {
				panic(fmt.Sprintf("rank %d: restore error = %v, want *CorruptError", c.Rank(), err))
			}
			if ce.Piece < 0 {
				panic(fmt.Sprintf("rank %d: corrupt piece not attributed: %+v", c.Rank(), ce))
			}
		})
	})
}

// TestRotationContinuesAcrossMetadataVersions takes a rotation begun by
// the v1 encoder (the stored g0, g1) forward under this tree's writer:
// numbering and pruning treat the legacy generations as history, verified
// resolution stops at one with ErrLegacyFormat instead of quarantining
// it, and once upgraded it is an ordinary fallback.
func TestRotationContinuesAcrossMetadataVersions(t *testing.T) {
	fs := testFS()
	loadV1Rotation(t, fs)
	rot := Rotation{Base: "job", Keep: 2}
	next := func(step int) string {
		_, prev, _ := rot.Latest(fs)
		g := rot.NextPrefix(fs)
		// What the run-time system's default configuration asks for.
		writeChainGen(t, fs, g, ChainOptions{Prev: prev, Codec: CodecRaw, NoDeltaBase: true}, step, 4, []int{2, 2})
		rot.Prune(fs)
		return g
	}

	if g2 := next(2); g2 != "job.g2" {
		t.Fatalf("generation after the stored v1 g1 = %q", g2)
	}
	if gens := rot.Generations(fs); len(gens) != 2 || gens[0] != "job.g1" || gens[1] != "job.g2" {
		t.Fatalf("after prune: generations %v, want the v1 g1 and the v2 g2", gens)
	}
	if n := StateBytes(fs, "job.g0"); n != 0 {
		t.Fatalf("pruned v1 generation left %d bytes", n)
	}
	if chosen, quarantined, ok, err := ResolveVerified(fs, "job"); !ok || chosen != "job.g2" || len(quarantined) != 0 {
		t.Fatalf("resolve = %q ok %v quarantined %v err %v", chosen, ok, quarantined, err)
	}
	checkChainRestore(t, fs, "job", 2, 3, []int{3, 1}, 128)

	// The chained newest is damaged: the fallback is a legacy generation,
	// which the walk reports instead of quarantining.
	flipStored(t, fs, "job.g2", "u", 500, 2)
	_, quarantined, ok, err := ResolveVerified(fs, "job")
	if ok || !errors.Is(err, ErrLegacyFormat) || len(quarantined) != 1 || quarantined[0] != "job.g2" {
		t.Fatalf("resolve past a corrupt v2 onto a legacy g1: ok %v quarantined %v err %v", ok, quarantined, err)
	}
	if !Exists(fs, "job.g1") {
		t.Fatal("legacy generation quarantined")
	}
	if up, err := Upgrade(fs, "job.g1", 0); !up || err != nil {
		t.Fatalf("upgrade job.g1: %v %v", up, err)
	}
	if chosen, _, ok, err := ResolveVerified(fs, "job"); !ok || chosen != "job.g1" {
		t.Fatalf("resolve after upgrade = %q ok %v err %v", chosen, ok, err)
	}
	checkChainRestore(t, fs, "job", 1, 3, []int{1, 3}, 300)

	// And the history goes on above the quarantined number.
	if g3 := next(3); g3 != "job.g3" {
		t.Fatalf("generation after the quarantined g2 = %q", g3)
	}
	for _, g := range rot.Generations(fs) {
		if m, err := ReadMeta(fs, g, 0); err != nil || m.Version != metaVersion {
			t.Fatalf("%s: version %d, %v", g, m.Version, err)
		}
		if err := Verify(fs, g, 0); err != nil {
			t.Fatalf("%s: %v", g, err)
		}
	}
	checkChainRestore(t, fs, "job", 3, 2, []int{2, 1}, 200)
}
