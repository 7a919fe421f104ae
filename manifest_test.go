package drms_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"drms/internal/apps"
	"drms/internal/ckpt"
	"drms/internal/dist"
	"drms/internal/drms"
	"drms/internal/pfs"
	"drms/internal/rangeset"
	"drms/internal/stream"
)

var updateManifest = flag.Bool("update-manifest", false, "rewrite testdata/stored.manifest from this tree's stored files")

const manifestPath = "testdata/stored.manifest"

// TestStoredBytesManifest pins every byte the system stores for a fixed
// set of runs: BT, LU and SP at class S on 4 tasks with a mid-run
// checkpoint and a restart on 3 (drmsrun's flow), a flate delta chain and
// a write-through tier generation. Each stored file, and the tier's
// snapshot, is one line of testdata/stored.manifest: name, size and
// SHA-256. A format change shows as the exact files it moves; rewrite the
// manifest deliberately with
//
//	go test -run StoredBytesManifest -update-manifest .
func TestStoredBytesManifest(t *testing.T) {
	var got []string
	add := func(scope, name string, b []byte) {
		got = append(got, fmt.Sprintf("%s/%s %d %x", scope, name, len(b), sha256.Sum256(b)))
	}
	addFS := func(scope string, fs *pfs.System) {
		for _, name := range fs.List("") {
			sz, err := fs.Size(name)
			if err != nil {
				t.Fatal(err)
			}
			b := make([]byte, sz)
			if err := fs.ReadAt(0, name, b, 0); err != nil {
				t.Fatal(err)
			}
			add(scope, name, b)
		}
	}

	for _, k := range apps.Kernels() {
		fs := pfs.NewSystem(pfs.DefaultConfig())
		rc := apps.RunConfig{Class: apps.ClassS, Iters: 10, CkEvery: 5, Prefix: "ck", OnDone: make(chan float64, 1)}
		if err := drms.Run(drms.Config{Tasks: 4, FS: fs}, k.App(rc)); err != nil {
			t.Fatal(err)
		}
		rc.Prefix, rc.OnDone = "ck2", make(chan float64, 1)
		if err := drms.Run(drms.Config{Tasks: 3, FS: fs, RestartFrom: "ck"}, k.App(rc)); err != nil {
			t.Fatal(err)
		}
		addFS(strings.ToLower(k.Name), fs)
	}

	fs := pfs.NewSystem(pfs.DefaultConfig())
	cfg := drms.Config{Tasks: 4, FS: fs, Keep: 4, AnchorEvery: 4, Codec: ckpt.CodecFlate,
		Stream: stream.Options{PieceBytes: 1024}}
	if err := drms.Run(cfg, windowApp(4096, 6)); err != nil {
		t.Fatal(err)
	}
	addFS("chain", fs)

	fs, tier := pfs.NewSystem(pfs.DefaultConfig()), ckpt.NewMemTier()
	cfg = drms.Config{Tasks: 4, FS: fs, Tier: tier, Replicas: 1, Codec: ckpt.CodecRaw,
		Stream: stream.Options{PieceBytes: 1024}}
	if err := drms.Run(cfg, windowApp(4096, 0)); err != nil {
		t.Fatal(err)
	}
	addFS("tier", fs)
	snap := filepath.Join(t.TempDir(), "tier")
	if err := tier.SaveFile(snap); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	add("tier", "snapshot", b)
	slices.Sort(got)

	if *updateManifest {
		if err := os.WriteFile(manifestPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stored, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for sc := bufio.NewScanner(bytes.NewReader(stored)); sc.Scan(); {
		name, rest, _ := strings.Cut(sc.Text(), " ")
		want[name] = rest
	}
	for _, line := range got {
		name, rest, _ := strings.Cut(line, " ")
		if w, ok := want[name]; !ok {
			t.Errorf("%s: stored (%s), not in the manifest", name, rest)
		} else if w != rest {
			t.Errorf("%s: stored %s, the manifest says %s", name, rest, w)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("%s: in the manifest, not stored", name)
	}
}

// windowApp is a sparse-update application: a 1-D iterate u of n
// elements, of which each step rewrites one 64-element window, beside a
// table that never changes after the prologue. It checkpoints at every
// step, steps 0 to iters.
func windowApp(n, iters int) func(*drms.Task) error {
	return func(t *drms.Task) error {
		g := rangeset.Box([]int{0}, []int{n - 1})
		d, err := dist.Block(g, []int{t.Tasks()})
		if err != nil {
			return err
		}
		u, err := drms.NewArray[float64](t, "u", d)
		if err != nil {
			return err
		}
		tab, err := drms.NewArray[int32](t, "tab", d)
		if err != nil {
			return err
		}
		iter := 0
		t.Register("iter", &iter)
		u.Fill(func(c []int) float64 { return float64(c[0]) * 0.25 })
		tab.Fill(func(c []int) int32 { return int32(7 * c[0]) })
		for ; ; iter++ {
			if _, _, err := t.ReconfigCheckpoint("job"); err != nil || iter == iters {
				return err
			}
			u.Assigned().Each(rangeset.ColMajor, func(c []int) {
				if c[0]/64 == iter*5%(n/64) {
					u.Set(c, u.At(c)+1)
				}
			})
		}
	}
}
