package bench

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// The modeled output is pinned as text: a change to a stored byte count
// or to the trace a checkpoint replays moves a number in a table, and the
// golden diff shows which. Rewrite the goldens deliberately with:
//
//	go test ./internal/bench -run ModeledOutputGolden -update-modeled
var updateModeled = flag.Bool("update-modeled", false, "rewrite testdata/*.golden from drmsbench's output")

// TestModeledOutputGolden runs drmsbench as a user does and compares its
// output with the goldens: the class S tables with the ablations, and the
// class A figure 7 with every table.
func TestModeledOutputGolden(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "drmsbench")
	if out, err := exec.Command("go", "build", "-o", bin, "drms/cmd/drmsbench").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for golden, args := range map[string][]string{
		"class_s_all_ablation.golden": {"-class", "S", "-table", "all", "-ablation"},
		"figure7.golden":              {"-figure", "7"},
	} {
		t.Run(golden, func(t *testing.T) {
			t.Parallel()
			got, err := exec.Command(bin, args...).Output()
			if err != nil {
				t.Fatalf("drmsbench %v: %v", args, err)
			}
			path := filepath.Join("testdata", golden)
			if *updateModeled {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("drmsbench %v differs from %s (rewrite with -update-modeled once the change is meant):\n%s",
					args, path, lineDiff(want, got))
			}
		})
	}
}

// lineDiff lists the lines where want and got differ.
func lineDiff(want, got []byte) string {
	w, g := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	var out bytes.Buffer
	for i := range max(len(w), len(g)) {
		var a, b []byte
		if i < len(w) {
			a = w[i]
		}
		if i < len(g) {
			b = g[i]
		}
		if !bytes.Equal(a, b) {
			out.WriteString("- " + string(a) + "\n+ " + string(b) + "\n")
		}
	}
	return out.String()
}
