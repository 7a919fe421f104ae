// Command benchpairs measures two revisions of this repository against
// each other the way a performance claim has to be read on a host whose
// speed drifts: it builds ./benchmark of both, runs alternating pairs of
// fresh processes per workload (which side goes first alternates, both
// sides of a pair on the same seed), and prints, per workload and
// end-to-end metric of BENCHMARK.json, both medians, both inter-quartile
// distances, the change's inter-quartile distance as a share of the
// parent's median next to the metric's bound, and the pairs the change
// won. It reads only each run's last output line (the benchmark's
// contract) and exits non-zero if any run failed or was incorrect.
//
//	make benchmark-pairs A=HEAD~1 B=. W=dense-restart N=10 S=10
//	go run ./cmd/benchpairs -a v1 -b v2
//
// A side is a git revision, exported with `git archive` into
// .bench_build/pairs/ (nothing is registered in .git), or "." for the
// working tree as it stands. Seeds start at -seed (default 1001, away
// from the small seeds used while developing) and advance by one per pair.
package main

import (
	"archive/tar"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// spec is what benchpairs needs of BENCHMARK.json.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// contract is the benchmark's last output line.
type contract struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// side is one of the two revisions under comparison.
type side struct {
	label, ref, bin string
	failed          int // failed operations, summed over the workload's runs
	incorrect       int // runs whose contract line was not correct
	samples         map[string][]float64
}

func main() {
	var (
		a        = flag.String("a", "", "parent side: a git `revision`, or . for the working tree")
		b        = flag.String("b", ".", "change side: a git `revision`, or . for the working tree")
		workload = flag.String("workload", "all", "workload `name`, or all")
		pairs    = flag.Int("pairs", 10, "alternating pairs per workload")
		seconds  = flag.Float64("seconds", 10, "-seconds of every run")
		seed     = flag.Uint64("seed", 1001, "seed of the first pair; pair i runs on seed+i")
	)
	flag.Parse()
	if *a == "" || *pairs < 1 {
		fatal(fmt.Errorf("usage: benchpairs -a <git ref> [-b <git ref or .>] [-workload all] [-pairs 10] [-seconds 10]"))
	}
	var sp spec
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &sp)
	}
	if err != nil {
		fatal(fmt.Errorf("BENCHMARK.json: %w", err))
	}
	var names []string
	for _, w := range sp.Workloads {
		if *workload == "all" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}

	sides := [2]*side{{label: "A", ref: *a}, {label: "B", ref: *b}}
	for _, s := range sides {
		if s.bin, err = build(s); err != nil {
			fatal(fmt.Errorf("side %s (%s): %w", s.label, s.ref, err))
		}
	}
	fmt.Printf("A = %s, B = %s; %d pairs of %gs runs per workload, seeds %d..%d\n",
		*a, *b, *pairs, *seconds, *seed, *seed+uint64(*pairs)-1)

	bad := false
	for _, w := range names {
		for _, s := range sides {
			s.failed, s.incorrect, s.samples = 0, 0, map[string][]float64{}
		}
		for i := 0; i < *pairs; i++ {
			for k := 0; k < 2; k++ {
				s := sides[(i+k)%2] // A first in even pairs, B first in odd ones
				c, err := run(s.bin, w, *seed+uint64(i), *seconds)
				if err != nil {
					fatal(fmt.Errorf("side %s, %s, pair %d: %w", s.label, w, i, err))
				}
				s.failed += c.Failed
				if !c.Correct {
					s.incorrect++
				}
				for _, m := range sp.EndToEnd {
					s.samples[m.Name] = append(s.samples[m.Name], c.Metrics[m.Name].Value)
				}
			}
			fmt.Fprintf(os.Stderr, "%s: pair %d/%d done\n", w, i+1, *pairs)
		}
		report(os.Stdout, w, sp.EndToEnd, sides[0], sides[1])
		bad = bad || sides[0].failed+sides[1].failed+sides[0].incorrect+sides[1].incorrect > 0
	}
	if bad {
		fmt.Println("benchpairs: some run failed an operation or was incorrect")
		os.Exit(1)
	}
}

// build puts the side's source under .bench_build/pairs/ (unless it is the
// working tree) and builds its ./benchmark there, returning the binary's
// path.
func build(s *side) (string, error) {
	out, err := filepath.Abs(filepath.Join(".bench_build", "pairs", s.label))
	if err != nil {
		return "", err
	}
	if err := os.RemoveAll(out); err != nil {
		return "", err
	}
	src := "."
	if s.ref != "." {
		src = filepath.Join(out, "src")
		var archive, stderr bytes.Buffer
		git := exec.Command("git", "archive", "--format=tar", s.ref)
		git.Stdout, git.Stderr = &archive, &stderr
		if err := git.Run(); err != nil {
			return "", fmt.Errorf("git archive: %w: %s", err, strings.TrimSpace(stderr.String()))
		}
		if err := untar(&archive, src); err != nil {
			return "", err
		}
	} else if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(out, "drms-benchmark")
	gobuild := exec.Command("go", "build", "-o", bin, "./benchmark")
	gobuild.Dir = src
	gobuild.Env = append(os.Environ(), "GOTOOLCHAIN=local")
	if msg, err := gobuild.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./benchmark: %w\n%s", err, msg)
	}
	return bin, nil
}

// untar extracts the directories and regular files of a git archive.
func untar(r io.Reader, dst string) error {
	tr := tar.NewReader(r)
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		path := filepath.Join(dst, filepath.FromSlash(h.Name))
		switch h.Typeflag {
		case tar.TypeDir:
			if err := os.MkdirAll(path, 0o755); err != nil {
				return err
			}
		case tar.TypeReg:
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				return err
			}
			data, err := io.ReadAll(tr)
			if err != nil {
				return err
			}
			if err := os.WriteFile(path, data, h.FileInfo().Mode().Perm()); err != nil {
				return err
			}
		}
	}
}

// run executes one untraced benchmark run in a fresh process and parses
// its contract line. The benchmark exits non-zero after printing that
// line when an operation failed; that is a result, not an error.
func run(bin, workload string, seed uint64, seconds float64) (contract, error) {
	cmd := exec.Command(bin, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var c contract
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c); err != nil {
		if runErr != nil {
			return c, runErr
		}
		return c, fmt.Errorf("no contract line: %w", err)
	}
	return c, nil
}

func report(w io.Writer, workload string, metrics []metric, a, b *side) {
	fmt.Fprintf(w, "\n%s   failed A %d, B %d; incorrect runs A %d, B %d\n", workload, a.failed, b.failed, a.incorrect, b.incorrect)
	fmt.Fprintf(w, "  %-16s %-6s %11s %11s %8s %10s %10s  %-18s %s\n",
		"metric", "unit", "A median", "B median", "B vs A", "A IQR", "B IQR", "B IQR/A med (bound)", "B won")
	for _, m := range metrics {
		xa, xb := a.samples[m.Name], b.samples[m.Name]
		ma, mb := median(xa), median(xb)
		sign := 1.0 // of a change for the worse
		if m.Better == "higher" {
			sign = -1
		}
		won := 0
		for i := range xa {
			if sign*(xb[i]-xa[i]) < 0 {
				won++
			}
		}
		share, change := 0.0, 0.0
		if ma != 0 {
			share, change = iqr(xb)/math.Abs(ma), (mb-ma)/math.Abs(ma)
		}
		note := ""
		if sign*change > m.Bound {
			note += "  WORSE BEYOND BOUND"
		}
		if share > m.Bound {
			note += "  SPREAD BEYOND BOUND"
		}
		fmt.Fprintf(w, "  %-16s %-6s %11.5g %11.5g %+7.1f%% %10.4g %10.4g  %6.3f (%.2f)      %3d/%d%s\n",
			m.Name, m.Unit, ma, mb, 100*change, iqr(xa), iqr(xb), share, m.Bound, won, len(xa), note)
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// iqr is the distance between the quartiles, taken the way Python's
// statistics.quantiles(xs, n=4) takes them (and benchmark/stats.go does):
// that is how the accepting check measures run-to-run spread.
func iqr(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := max(1, min(int(math.Floor(pos)), n-1))
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(3) - at(1)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchpairs:", err)
	os.Exit(2)
}
