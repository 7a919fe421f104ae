package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7} // sorted: 1 3 5 7 9
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {25, 3}, {90, 8.2}, {0.001, 1.00008}} {
		if got := percentile(xs, tc.p); !near(got, tc.want) {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample reads %v, want 0", got)
	}
	if got := median([]float64{2, 4}); !near(got, 3) {
		t.Errorf("median of two = %v", got)
	}
}

// A block workload reads a timing from its better blocks, so blocks the
// host disturbed do not move it; without blocks it is the plain percentile.
func TestQuietPercentile(t *testing.T) {
	var all []time.Duration
	for _, blockMs := range []int{10, 10, 30, 10, 30} { // five blocks of two cycles, one sample a cycle
		all = append(all, time.Duration(blockMs)*time.Millisecond, time.Duration(blockMs+2)*time.Millisecond)
	}
	blocked := &runResult{workload: &workload{block: 2}}
	if got := blocked.quietPercentile(all, 1, 50); !near(got, 11) {
		t.Errorf("blocked p50 = %v, want 11 (the quiet blocks' median)", got)
	}
	// A trailing partial block is left out.
	if got := blocked.quietPercentile(all[:3], 1, 50); !near(got, 11) {
		t.Errorf("one block and a half reads %v, want 11", got)
	}
	plain := &runResult{workload: &workload{}}
	if got := plain.quietPercentile(all, 1, 50); !near(got, 12) {
		t.Errorf("plain p50 = %v, want 12", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 1}, 0, 6}, // two points extrapolate, as Python does
		{[]float64{2.5, 2.5, 2.5}, 2.5, 2.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want 1 (5.5 / 5.5)", got)
	}
}

func TestJudge(t *testing.T) {
	tight := func(m float64) []float64 { return []float64{m * 0.995, m, m * 1.005, m * 1.002, m * 0.998} }
	wide := func(m float64) []float64 { return []float64{m * 0.7, m, m * 1.3, m * 1.2, m * 0.8} }
	for _, tc := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   verdict
	}{
		{"same", tight(100), tight(101), false, unchanged},
		{"slower time", tight(100), tight(115), false, regressed},
		{"faster time", tight(100), tight(80), false, improved},
		{"lower throughput", tight(100), tight(85), true, regressed},
		{"higher throughput", tight(100), tight(120), true, improved},
		{"noisy and close", wide(100), wide(104), false, unresolved},
		{"noisy but every run better", wide(100), wide(40), false, improved},
		{"noisy and clearly worse", wide(100), wide(130), false, regressed},
		{"single runs", []float64{100}, []float64{105}, false, unchanged},
	} {
		if got := judge(tc.a, tc.b, tc.higher, 0.10); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func writeSummary(t *testing.T, dir, name string, ckpt []float64, failed int, hits float64) string {
	t.Helper()
	s := newSummary(1, 1)
	ws := s.workload(workloads[0])
	ws.Failed = failed
	for _, v := range ckpt {
		ws.note("ckpt_p50_ms", "ms", v, 10)
		ws.note("array.plan_hits_per_cycle", "count", hits, 0)
	}
	path := filepath.Join(dir, name)
	if err := s.write(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	c := `{"end_to_end":[{"name":"ckpt_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`
	if err := os.WriteFile(spec, []byte(c), 0o644); err != nil {
		t.Fatal(err)
	}
	a := writeSummary(t, dir, "a.json", []float64{100, 101, 99}, 0, 300)
	same := writeSummary(t, dir, "same.json", []float64{102, 100, 101}, 0, 300)
	slow := writeSummary(t, dir, "slow.json", []float64{120, 121, 119}, 0, 310)
	failing := writeSummary(t, dir, "failing.json", []float64{100, 101, 99}, 2, 300)

	var out bytes.Buffer
	if bad, err := compareFiles(&out, spec, a, same); err != nil || bad {
		t.Fatalf("equal runs: regressed=%v err=%v\n%s", bad, err, out.String())
	}
	if !strings.Contains(out.String(), "unchanged") {
		t.Errorf("no unchanged row:\n%s", out.String())
	}
	out.Reset()
	if bad, err := compareFiles(&out, spec, a, slow); err != nil || !bad {
		t.Fatalf("20%% slower: regressed=%v err=%v", bad, err)
	}
	for _, want := range []string{"regressed", "count differs: 300 -> 310"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if bad, err := compareFiles(&out, spec, a, failing); err != nil || !bad {
		t.Fatalf("more failed operations: regressed=%v err=%v", bad, err)
	}
}

// BENCHMARK.json is the contract; the tables in metrics.go and spec.go
// are what the program prints. They must say the same.
func TestContractMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var c struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the contract, %d in the table", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: contract has %q, table has %q", i, c.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in the contract, %d in the table", len(got), kind, len(want))
		}
		for i, def := range want {
			better := "lower"
			if def.higher {
				better = "higher"
			}
			if got[i] != (metric{def.name, def.unit, better}) {
				t.Errorf("%s metric %d: contract %+v, table %s %s %s", kind, i, got[i], def.name, def.unit, better)
			}
		}
	}
	check("end-to-end", c.EndToEnd, endToEndMetrics)
	check("per-layer", c.PerLayer, perLayerMetrics)
}
