package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// summary is the benchmark's JSON output (-out) and -compare's input:
// per workload and metric, the value of every run made, with their median
// and quartiles.
type summary struct {
	Seed       uint64                      `json:"seed"`
	Seconds    float64                     `json:"seconds"`
	GOMAXPROCS int                         `json:"gomaxprocs"`
	NProc      int                         `json:"nproc"`
	Go         string                      `json:"go"`
	Workloads  map[string]*workloadSummary `json:"workloads"`
}

type workloadSummary struct {
	LogicalStateBytes int64 `json:"logical_state_bytes"`
	// Cycles is the timed cycle count of every end-to-end run.
	Cycles  []int                     `json:"cycles"`
	Failed  int                       `json:"failed"`
	Metrics map[string]*metricSummary `json:"metrics"`
}

type metricSummary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"` // one per run
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// Samples is how many timed operations stand behind one run's value,
	// for the metrics that are statistics of a sample.
	Samples int `json:"samples,omitempty"`
}

func newSummary(seed uint64, seconds float64) *summary {
	return &summary{Seed: seed, Seconds: seconds, GOMAXPROCS: min(runtime.NumCPU(), 4),
		NProc: runtime.NumCPU(), Go: runtime.Version(), Workloads: map[string]*workloadSummary{}}
}

func (s *summary) workload(w *workload) *workloadSummary {
	ws := s.Workloads[w.name]
	if ws == nil {
		ws = &workloadSummary{LogicalStateBytes: w.logicalBytes(), Metrics: map[string]*metricSummary{}}
		s.Workloads[w.name] = ws
	}
	return ws
}

func (ws *workloadSummary) note(name, unit string, v float64, samples int) {
	m := ws.Metrics[name]
	if m == nil {
		m = &metricSummary{Unit: unit}
		ws.Metrics[name] = m
	}
	m.Values = append(m.Values, v)
	m.Samples = samples
	m.Median = median(m.Values)
	m.Q1, m.Q3 = m.Median, m.Median
	if len(m.Values) > 1 {
		m.Q1, m.Q3 = quartiles(m.Values)
	}
}

// add folds one in-process run into the summary.
func (s *summary) add(r *runResult) {
	ws := s.workload(r.workload)
	if !r.opt.traced {
		ws.Cycles = append(ws.Cycles, r.samples.cycles)
	}
	for _, m := range metricTable(r.opt.traced) {
		ws.note(m.name, m.unit, r.metrics[m.name], r.counts[m.name])
	}
}

func (s *summary) write(path string) error {
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// print lists every metric by name with its unit, one workload after the
// other, end-to-end metrics first.
func (s *summary) print(w io.Writer) {
	fmt.Fprintf(w, "seed %d  seconds %g  GOMAXPROCS %d  nproc %d  %s\n",
		s.Seed, s.Seconds, s.GOMAXPROCS, s.NProc, s.Go)
	for _, wl := range workloads {
		ws := s.Workloads[wl.name]
		if ws == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s  (%d state bytes, timed cycles %v)\n", wl.name, ws.LogicalStateBytes, ws.Cycles)
		for _, table := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
			for _, def := range table {
				m := ws.Metrics[def.name]
				if m == nil {
					continue
				}
				line := fmt.Sprintf("  %-34s %14.6g %-6s", def.name, m.Median, m.Unit)
				if len(m.Values) > 1 {
					line += fmt.Sprintf("  q1 %.6g  q3 %.6g  spread %.1f%%  runs %d",
						m.Q1, m.Q3, 100*spread(m.Values), len(m.Values))
				}
				if m.Samples > 0 {
					line += fmt.Sprintf("  n=%d", m.Samples)
				}
				fmt.Fprintln(w, strings.TrimRight(line, " "))
			}
		}
	}
}

// repeat runs every (workload, mode) pair n times, each in a fresh
// process of this same binary on its own seed, and folds the contract
// lines into the summary.
func repeat(sum *summary, todo []*workload, modes []bool, seed uint64, seconds float64, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range todo {
		ws := sum.workload(w)
		for _, traced := range modes {
			mode := "0"
			if traced {
				mode = "1"
			}
			for i := 0; i < n; i++ {
				cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(seed+uint64(i), 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", mode)
				cmd.Stderr = os.Stderr
				outBytes, err := cmd.Output()
				line, perr := lastContractLine(outBytes)
				if perr != nil {
					return fmt.Errorf("%s run %d: %v (%v)", w.name, i+1, perr, err)
				}
				ws.Failed += line.Failed
				if err != nil || !line.Correct {
					return fmt.Errorf("%s run %d failed: %v", w.name, i+1, err)
				}
				for _, def := range metricTable(traced) {
					ws.note(def.name, def.unit, line.Metrics[def.name].Value, 0)
				}
				fmt.Fprintf(os.Stderr, "%s trace=%s run %d/%d done\n", w.name, mode, i+1, n)
			}
		}
	}
	return nil
}

func lastContractLine(out []byte) (contractLine, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var c contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c); err != nil {
		return c, fmt.Errorf("no result line: %w", err)
	}
	return c, nil
}
