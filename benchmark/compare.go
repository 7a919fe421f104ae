package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// contract is what -compare needs of BENCHMARK.json: each end-to-end
// metric's direction and bound.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict classifies one (workload, metric) pair of a comparison.
type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved" // run-to-run spread wider than the bound
)

// judge applies a metric's bound: b's median may be worse than a's by at
// most bound (a share of a's median). Where either side's spread is wider
// than the bound the pair is unresolved, unless every run of b reads
// better than every run of a.
func judge(a, b []float64, higher bool, bound float64) verdict {
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	if higher {
		worse = -worse
	}
	if ma == 0 {
		worse = 0
		if mb != 0 {
			worse = 1
		}
	}
	if worse > bound {
		return regressed
	}
	if spread(a) > bound || spread(b) > bound {
		if allBetter(a, b, higher) {
			return improved
		}
		return unresolved
	}
	if worse < -bound {
		return improved
	}
	return unchanged
}

// allBetter reports whether every value of b is better than every value
// of a.
func allBetter(a, b []float64, higher bool) bool {
	for _, x := range a {
		for _, y := range b {
			if higher && y <= x || !higher && y >= x {
				return false
			}
		}
	}
	return true
}

func readSummary(path string) (*summary, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s summary
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// summaries, then the exact counts that differ, and reports whether
// anything regressed: a bound exceeded, or more failed operations.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (bool, error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readSummary(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSummary(pathB)
	if err != nil {
		return false, err
	}
	bad := false
	fmt.Fprintf(w, "%-14s %-18s %12s %12s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "change", "bound", "verdict")
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa == nil || wb == nil {
			continue
		}
		for _, m := range c.EndToEnd {
			ma, mb := wa.Metrics[m.Name], wb.Metrics[m.Name]
			if ma == nil || mb == nil {
				continue
			}
			v := judge(ma.Values, mb.Values, m.Better == "higher", m.Bound)
			bad = bad || v == regressed
			fmt.Fprintf(w, "%-14s %-18s %12.5g %12.5g %+7.1f%% %5.0f%%  %s\n", wl.name, m.Name,
				ma.Median, mb.Median, 100*(mb.Median-ma.Median)/ma.Median, 100*m.Bound, v)
		}
		if wb.Failed > wa.Failed {
			bad = true
			fmt.Fprintf(w, "%-14s failed operations rose from %d to %d: regressed\n", wl.name, wa.Failed, wb.Failed)
		}
		for _, def := range perLayerMetrics {
			ma, mb := wa.Metrics[def.name], wb.Metrics[def.name]
			if !def.exact || ma == nil || mb == nil || ma.Median == mb.Median {
				continue
			}
			fmt.Fprintf(w, "%-14s %-34s count differs: %g -> %g %s\n", wl.name, def.name, ma.Median, mb.Median, def.unit)
		}
	}
	return bad, nil
}
