package main

import (
	"bytes"
	"strings"
	"testing"

	"drms/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// The quartiles must be the ones the accepting check takes: Python's
// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
func TestMedianAndIQR(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if m := median(xs); m != 5.5 {
		t.Errorf("median %v, want 5.5", m)
	}
	if m := median(xs[:3]); m != 9 {
		t.Errorf("median of three %v, want 9", m)
	}
	if d := iqr(xs); d != 5.5 {
		t.Errorf("inter-quartile distance %v, want 5.5", d)
	}
}

// TestReportCountsPairsByDirection: a higher-is-better metric is won by
// the larger value, ties count for neither side, and a median worse than
// the bound, or a spread wider than it, is flagged.
func TestReportCountsPairsByDirection(t *testing.T) {
	metrics := []metric{
		{Name: "lat", Unit: "ms", Better: "lower", Bound: 0.25},
		{Name: "rate", Unit: "MB/s", Better: "higher", Bound: 0.25},
	}
	a := &side{samples: map[string][]float64{"lat": {10, 10, 10, 10}, "rate": {100, 100, 100, 100}}}
	b := &side{samples: map[string][]float64{"lat": {8, 10, 7, 9}, "rate": {60, 61, 100, 140}}}
	var out bytes.Buffer
	report(&out, "w", metrics, a, b)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	lat, rate := lines[len(lines)-2], lines[len(lines)-1]
	if !strings.Contains(lat, "3/4") || strings.Contains(lat, "BEYOND") {
		t.Errorf("lower-is-better row: %q, want 3/4 pairs won and no flag", lat)
	}
	if !strings.Contains(rate, "1/4") || !strings.Contains(rate, "SPREAD BEYOND BOUND") {
		t.Errorf("higher-is-better row: %q, want 1/4 pairs won and the spread flagged", rate)
	}
}
