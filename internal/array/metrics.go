package array

import "drms/internal/obs"

func init() {
	// The plan counters are process-wide atomics; export them as reads
	// so the scrape sees the live values. A high hit rate is the
	// steady-state signature of periodic checkpointing: every round
	// replays a communication schedule its epoch already built.
	obs.CounterFunc("drms_array_plan_cache_hits_total",
		"Array communication-plan cache hits (assignment + gather).",
		func() float64 { h, _ := PlanCacheStats(); return float64(h) })
	obs.CounterFunc("drms_array_plan_cache_misses_total",
		"Array communication-plan cache misses (schedules computed fresh).",
		func() float64 { _, m := PlanCacheStats(); return float64(m) })
}
