// Command benchmark is the repository's wall-clock benchmark: one command
// that checkpoints, restores, resizes and recovers real state through the
// drms and coord layers, checks every restored state against a checksum
// oracle, and reports end-to-end metrics (tracing off) and per-layer
// metrics (a separate traced run). BENCHMARK.json at the repository root
// is its contract; README.md in this directory explains every workload,
// metric and size.
//
//	go run ./benchmark -workload all
//	go run ./benchmark -workload hot-resize -seed 7 -seconds 10 -trace 1 -trace-out /tmp/t.json
//	go run ./benchmark -workload all -runs 5 -out A.json
//	go run ./benchmark -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name     = flag.String("workload", "all", "workload `name`, or all")
		seed     = flag.Uint64("seed", 1, "seed of fill values, dirty windows and victim ranks")
		seconds  = flag.Float64("seconds", 10, "how long each run's timed loop measures")
		trace    = flag.String("trace", "both", "0: end-to-end run; 1: traced run with layer probes; both: one after the other")
		traceOut = flag.String("trace-out", "", "write the traced run's spans to this `file`")
		out      = flag.String("out", "", "write the JSON summary to this `file`")
		runs     = flag.Int("runs", 1, "repeat each run this many times, in fresh processes, on seeds seed..seed+runs-1")
		compare  = flag.Bool("compare", false, "compare two summaries: -compare A.json B.json")
		spec     = flag.String("spec", "BENCHMARK.json", "the contract `file` -compare takes each metric's bound from")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two summary files"))
		}
		regressed, err := compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	var todo []*workload
	if *name == "all" {
		todo = workloads
	} else if w := workloadByName(*name); w != nil {
		todo = []*workload{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	var modes []bool // traced?
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fatal(fmt.Errorf("-trace %q: want 0, 1 or both", *trace))
	}

	sum := newSummary(*seed, *seconds)
	if *runs > 1 {
		// Repeats run in fresh processes: set-up time and peak memory are
		// properties of a process.
		if err := repeat(sum, todo, modes, *seed, *seconds, *runs); err != nil {
			fatal(err)
		}
		sum.print(os.Stdout)
		if err := sum.write(*out); err != nil {
			fatal(err)
		}
		return
	}

	last := contractLine{Correct: true, Metrics: map[string]contractValue{}}
	for _, w := range todo {
		for _, traced := range modes {
			res, err := runWorkload(w, runOptions{seed: *seed, seconds: *seconds, traced: traced,
				setups: 3, minCycles: 3})
			last.Attempted += max(res.samples.ops, 1)
			if err != nil {
				// A failed operation, a wrong status or restore source, or a
				// checksum mismatch: report it and exit non-zero.
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				last.Correct = false
				last.Failed++
				printContract(last)
				os.Exit(1)
			}
			sum.add(res)
			if traced && *traceOut != "" {
				if err := res.trace.writeTo(*traceOut); err != nil {
					fatal(err)
				}
			}
			for _, m := range metricTable(traced) {
				last.Metrics[m.name] = contractValue{Value: res.metrics[m.name], Unit: m.unit}
			}
		}
	}
	sum.print(os.Stdout)
	if err := sum.write(*out); err != nil {
		fatal(err)
	}
	printContract(last)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// contractLine is the last line of standard output: the one JSON object
// the harness that runs the benchmark reads.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printContract(c contractLine) {
	b, err := json.Marshal(c)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}
