// Command drmsbench regenerates the tables and figures of the paper's
// evaluation section (§5-6). Sizes come from the repository's functional
// code; timings come from running the real checkpoint/restart code and
// replaying its I/O trace through the calibrated 1997-SP platform model.
//
// Usage:
//
//	drmsbench -table all            # everything (class A, the paper's size)
//	drmsbench -table 3              # one table (1, 3, 4, 5, 6, r)
//	drmsbench -figure 7             # the figure
//	drmsbench -table 5 -class W     # smaller problem class (faster)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"drms/internal/apps"
	"drms/internal/bench"
)

func main() {
	table := flag.String("table", "all", "table to regenerate: 1, 3, 4, 5, 6, r, sched, avail, or all")
	figure := flag.String("figure", "", "figure to regenerate: 7")
	classFlag := flag.String("class", "A", "problem class: S, W, A, or B")
	ablation := flag.Bool("ablation", false, "also run the §3.2 design-choice ablations (piece size, writer count)")
	bench6 := flag.String("bench6", "", "run the chained-checkpoint steady-state comparison and write its JSON artifact to this path")
	bench7 := flag.String("bench7", "", "run the memory-tier vs pfs restore-latency comparison and write its JSON artifact to this path")
	bench9 := flag.String("bench9", "", "run the localized-vs-full recovery TTR comparison and write its JSON artifact to this path")
	bench10 := flag.String("bench10", "", "run the in-flight-resize-vs-classic-reconfigure TTR comparison and write its JSON artifact to this path")
	flag.Parse()

	if *bench10 != "" {
		fmt.Fprintln(os.Stderr, "running the in-flight-resize-vs-classic-reconfigure comparison (both arms)...")
		r, err := bench.MeasureBench10(bench.DefaultBench10())
		check(err)
		js, err := bench.Bench10JSON(r)
		check(err)
		check(os.WriteFile(*bench10, append(js, '\n'), 0o644))
		fmt.Print(bench.RenderBench10(r))
		fmt.Fprintf(os.Stderr, "wrote %s\n", *bench10)
		return
	}

	if *bench9 != "" {
		fmt.Fprintln(os.Stderr, "running the localized-vs-full recovery comparison (partial and full paths)...")
		r, err := bench.MeasureBench9(bench.DefaultBench9())
		check(err)
		js, err := bench.Bench9JSON(r)
		check(err)
		check(os.WriteFile(*bench9, append(js, '\n'), 0o644))
		fmt.Print(bench.RenderBench9(r))
		fmt.Fprintf(os.Stderr, "wrote %s\n", *bench9)
		return
	}

	if *bench7 != "" {
		fmt.Fprintln(os.Stderr, "running the memory-tier restore-latency comparison (hot and pfs paths)...")
		r, err := bench.MeasureBench7(bench.DefaultBench7())
		check(err)
		js, err := bench.Bench7JSON(r)
		check(err)
		check(os.WriteFile(*bench7, append(js, '\n'), 0o644))
		fmt.Print(bench.RenderBench7(r))
		fmt.Fprintf(os.Stderr, "wrote %s\n", *bench7)
		return
	}

	if *bench6 != "" {
		fmt.Fprintln(os.Stderr, "running the chained-checkpoint steady-state comparison (both schemes)...")
		r, err := bench.MeasureBench6(bench.DefaultBench6())
		check(err)
		js, err := bench.Bench6JSON(r)
		check(err)
		check(os.WriteFile(*bench6, append(js, '\n'), 0o644))
		fmt.Print(bench.RenderBench6(r))
		fmt.Fprintf(os.Stderr, "wrote %s\n", *bench6)
		return
	}

	class := apps.Class((*classFlag)[0])
	if _, err := apps.GridSize(class); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	pes := []int{8, 16}
	sizePEs := []int{4, 8, 16}
	platform := bench.SPPlatform()

	want := func(t string) bool { return *table == "all" || *table == t }
	var out []string

	if want("1") {
		out = append(out, bench.RenderTable1(bench.Table1()))
	}
	if want("3") {
		rows, err := bench.Table3(class, sizePEs)
		check(err)
		out = append(out, bench.RenderTable3(class, rows, sizePEs))
	}
	if want("4") {
		rows, err := bench.Table4(class)
		check(err)
		out = append(out, bench.RenderTable4(class, rows))
	}
	needTimings := want("5") || want("6") || *figure == "7"
	if needTimings {
		fmt.Fprintf(os.Stderr, "running class %c checkpoint/restart measurements (8 and 16 PEs, both schemes)...\n", class)
		cells, err := bench.Table5(class, pes, platform)
		check(err)
		if want("5") {
			out = append(out, bench.RenderTable5(class, cells, pes))
		}
		if want("6") {
			out = append(out, bench.RenderTable6(class, cells, pes))
		}
		if *figure == "7" || (*table == "all" && *figure == "") {
			out = append(out, bench.RenderFigure7(class, cells, pes))
		}
	}
	if want("r") {
		rows, err := bench.RatioTable([][3]int{{32, 2, 3}, {32, 2, 2}, {16, 2, 3}, {64, 2, 3}})
		check(err)
		out = append(out, bench.RenderRatio(rows))
	}
	if *ablation {
		fmt.Fprintln(os.Stderr, "running §3.2 ablations on BT...")
		pieces, err := bench.PieceSizeSweep(bench.AblationKernel(), class, 16,
			[]int{64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20})
		check(err)
		out = append(out, bench.RenderAblation("streamed piece size (paper default ~1 MiB)", pieces))
		writers, err := bench.WritersSweep(bench.AblationKernel(), class, 16, []int{1, 2, 4, 8, 16})
		check(err)
		out = append(out, bench.RenderAblation("parallel writers P (P=1 = serial streaming)", writers))
		inc, err := bench.IncrementalComparison(bench.AblationKernel(), class, 16, bench.SPPlatform())
		check(err)
		out = append(out, fmt.Sprintf(
			"Ablation: incremental checkpoint (chained delta one iteration after its anchor)\n"+
				"full %.1fs  incremental %.1fs  rewritten %.0f MB  carried forward %.0f MB\n",
			inc.Full, inc.Incremental, bench.MB(inc.WrittenBytes), bench.MB(inc.SkippedBytes)))
	}
	if want("sched") {
		cfg := bench.SchedConfig{Processors: 16, ReconfigCost: 4}
		jobs := bench.SchedWorkload(16)
		rigid, err := bench.RunSchedule(cfg, jobs, bench.PolicyRigid)
		check(err)
		mall, err := bench.RunSchedule(cfg, jobs, bench.PolicyMalleable)
		check(err)
		out = append(out, bench.RenderSched(cfg, []bench.SchedResult{rigid, mall}))
	}
	if want("avail") {
		acfg := bench.AvailConfig{Processors: 16, Work: 16 * 100_000,
			CheckpointEvery: 600, CheckpointCost: 17, RestartCost: 42, RepairTime: 3600}
		pts := bench.AvailabilityStudy(acfg, []float64{50_000, 20_000, 10_000, 5_000, 2_000})
		out = append(out, bench.RenderAvailability(acfg, pts))
	}
	if len(out) == 0 {
		fmt.Fprintln(os.Stderr, "nothing selected; see -table/-figure")
		os.Exit(2)
	}
	fmt.Println(strings.Join(out, "\n"))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
