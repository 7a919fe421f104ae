package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// peakRSSMB reads the process's high-water resident set (VmHWM) in MB.
// 0 when /proc is not available.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// procSample is a snapshot of the process-wide cost counters the
// per-cycle proc.* metrics are deltas of.
type procSample struct {
	alloc   uint64 // cumulative bytes allocated
	mallocs uint64
	gcs     uint32
	cpu     time.Duration // user + system
}

func sampleProc() procSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	var cpu time.Duration
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return procSample{alloc: m.TotalAlloc, mallocs: m.Mallocs, gcs: m.NumGC, cpu: cpu}
}
