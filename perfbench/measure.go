package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSample is a snapshot of the process's own counters (wall clock,
// CPU time, heap allocations) and of the host's steal time.
type procSample struct {
	wall   time.Time
	cpu    time.Duration
	allocs uint64
	bytes  uint64
	steal  time.Duration
}

// sampleProc reads the counters. ReadMemStats stops the world briefly,
// so it is called only at phase boundaries.
func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	steal, _ := hostSteal()
	return procSample{wall: time.Now(), cpu: processCPU(), allocs: ms.Mallocs, bytes: ms.TotalAlloc, steal: steal}
}

// processCPU returns the user plus system CPU time of the process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the peak resident set size of the process in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// phase is the difference between a sample and now.
type phase struct {
	wall   time.Duration
	cpu    time.Duration
	allocs uint64
	bytes  uint64
	steal  time.Duration
}

func since(a procSample) phase {
	b := sampleProc()
	return phase{wall: b.wall.Sub(a.wall), cpu: b.cpu - a.cpu, allocs: b.allocs - a.allocs, bytes: b.bytes - a.bytes, steal: b.steal - a.steal}
}

// hostSteal returns the machine-wide steal time from /proc/stat: the
// time this virtual machine's CPUs were runnable but held by the
// hypervisor. It is zero and ok is false where the file or the field is
// missing.
func hostSteal() (time.Duration, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, false
	}
	fields := strings.Fields(sc.Text())
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, false
	}
	ticks, err := strconv.ParseUint(fields[8], 10, 64)
	if err != nil {
		return 0, false
	}
	// /proc/stat counts in USER_HZ, which is 100 on Linux.
	return time.Duration(ticks) * (time.Second / 100), true
}

// median returns the median of xs (the mean of the middle pair for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timer holds the calibrated cost of timing one call with a pair of
// time.Now reads, so traced per-call times can be corrected for it.
type timer struct {
	// inner is what an empty timed region reads: the clock read's own
	// share inside the region.
	inner time.Duration
	// outer is the whole cost the pair adds to the enclosing code.
	outer time.Duration
}

// calibrateTimer measures the timing overhead as the best of a few
// batches, so one descheduled batch does not inflate it.
func calibrateTimer() timer {
	const n = 1 << 16
	best := timer{inner: time.Hour, outer: time.Hour}
	for k := 0; k < 5; k++ {
		var sum time.Duration
		start := time.Now()
		for i := 0; i < n; i++ {
			t := time.Now()
			sum += time.Since(t)
		}
		outer := time.Since(start) / n
		if inner := sum / n; inner < best.inner {
			best.inner = inner
		}
		if outer < best.outer {
			best.outer = outer
		}
	}
	return best
}

func (t timer) String() string {
	return fmt.Sprintf("timer overhead %v inside, %v per timed call", t.inner, t.outer)
}
