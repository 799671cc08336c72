package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value (mean of the middle two for an even
// count); 0 for an empty slice. The input is not modified.
func median(v []float64) float64 { return percentile(v, 50) }

// percentile returns the p-th percentile of v by linear interpolation
// between order statistics; 0 for an empty slice.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(v []float64) float64 {
	var total float64
	for _, x := range v {
		total += x
	}
	return total
}

// tailPercentile is the reporting rule for a timing's tail: the highest of
// the usual percentiles that still has at least ten samples beyond it, so a
// "p95" is never one or two outliers. It returns 50 when the sample is too
// small to support any tail.
func tailPercentile(samples int) float64 {
	for _, p := range []float64{99.9, 99, 95, 90} {
		if float64(samples)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 50
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far: driver and
// providers together, since they share the process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMiB reads the process's resident-set high-water mark (VmHWM).
func rssPeakMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// memDelta is the runtime.MemStats movement over a timed phase.
type memDelta struct {
	allocMiB, mallocs, gcPauseMs, gcCycles, heapSysMiB float64
}

// memMeter samples runtime.MemStats around a timed phase. ReadMemStats stops
// the world, so it is only used on traced runs.
type memMeter struct{ before runtime.MemStats }

func startMemMeter() *memMeter {
	m := &memMeter{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memMeter) stop() memDelta {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	const mib = 1 << 20
	return memDelta{
		allocMiB:   float64(after.TotalAlloc-m.before.TotalAlloc) / mib,
		mallocs:    float64(after.Mallocs - m.before.Mallocs),
		gcPauseMs:  float64(after.PauseTotalNs-m.before.PauseTotalNs) / 1e6,
		gcCycles:   float64(after.NumGC - m.before.NumGC),
		heapSysMiB: float64(after.HeapSys) / mib,
	}
}
