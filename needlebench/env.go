package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// rusage returns the process's resource usage from getrusage.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime returns the process's user+system CPU time. Unlike wall time it
// excludes the ticks a hypervisor steals from the guest.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 }

// cpuTicks is the machine-wide busy and steal tick count from /proc/stat.
type cpuTicks struct{ busy, steal uint64 }

// readTicks sums the aggregate "cpu" line of /proc/stat: busy counts user,
// nice, system, irq, softirq and steal; idle and iowait are excluded.
func readTicks() cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTicks{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	v := make([]uint64, len(fields)-1)
	for i := range v {
		v[i], _ = strconv.ParseUint(fields[i+1], 10, 64)
	}
	// user nice system idle iowait irq softirq steal ...
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6] + v[7], steal: v[7]}
}

// stealFrac returns the share of busy ticks the host stole between a and b.
func stealFrac(a, b cpuTicks) float64 {
	return safeDiv(float64(b.steal-a.steal), float64(b.busy-a.busy))
}

// runtimeSample is a snapshot of the Go runtime's allocation and GC
// counters.
type runtimeSample struct {
	totalAlloc, mallocs, heapAlloc uint64
	numGC                          uint32
	gcCPU, totalCPU                float64
}

// sub and add combine the counters of two samples (heapAlloc is a level,
// not a counter, and is left zero).
func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{
		totalAlloc: a.totalAlloc - b.totalAlloc, mallocs: a.mallocs - b.mallocs,
		numGC: a.numGC - b.numGC,
		gcCPU: a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU,
	}
}

func (a runtimeSample) add(b runtimeSample) runtimeSample {
	return runtimeSample{
		totalAlloc: a.totalAlloc + b.totalAlloc, mallocs: a.mallocs + b.mallocs,
		numGC: a.numGC + b.numGC,
		gcCPU: a.gcCPU + b.gcCPU, totalCPU: a.totalCPU + b.totalCPU,
	}
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := runtimeSample{totalAlloc: ms.TotalAlloc, mallocs: ms.Mallocs, heapAlloc: ms.HeapAlloc, numGC: ms.NumGC}
	metrics.Read(cpuMetrics)
	if cpuMetrics[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = cpuMetrics[0].Value.Float64()
		s.totalCPU = cpuMetrics[1].Value.Float64()
	}
	return s
}
