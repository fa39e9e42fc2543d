package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by the nearest-rank rule on
// a sorted copy; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// durs converts durations to float64 values in the unit that scale gives.
func durs(ds []time.Duration, scale func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = scale(d)
	}
	return out
}

// cpuTime is the process's user+system CPU time so far. Nodes launched
// in-process are part of the measured system, so their CPU counts too.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample is a runtime/metrics snapshot of the counters the
// runtime.* per-layer metrics are deltas of.
type runtimeSample struct {
	allocObjects, allocBytes uint64
	gcCPU, totalCPU          float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocObjects: s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
	}
}

// mallocs is the process's cumulative heap allocation count, read exactly
// (ReadMemStats stops the world) for the deterministic allocs_per_* counts.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// allocsPerRun runs f n times after one warm call on a single P and returns
// whole heap allocations per call, as testing.AllocsPerRun does, so a stray
// runtime allocation cannot turn an exact count into a fraction.
func allocsPerRun(n int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	before := mallocs()
	for i := 0; i < n; i++ {
		f()
	}
	return float64((mallocs() - before) / uint64(n))
}

// liveHeapMB is the live heap after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// hostTicks is the machine-wide CPU line of /proc/stat: every tick spent in
// any state, and the steal ticks among them, during which the hypervisor ran
// other guests on a vCPU that had work to do.
type hostTicks struct{ total, steal uint64 }

// readHostTicks reads the counters; zero where /proc/stat is missing, which
// makes every round read as quiet.
func readHostTicks() hostTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}
	}
	// user nice system idle iowait irq softirq steal; the guest columns
	// after them are already counted in user and nice.
	var t hostTicks
	for i, s := range f[1:9] {
		v, _ := strconv.ParseUint(s, 10, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// tick is the unit of /proc/stat: USER_HZ is 100 on Linux.
const tick = 10 * time.Millisecond

// stolenTo is the vCPU time stolen between t and u.
func (t hostTicks) stolenTo(u hostTicks) time.Duration {
	if u.steal <= t.steal {
		return 0
	}
	return time.Duration(u.steal-t.steal) * tick
}

// stealTo is the share of the ticks between t and u that were stolen.
func (t hostTicks) stealTo(u hostTicks) float64 {
	if u.total <= t.total {
		return 0
	}
	return float64(u.steal-t.steal) / float64(u.total-t.total)
}
