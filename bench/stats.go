package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// percentile returns the exact p-th percentile (0 < p <= 100) of sorted
// samples by the nearest-rank rule: the smallest sample with at least
// p% of the samples at or below it. No interpolation, no buckets.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(p, len(sorted))-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n
// samples. The epsilon keeps 99% of 2000 at 1980, not 1981, when the
// product lands a hair above the integer.
func rankOf(p float64, n int) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return rank
}

// tailPercentiles are the candidates for "the highest percentile the
// sample supports", highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// highestPercentile returns the highest of tailPercentiles that has at
// least minBeyond samples strictly beyond its rank, and that
// percentile's value; with too few samples for any it falls back to the
// median.
func highestPercentile(sorted []float64, minBeyond int) (p, value float64) {
	n := len(sorted)
	for _, p := range tailPercentiles {
		if rank := rankOf(p, n); n-rank >= minBeyond {
			return p, sorted[rank-1]
		}
	}
	return 50, percentile(sorted, 50)
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of unsorted values; the mean of the middle two for even counts
// (matching Python's statistics.median, which the driver uses).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// stallCapMS is the most one query may add to query_capped_mean_ms.
// Ten times the quiet median: high enough that a query caught behind a
// flush, a compaction or a collection counts several times over, low
// enough that the run's one or two longest stalls cannot set the mean.
const stallCapMS = 10

// cappedMean is the mean of v with every value above limit counted as
// limit.
func cappedMean(v []float64, limit float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += math.Min(x, limit)
	}
	return sum / float64(len(v))
}

func minMax(v []float64) (lo, hi float64) {
	if len(v) == 0 {
		return 0, 0
	}
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtime/metrics names the harness samples.
const (
	metricAllocs     = "/gc/heap/allocs:objects"
	metricHeapLive   = "/memory/classes/heap/objects:bytes"
	metricGCCycles   = "/gc/cycles/total:gc-cycles"
	metricGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	metricTotalCPU   = "/cpu/classes/total:cpu-seconds"
	metricGoroutines = "/sched/goroutines:goroutines"
)

func readMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	}
	return 0
}

// liveHeap forces a full collection (twice, so finalizer- and
// pool-held objects are gone too) and returns the bytes of live heap
// objects.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	return readMetric(metricHeapLive)
}

// usage is the resource reading taken at both ends of a timed region.
type usage struct {
	wall                      time.Time
	cpu                       time.Duration
	allocs                    float64
	gcCycles, gcCPU, totalCPU float64 // the runtime's own accounting
}

func readUsage() usage {
	return usage{
		wall: time.Now(), cpu: cpuTime(), allocs: readMetric(metricAllocs),
		gcCycles: readMetric(metricGCCycles), gcCPU: readMetric(metricGCCPU), totalCPU: readMetric(metricTotalCPU),
	}
}

// spent is what a timed region cost.
type spent struct {
	wallS, cpuS, allocs  float64
	gcCycles, gcCPUShare float64 // GC cycles, and GC's share of the runtime's CPU
}

// since returns what was spent between u and now.
func (u usage) since() spent {
	now := readUsage()
	s := spent{
		wallS:    now.wall.Sub(u.wall).Seconds(),
		cpuS:     (now.cpu - u.cpu).Seconds(),
		allocs:   now.allocs - u.allocs,
		gcCycles: now.gcCycles - u.gcCycles,
	}
	if tot := now.totalCPU - u.totalCPU; tot > 0 {
		s.gcCPUShare = (now.gcCPU - u.gcCPU) / tot
	}
	return s
}
