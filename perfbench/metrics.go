package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"
)

// metricSpec is one metric as BENCHMARK.json lists it. Bound is the share of
// the baseline median an end-to-end metric may worsen by before a change
// counts as a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func (s metricSpec) lowerBetter() bool { return s.Better == "lower" }

// metricSet is what a run reports, read from BENCHMARK.json: the end-to-end
// metrics, measured with tracing off, and the per-layer metrics of a traced
// run. Per-layer timings come from the traced passes' spans; counts and
// runtime figures from the run's untraced passes, so tracing does not
// perturb them.
type metricSet struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// of returns the metrics a run with the given --trace value reports.
func (m *metricSet) of(trace int) []metricSpec {
	if trace == 1 {
		return m.PerLayer
	}
	return m.EndToEnd
}

// loadMetrics reads the metric lists from the BENCHMARK.json at path and
// checks that it names the workloads this binary runs.
func loadMetrics(path string) (*metricSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		metricSet
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var names, want []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		return nil, fmt.Errorf("%s names workloads %v, the benchmark runs %v", path, names, want)
	}
	for _, s := range append(slices.Clip(b.EndToEnd), b.PerLayer...) {
		if s.Better != "lower" && s.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s: better is %q, want lower or higher", path, s.Name, s.Better)
		}
	}
	return &b.metricSet, nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(xs, n=4)
// computes them (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	// Python's exclusive method, in its own integer arithmetic.
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// percentile returns the p-th percentile (nearest rank) of ds.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	k = min(max(k, 0), len(s)-1)
	return s[k]
}

// percentileMS is percentile in ms.
func percentileMS(ds []time.Duration, p float64) float64 {
	return float64(percentile(ds, p)) / 1e6
}

// processCPU is the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample is a snapshot of the Go runtime's counters.
type runtimeSample struct {
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64
	sched               *metrics.Float64Histogram
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	rs := runtimeSample{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		rs.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		rs.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		rs.sched = s[2].Value.Float64Histogram()
	}
	return rs
}

// schedP99 returns the 99th percentile (µs) of the scheduling latencies
// recorded between two samples, at the histogram's bucket resolution.
func schedP99(before, after *metrics.Float64Histogram) float64 {
	if before == nil || after == nil || len(before.Counts) != len(after.Counts) {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(after.Counts))
	for i := range delta {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var acc uint64
	for i, c := range delta {
		acc += c
		if acc >= want {
			hi := after.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = after.Buckets[i]
			}
			return hi * 1e6
		}
	}
	return 0
}

// heapLiveMB forces a collection and returns the live heap in MiB.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// calibrate times a fixed CPU kernel (an FNV-1a pass over 1 MiB) five times
// and returns the median in µs: a yardstick for how fast this host ran.
func calibrate() float64 {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	var times []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		h := uint64(14695981039346656037)
		for k := 0; k < 4; k++ {
			for _, b := range buf {
				h ^= uint64(b)
				h *= 1099511628211
			}
		}
		calibSink = h
		times = append(times, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return median(times)
}

// calibSink keeps the calibration kernel from being optimised away.
var calibSink uint64
