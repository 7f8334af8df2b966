package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// outcome is one measured run: ops attempted and failed, the end-to-end and
// per-layer metrics, and the stamp fields that say what stands behind them
// (stamp must be non-nil).
type outcome struct {
	attempted, failed int64
	metrics           []namedMetric
	layers            []namedMetric
	stamp             map[string]any
}

type namedMetric struct {
	name, unit string
	value      float64
}

// endToEnd are the units of the end-to-end metrics every workload reports.
var endToEnd = map[string]string{
	"ops_per_s":      "1/s",
	"latency_p50_us": "us",
	"cpu_us_per_op":  "us",
	"heap_live_mb":   "MB",
	"setup_s":        "s",
}

func (o *outcome) e2e(name string, v float64) {
	o.metrics = append(o.metrics, namedMetric{name: name, unit: endToEnd[name], value: v})
}

func (o *outcome) layer(name string, v float64) {
	o.layers = append(o.layers, namedMetric{name: name, value: v})
}

// perLayer lists every per-layer metric with its unit, in report order. A
// traced run reports all of them; a layer the workload does not exercise
// reads 0.
var perLayer = []struct{ name, unit string }{
	{"wire.rtt_us", "us"},
	{"wire.read_wait_us", "us"},
	{"wire.decode_us", "us"},
	{"wire.dispatch_us", "us"},
	{"wire.encode_us", "us"},
	{"wire.write_us", "us"},
	{"wire.unattributed_us", "us"},
	{"wire.decode_ns_per_op", "ns"},
	{"wire.encode_ns_per_op", "ns"},
	{"wire.ops_per_frame", "count"},
	{"rt.admit_ns", "ns"},
	{"rt.done_ns", "ns"},
	{"rt.rejected_cost", "count"},
	{"rt.predict_admit_ns", "ns"},
	{"rt.predict_observe_ns", "ns"},
	{"obsv.events_per_op", "count"},
	{"obsv.overwritten_per_s", "1/s"},
	{"slo.observed_per_op", "count"},
	{"sqlmini.plan_hit_ratio", "ratio"},
	{"sqlmini.plan_misses_per_s", "1/s"},
	{"admission.retrains_per_s", "1/s"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.sched_latency_p99_us", "us"},
	{"trace.decode_ns_per_row", "ns"},
	{"trace.compress_ms", "ms"},
	{"trace.replay_ms", "ms"},
	{"trace.representatives", "count"},
	{"admission.t2_row_ms", "ms"},
	{"execctl.t3_row_ms", "ms"},
	{"governor.t4_row_ms", "ms"},
}

// windowStats is one window of a measured phase: the ops completed in it,
// its length, the process CPU spent in it, and its op latencies in ns.
type windowStats struct {
	ops     int64
	seconds float64
	cpu     float64
	lat     []float64
}

// windowed reports the end-to-end throughput and CPU figures as medians
// over the phase's windows, so a burst of interference in one window moves
// them little. Latency is reported the same way when every window holds at
// least ten samples beyond the tail quantile tailQ; otherwise the windows'
// samples are pooled and the percentiles taken over the whole phase. The
// tail goes to the stamp, not the gated metrics: across runs it spreads
// more than any bound the result format allows.
func (o *outcome) windowed(ws []windowStats, tailQ float64) {
	var thr, cpu, p50, tail, pooled []float64
	perWindow := true
	samples := 0
	for _, w := range ws {
		if w.ops == 0 || len(w.lat) == 0 || w.seconds <= 0 {
			continue
		}
		thr = append(thr, float64(w.ops)/w.seconds)
		cpu = append(cpu, w.cpu*1e6/float64(w.ops))
		perWindow = perWindow && float64(len(w.lat))*(1-tailQ) >= 10
		samples += len(w.lat)
	}
	for _, w := range ws {
		if len(w.lat) == 0 {
			continue
		}
		if perWindow {
			p := percentiles(w.lat, 0.5, tailQ)
			p50, tail = append(p50, p[0]), append(tail, p[1])
		} else {
			pooled = append(pooled, w.lat...)
		}
	}
	if !perWindow {
		p := percentiles(pooled, 0.5, tailQ)
		p50, tail = []float64{p[0]}, []float64{p[1]}
	}
	o.stamp["windows"] = len(thr)
	o.stamp["ops_per_s_by_window"] = thr
	o.stamp["latency_samples"] = samples
	o.stamp["latency_samples_per_window_min"] = minSamples(ws)
	o.stamp["latency_per_window"] = perWindow
	o.stamp[fmt.Sprintf("latency_p%.0f_us", tailQ*100)] = median(tail) / 1e3
	o.e2e("ops_per_s", median(thr))
	o.e2e("latency_p50_us", median(p50)/1e3)
	o.e2e("cpu_us_per_op", median(cpu))
}

func minSamples(ws []windowStats) int {
	n := -1
	for _, w := range ws {
		if len(w.lat) > 0 && (n < 0 || len(w.lat) < n) {
			n = len(w.lat)
		}
	}
	return n
}

// windower cuts a phase measured on one goroutine into windows.
type windower struct {
	ws   []windowStats
	cur  windowStats
	t0   time.Time
	cpu0 float64
}

func newWindower() *windower { return &windower{t0: time.Now(), cpu0: cpuSeconds()} }

// add books one op of the current window.
func (w *windower) add(lat time.Duration) {
	w.cur.ops++
	w.cur.lat = append(w.cur.lat, float64(lat.Nanoseconds()))
}

// elapsed is the current window's age.
func (w *windower) elapsed() time.Duration { return time.Since(w.t0) }

// cut closes the current window.
func (w *windower) cut() {
	now, cpu := time.Now(), cpuSeconds()
	w.cur.seconds, w.cur.cpu = now.Sub(w.t0).Seconds(), cpu-w.cpu0
	w.ws = append(w.ws, w.cur)
	w.cur, w.t0, w.cpu0 = windowStats{}, now, cpu
}

// percentiles sorts xs in place and returns the requested quantiles, each
// interpolated linearly between the two nearest order statistics.
func percentiles[T uint32 | float64](xs []T, qs ...float64) []float64 {
	slices.Sort(xs)
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		return out
	}
	for i, q := range qs {
		pos := q * float64(len(xs)-1)
		lo := int(math.Floor(pos))
		hi := min(lo+1, len(xs)-1)
		frac := pos - float64(lo)
		out[i] = float64(xs[lo])*(1-frac) + float64(xs[hi])*frac
	}
	return out
}

// median of a small sample (copied, not sorted in place).
func median(xs []float64) float64 {
	return percentiles(slices.Clone(xs), 0.5)[0]
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapLiveMB forces a collection and reports the live heap.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runtimeSample is a reading of the Go runtime's own counters.
type runtimeSample struct {
	gcCPU, totalCPU, allocBytes float64
	sched                       *metrics.Float64Histogram
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	out := runtimeSample{gcCPU: val(0), totalCPU: val(1), allocBytes: val(2)}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		out.sched = s[3].Value.Float64Histogram()
	}
	return out
}

// runtimeLayers adds the Go runtime's per-layer figures over an interval:
// the GC's share of CPU, bytes allocated per op, and the p99 of goroutine
// scheduling latency (interpolated within its histogram bucket).
func runtimeLayers(o *outcome, a, b runtimeSample, ops float64) {
	o.layer("runtime.gc_cpu_share", (b.gcCPU-a.gcCPU)/math.Max(b.totalCPU-a.totalCPU, 1e-9))
	o.layer("runtime.alloc_bytes_per_op", (b.allocBytes-a.allocBytes)/ops)
	o.layer("runtime.sched_latency_p99_us", histQuantile(a.sched, b.sched, 0.99)*1e6)
}

// histQuantile is the q-quantile of the counts b gained over a.
func histQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i := range b.Counts {
		c := float64(b.Counts[i] - a.Counts[i])
		if c > 0 && seen+c >= rank {
			lo, hi := b.Buckets[i], b.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*(rank-seen)/c
		}
		seen += c
	}
	return 0
}
