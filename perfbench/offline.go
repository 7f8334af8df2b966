package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"time"

	"dbwlm/internal/engine"
	"dbwlm/internal/experiments"
	"dbwlm/internal/governor"
	"dbwlm/internal/sim"
	"dbwlm/internal/trace"
)

// What-if workload: decode a recorded trace, compress it once, and evaluate
// several engine sizings on the compressed trace — the way workload
// compression is used. The trace is the one `wlmtrace bench` gates its
// what-if figure on (trace.Synth seed 9, 8000 rows); --seed seeds the
// clustering and the replays. Seeded traces of 4000 rows are not used: a
// quarter of them exceed the divergence bound (see NOTES.md).
const (
	whatifTraceSeed = 9
	whatifRows      = 8000
	whatifRatio     = 16
	divergenceMax   = 0.3
)

// whatifSizings are the engine configurations one op evaluates. The first is
// the server trace.Synth's mix is sized for.
var whatifSizings = []engine.Config{
	{Cores: 8, MemoryMB: 16384, IOMBps: 800},
	{Cores: 4, MemoryMB: 16384, IOMBps: 800},
	{Cores: 16, MemoryMB: 16384, IOMBps: 800},
	{Cores: 8, MemoryMB: 8192, IOMBps: 400},
}

// whatifBench holds the encoded trace and the first evaluation every later
// one must reproduce.
type whatifBench struct {
	seed    uint64
	h       trace.Header
	encoded []byte
	refComp []trace.Row
	refStat []*trace.ReplayStats
	// divergence is the compressed replay's distance from the full one.
	divergence float64
}

// whatifSpans is one evaluation's breakdown.
type whatifSpans struct {
	decode, compress, replay time.Duration
	rows, reps               int
}

func setupWhatif(seed uint64) (*whatifBench, error) {
	h, rows := trace.Synth(whatifTraceSeed, whatifRows)
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, h)
	if err != nil {
		return nil, err
	}
	for i := range rows {
		if err := w.WriteRow(&rows[i]); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	b := &whatifBench{seed: seed, h: h, encoded: buf.Bytes()}

	// The compressed trace must stand for the full one: replay both on the
	// reference sizing and bound their divergence.
	comp := trace.Compress(h, rows, b.compressConfig())
	stats, err := trace.ReplayMany([]trace.ReplayJob{
		{Src: &trace.SliceSource{H: h, Rows: rows}, Cfg: trace.ReplayConfig{Engine: whatifSizings[0], Seed: seed, TimeScale: 1}},
		{Src: &trace.SliceSource{H: h, Rows: comp}, Cfg: b.replayConfig(whatifSizings[0], comp)},
	}, runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	b.divergence = trace.Diverge(stats[0], stats[1]).Max
	if b.divergence > divergenceMax {
		return nil, fmt.Errorf("compressed replay diverges %.4f from the full replay (bound %.2f)", b.divergence, divergenceMax)
	}
	// One untimed evaluation: the reference every measured one must match.
	b.refComp, b.refStat, _, err = b.evaluate()
	if err != nil {
		return nil, err
	}
	return b, nil
}

func (b *whatifBench) compressConfig() trace.CompressConfig {
	return trace.CompressConfig{Ratio: whatifRatio, Strata: 6, Seed: b.seed}
}

func (b *whatifBench) replayConfig(e engine.Config, comp []trace.Row) trace.ReplayConfig {
	return trace.ReplayConfig{Engine: e, Seed: b.seed, TimeScale: trace.RateScale(comp)}
}

// evaluate is one op: decode, compress, replay every sizing.
func (b *whatifBench) evaluate() ([]trace.Row, []*trace.ReplayStats, whatifSpans, error) {
	var sp whatifSpans
	t0 := time.Now()
	r, err := trace.NewReader(bytes.NewReader(b.encoded))
	if err != nil {
		return nil, nil, sp, err
	}
	rows, err := trace.ReadAll(r)
	if err != nil {
		return nil, nil, sp, err
	}
	t1 := time.Now()
	comp := trace.Compress(b.h, rows, b.compressConfig())
	t2 := time.Now()
	jobs := make([]trace.ReplayJob, len(whatifSizings))
	for i, e := range whatifSizings {
		jobs[i] = trace.ReplayJob{Src: &trace.SliceSource{H: b.h, Rows: comp}, Cfg: b.replayConfig(e, comp)}
	}
	stats, err := trace.ReplayMany(jobs, runtime.NumCPU())
	t3 := time.Now()
	sp = whatifSpans{decode: t1.Sub(t0), compress: t2.Sub(t1), replay: t3.Sub(t2), rows: len(rows), reps: len(comp)}
	return comp, stats, sp, err
}

// run measures evaluations until the deadline, in one-second windows.
func (b *whatifBench) run(seconds int, traced bool) (*outcome, error) {
	o := &outcome{stamp: map[string]any{}}
	var decode, compress, replay time.Duration
	var rows, reps int
	rt0 := readRuntime()
	win := newWindower()
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for time.Now().Before(deadline) {
		t0 := time.Now()
		comp, stats, sp, err := b.evaluate()
		win.add(time.Since(t0))
		o.attempted++
		if err != nil || !reflect.DeepEqual(comp, b.refComp) || !reflect.DeepEqual(stats, b.refStat) {
			o.failed++
		}
		decode += sp.decode
		compress += sp.compress
		replay += sp.replay
		rows += sp.rows
		reps = sp.reps
		if win.elapsed() >= time.Second {
			win.cut()
		}
	}
	if win.cur.ops > 0 {
		win.cut()
	}
	rt1 := readRuntime()
	o.windowed(win.ws, 0.90)
	o.stamp["trace_rows"] = whatifRows
	o.stamp["representatives"] = len(b.refComp)
	o.stamp["divergence"] = b.divergence
	o.e2e("heap_live_mb", heapLiveMB())
	if traced {
		o.layer("trace.decode_ns_per_row", float64(decode.Nanoseconds())/float64(rows))
		o.layer("trace.compress_ms", msPer(compress, o.attempted))
		o.layer("trace.replay_ms", msPer(replay, o.attempted))
		o.layer("trace.representatives", float64(reps))
		runtimeLayers(o, rt0, rt1, float64(o.attempted))
	}
	return o, nil
}

func msPer(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return d.Seconds() * 1e3 / float64(n)
}

// Tables workload: the paper's Table 2, 3 and 4 experiments, one row per op,
// at shortened horizons.
const (
	t2Horizon = 10 * sim.Second
	t2Drain   = 10 * sim.Second
	t3Horizon = 40 * sim.Second
	t4Horizon = 90 * sim.Second
	t4Drain   = 45 * sim.Second
)

// tableRow is one experiment row and the layer it exercises.
type tableRow struct {
	group string // admission (Table 2), execctl (Table 3), governor (Table 4)
	run   func() experiments.Row
}

// tableRows lists Table 2's transaction-overload and monster-mix variants,
// Table 3's variants and Table 4's profiles. The scenarios keep the seeds the
// paper's tables are generated with: a row's run time depends strongly on its
// scenario seed (the uncontrolled rows thrash), so --seed instead fixes the
// order the rows run in within each pass.
func tableRows(seed uint64) []tableRow {
	t2 := experiments.Table2Scenario{Horizon: t2Horizon, Drain: t2Drain}
	t3 := experiments.Table3Scenario{Horizon: t3Horizon}
	t4 := experiments.Table4Scenario{Horizon: t4Horizon, Drain: t4Drain}
	var rows []tableRow
	for _, v := range []experiments.Table2Variant{experiments.T2None, experiments.T2MPL,
		experiments.T2ConflictRatio, experiments.T2ThroughputFeedback, experiments.T2Indicators} {
		rows = append(rows, tableRow{"admission",
			func() experiments.Row { return experiments.RunTable2TxnVariant(v, t2) }})
	}
	for _, v := range []experiments.Table2Variant{experiments.T2None, experiments.T2QueryCost,
		experiments.T2Indicators, experiments.T2PredictTree, experiments.T2PredictKNN} {
		rows = append(rows, tableRow{"admission",
			func() experiments.Row { return experiments.RunTable2MonsterVariant(v, t2) }})
	}
	for _, v := range experiments.Table3Variants() {
		rows = append(rows, tableRow{"execctl",
			func() experiments.Row { return experiments.RunTable3Variant(v, t3) }})
	}
	// Profiles carry attachment state, so every run builds its own.
	profiles := func() []*governor.Profile {
		ps := append([]*governor.Profile{nil}, governor.Profiles()...)
		return append(ps, governor.OracleProfile())
	}
	for i := range profiles() {
		rows = append(rows, tableRow{"governor",
			func() experiments.Row { return experiments.RunTable4Profile(profiles()[i], t4) }})
	}
	rng := rand.New(rand.NewPCG(seed, 0))
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return rows
}

// tablesBench holds the row list and each row's first result.
type tablesBench struct {
	rows []tableRow
	ref  []experiments.Row
}

// setupTables runs one untimed pass; its rows are the reference every
// measured row must reproduce bit for bit.
func setupTables(seed uint64) (*tablesBench, error) {
	b := &tablesBench{rows: tableRows(seed)}
	for _, r := range b.rows {
		b.ref = append(b.ref, r.run())
	}
	return b, nil
}

// sameMetrics reports whether two rows carry bit-identical metrics.
func sameMetrics(a, b experiments.Row) bool {
	if a.Name != b.Name || len(a.Metrics) != len(b.Metrics) {
		return false
	}
	for k, v := range a.Metrics {
		w, ok := b.Metrics[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// run measures whole passes over the row list until the deadline; each pass
// is one window, so every window weighs the rows alike. The rows are
// different experiments of unequal size, and a median over row latencies
// jumps from one row to another as their order shifts with noise, so a
// pass contributes one latency sample: its mean row latency.
func (b *tablesBench) run(seconds int, traced bool) (*outcome, error) {
	o := &outcome{stamp: map[string]any{}}
	groupTime := map[string]time.Duration{}
	groupRows := map[string]int64{}
	rt0 := readRuntime()
	win := newWindower()
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for time.Now().Before(deadline) {
		for i, r := range b.rows {
			t0 := time.Now()
			got := r.run()
			d := time.Since(t0)
			win.cur.ops++
			groupTime[r.group] += d
			groupRows[r.group]++
			o.attempted++
			if !sameMetrics(got, b.ref[i]) {
				o.failed++
			}
		}
		win.cur.lat = append(win.cur.lat, float64(win.elapsed().Nanoseconds())/float64(len(b.rows)))
		win.cut()
	}
	rt1 := readRuntime()
	o.windowed(win.ws, 0.90)
	o.stamp["rows_per_pass"] = len(b.rows)
	o.e2e("heap_live_mb", heapLiveMB())
	if traced {
		o.layer("admission.t2_row_ms", msPer(groupTime["admission"], groupRows["admission"]))
		o.layer("execctl.t3_row_ms", msPer(groupTime["execctl"], groupRows["execctl"]))
		o.layer("governor.t4_row_ms", msPer(groupTime["governor"], groupRows["governor"]))
		runtimeLayers(o, rt0, rt1, float64(o.attempted))
	}
	return o, nil
}
