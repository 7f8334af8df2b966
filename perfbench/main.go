// Command perfbench is dbwlm's seeded end-to-end benchmark. One process runs
// one workload:
//
//   - admit-rtt, admit-batch, admit-sql: a live wlmd built in-process
//     (runtime, flight recorder, SLO engine, prediction gate, MAPE loop) and
//     served over the batched wire protocol on loopback TCP, driven by
//     closed-loop clients;
//   - whatif: decode a recorded trace, compress it, replay four engine
//     sizings;
//   - tables: the paper's Table 2, 3 and 4 experiment rows.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload admit-batch --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics — the end-to-end ones with --trace 0, the
// per-layer ones with --trace 1. The line before it stamps the host, the
// seed and the sample counts. NOTES.md describes the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

var stderr io.Writer = os.Stderr

// setups is how many times a run sets its workload up; setup_s is the median.
const setups = 3

// bench is a set-up workload ready to measure.
type bench interface {
	run(seconds int, traced bool) (*outcome, error)
	close()
}

func (b *whatifBench) close() {}
func (b *tablesBench) close() {}

var workloads = []string{"admit-rtt", "admit-batch", "admit-sql", "whatif", "tables"}

func setup(workload string, seed uint64, traced bool, seconds int) (bench, error) {
	if shape, ok := liveShapes[workload]; ok {
		return setupLive(shape, seed, traced, seconds)
	}
	switch workload {
	case "whatif":
		return setupWhatif(seed)
	case "tables":
		return setupTables(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	start := time.Now()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", fmt.Sprintf("workload to run: %v", workloads))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "length of the measured phase")
	traceFlag := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	traced := *traceFlag == 1

	var b bench
	var setupS []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		nb, err := setup(*workload, *seed, traced, *seconds)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: set-up:", err)
			return 1
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < setups-1 {
			nb.close()
		} else {
			b = nb
		}
	}
	firstOp := time.Since(start).Seconds()
	o, err := b.run(*seconds, traced)
	b.close()
	if err != nil {
		// A broken invariant fails the run; it is not just counted.
		fmt.Fprintln(stderr, "perfbench: run:", err)
		return 1
	}
	o.e2e("setup_s", median(setupS))

	o.stamp["workload"] = *workload
	o.stamp["seed"] = *seed
	o.stamp["seconds"] = *seconds
	o.stamp["trace"] = *traceFlag
	o.stamp["num_cpu"] = runtime.NumCPU()
	o.stamp["gomaxprocs"] = runtime.GOMAXPROCS(0)
	o.stamp["go_version"] = runtime.Version()
	o.stamp["attempted"] = o.attempted
	o.stamp["failed"] = o.failed
	o.stamp["setup_s_each"] = setupS
	o.stamp["process_to_first_op_s"] = firstOp
	e2e := map[string]float64{}
	for _, m := range o.metrics {
		e2e[m.name] = m.value
	}
	if traced {
		// The traced run's end-to-end figures; their difference from an
		// untraced run's is the tracing overhead.
		o.stamp["traced_end_to_end"] = e2e
	}

	metrics := map[string]any{}
	if traced {
		got := map[string]float64{}
		for _, m := range o.layers {
			got[m.name] = m.value
		}
		for _, l := range perLayer {
			metrics[l.name] = map[string]any{"value": got[l.name], "unit": l.unit}
		}
	} else {
		for _, m := range o.metrics {
			metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"stamp": o.stamp}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(map[string]any{
		"correct":   o.failed == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   metrics,
	}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}
