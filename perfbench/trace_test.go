package main

import (
	"testing"

	"dbwlm/internal/wire"
)

// TestTracedDispatchMatchesDispatcher feeds one seeded op stream to the
// traced server loop's layer calls and to wire.Dispatcher.Dispatch, each
// over its own runtime, and requires the same status for every op: the
// per-layer numbers describe the same work as the untraced run.
func TestTracedDispatchMatchesDispatcher(t *testing.T) {
	traced, err := newRuntime()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := newRuntime()
	if err != nil {
		t.Fatal(err)
	}
	l := layers{rt: traced.rt, gate: traced.gate}
	var sp spans
	var res []wire.Result

	for _, shape := range []struct {
		batch int
		sql   bool
	}{{1, false}, {256, false}, {16, true}} {
		gt, err := newGen(11, 1, shape.batch, shape.sql)
		if err != nil {
			t.Fatal(err)
		}
		gp, _ := newGen(11, 1, shape.batch, shape.sql)
		for i := 0; i <= 200; i++ {
			drain := i == 200
			opsT, opsP := gt.frame(drain), gp.frame(drain)
			got := make([]wire.Result, len(opsT))
			l.dispatch(opsT, got, &sp)
			res = plain.disp.Dispatch(opsP, res)
			for j := range got {
				if got[j].Status != res[j].Status || got[j].Code != res[j].Code {
					t.Fatalf("batch %d frame %d op %d: traced %v %v, dispatcher %v %v",
						shape.batch, i, j, got[j].Code, got[j].Status, res[j].Code, res[j].Status)
				}
			}
			gt.absorb(got)
			gp.absorb(res[:len(opsP)])
		}
	}

	// Ops the generator never sends still map to the dispatcher's statuses.
	odd := []wire.Op{
		{Code: wire.OpAdmit, Class: 9, DeadlineNS: 1},
		{Code: wire.OpDone, Class: 0, Shard: 9999},
		{Code: wire.OpAdmitSQL, Class: 0, DeadlineNS: 1, SQL: []byte("SELEC nonsense")},
		{Code: wire.OpAdmitSQL, Class: 9, DeadlineNS: 1, SQL: []byte(sqlTemplates[0] + "1")},
		{Code: wire.OpAdmitFP, Class: 0, DeadlineNS: 1, FPHi: 1, FPLo: 2},
		{Code: wire.OpAdmit, Class: 1, Cost: 2 * reportingMaxCost, DeadlineNS: 1},
		{Code: 99},
	}
	got := make([]wire.Result, len(odd))
	l.dispatch(odd, got, &sp)
	res = plain.disp.Dispatch(odd, res)
	for j := range odd {
		if got[j].Status != res[j].Status {
			t.Errorf("op %d (%v): traced %v, dispatcher %v", j, odd[j].Code, got[j].Status, res[j].Status)
		}
	}
	for _, k := range []int{spanAdmit, spanDone, spanPredAdmit, spanPredObs} {
		if sp.sum[k].n == 0 {
			t.Errorf("layer span %d stayed empty", k)
		}
	}
}

// TestLiveRunsReconcile runs each live workload briefly, untraced and
// traced: no op may fail, the invariants must hold after the drain, and in
// the traced run the server spans must fit inside the client round trip.
func TestLiveRunsReconcile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the live workloads")
	}
	for name, shape := range liveShapes {
		for _, traced := range []bool{false, true} {
			shape.warmFrames = 50
			b, err := setupLive(shape, 5, traced, 1)
			if err != nil {
				t.Fatal(err)
			}
			o, err := b.run(1, traced)
			b.close()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed", name, traced, o.failed, o.attempted)
			}
			if !traced {
				continue
			}
			got := map[string]float64{}
			for _, m := range o.layers {
				got[m.name] = m.value
			}
			if got["wire.unattributed_us"] <= 0 || got["wire.dispatch_us"] <= 0 {
				t.Errorf("%s: unattributed %.3fus, dispatch %.3fus; want both > 0",
					name, got["wire.unattributed_us"], got["wire.dispatch_us"])
			}
		}
	}
}
