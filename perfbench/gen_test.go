package main

import (
	"testing"

	"dbwlm/internal/wire"
)

// TestGeneratorReleasesEveryGrant drives the generator straight into a
// dispatcher under the open policy. Every grant it is given must come back
// released, at batch 1 as at batch 256, with no verdict that depends on
// timing (no queue timeouts). This is the property cmd/wlmload's buildFrame
// lacks at -batch 1: it places a done only at odd slot indices, which a
// one-op frame never has.
func TestGeneratorReleasesEveryGrant(t *testing.T) {
	for _, tc := range []struct {
		name  string
		batch int
		sql   bool
	}{{"batch1", 1, false}, {"batch256", 256, false}, {"sql-batch16", 16, true}} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := newRuntime()
			if err != nil {
				t.Fatal(err)
			}
			g, err := newGen(7, 1, tc.batch, tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			var res []wire.Result
			frames := 4000 / tc.batch
			for i := 0; i <= frames; i++ {
				ops := g.frame(i == frames)
				res = d.disp.Dispatch(ops, res)
				if failed := g.absorb(res[:len(ops)]); failed != 0 {
					t.Fatalf("frame %d: %d ops failed", i, failed)
				}
			}
			var took, rejected int64
			for k := range g.admitted {
				if g.admitted[k] != g.released[k] {
					t.Errorf("class %d: %d grants taken, %d released", k, g.admitted[k], g.released[k])
				}
				took += g.admitted[k]
				rejected += g.rejectedCost[k]
			}
			if took == 0 || rejected == 0 {
				t.Errorf("took %d grants and %d cost rejections; want both > 0", took, rejected)
			}
			for _, cs := range d.rt.Snapshot() {
				if cs.Admitted != cs.Done || cs.Timeouts != 0 || cs.InEngine != 0 {
					t.Errorf("class %s: admitted %d done %d timeouts %d in engine %d",
						cs.Class, cs.Admitted, cs.Done, cs.Timeouts, cs.InEngine)
				}
			}
		})
	}
}

// TestGeneratorIsSeeded checks that one seed gives one op stream.
func TestGeneratorIsSeeded(t *testing.T) {
	a, _ := newGen(3, 1, 16, true)
	b, _ := newGen(3, 1, 16, true)
	for i := 0; i < 100; i++ {
		x, y := a.frame(false), b.frame(false)
		for j := range x {
			if x[j].Class != y[j].Class || string(x[j].SQL) != string(y[j].SQL) {
				t.Fatalf("frame %d op %d differs", i, j)
			}
		}
	}
}
