package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"dbwlm/internal/sqlmini"
	"dbwlm/internal/wire"
	"dbwlm/internal/workload"
)

// classMix is the seeded share of admits per wlmd class (interactive,
// reporting, batch).
var classMix = [3]float64{0.6, 0.3, 0.1}

// costMedian and costSigma shape the lognormal cost of plain admits. With the
// reporting class's 50 000-timeron limit, about 18% of reporting admits are
// rejected on cost.
const (
	costMedian = 20000
	costSigma  = 1.0
)

// sqlTemplates are statement shapes over sqlmini's default catalog. Every
// one ends in LIMIT, whose count the fingerprint hashes verbatim and the
// k-NN features see as the row estimate, so each count is its own plan-cache
// entry; the cost model charges LIMIT a constant, so a template's timerons,
// and with them its verdict, do not depend on the count. The two sales_fact
// aggregates cost ~182 000 timerons and are rejected on cost in the
// reporting class.
var sqlTemplates = []string{
	"SELECT id, name FROM customers WHERE id = 42 LIMIT ",
	"SELECT * FROM orders WHERE total > 100 LIMIT ",
	"SELECT COUNT(*) FROM orders WHERE region = 'west' LIMIT ",
	"SELECT d.year, SUM(f.amount) FROM sales_fact f JOIN date_dim d ON f.date_id = d.id GROUP BY d.year LIMIT ",
	"SELECT DISTINCT region FROM store_dim ORDER BY region LIMIT ",
	"SELECT c.name, o.total FROM customers c JOIN orders o ON o.customer_id = c.id WHERE o.total > 500 LIMIT ",
	"SELECT * FROM order_items WHERE qty > 3 LIMIT ",
	"SELECT p.name, SUM(f.amount) FROM sales_fact f JOIN product_dim p ON f.product_id = p.id GROUP BY p.name LIMIT ",
}

// limitDigits is the fixed width the LIMIT count is written in, so a frame
// slot's SQL buffer is patched in place.
const limitDigits = 7

// The LIMIT count is hot with probability hotShare, drawn from hotLimits
// values, giving len(sqlTemplates)*hotLimits = 3000 recurring shapes that fit
// the 4096-entry plan cache; otherwise it is a cold count from a range of
// millions, so the cache stays full and evicts.
const (
	hotLimits = 375
	hotShare  = 0.92
	maxLimit  = 9_999_999
)

// opSpec is one seeded admit and the verdict the generator predicts for it.
type opSpec struct {
	class uint16
	cost  float64
	tmpl  int // SQL template (sql streams only)
	limit int
	want  wire.Status
}

// held is an outstanding grant the next frame releases.
type held struct {
	class, shard, gshard uint16
	start, qid           int64
	fpHi, fpLo           uint64
}

// gen is one connection's closed-loop frame generator. Each frame first
// releases every grant the previous frame was given, then carries up to
// batch/2 new admits (at batch 1, frames alternate an admit and the done
// that releases it). The op slice and every SQL buffer are built once and
// patched per frame, so a frame allocates nothing.
type gen struct {
	rng       *rand.Rand
	batch     int
	admitsPer int
	sql       bool
	tmplCost  []float64 // timerons per template

	ops     []wire.Op
	want    []wire.Status
	sqlBuf  [][]byte // one per admit slot
	pending []held

	// per class: grants taken and released, and admits rejected on cost
	admitted, released, rejectedCost [3]int64
}

// newGen builds a generator for one connection. sql selects OpAdmitSQL
// admits over sqlTemplates; otherwise admits are plain OpAdmit with seeded
// costs.
func newGen(seed, stream uint64, batch int, sql bool) (*gen, error) {
	if batch < 1 {
		return nil, fmt.Errorf("batch %d < 1", batch)
	}
	g := &gen{
		rng:       rand.New(rand.NewPCG(seed, stream)),
		batch:     batch,
		admitsPer: max(1, batch/2),
		sql:       sql,
		ops:       make([]wire.Op, 0, batch),
		want:      make([]wire.Status, 0, batch),
	}
	g.pending = make([]held, 0, g.admitsPer)
	if sql {
		costs, err := templateCosts()
		if err != nil {
			return nil, err
		}
		g.tmplCost = costs
		longest := 0
		for _, t := range sqlTemplates {
			longest = max(longest, len(t)+limitDigits)
		}
		g.sqlBuf = make([][]byte, g.admitsPer)
		for i := range g.sqlBuf {
			g.sqlBuf[i] = make([]byte, 0, longest)
		}
	}
	return g, nil
}

// templateCosts plans each template once with a private cost model: the
// timerons the gate will judge every instance of it by.
func templateCosts() ([]float64, error) {
	m := sqlmini.NewCostModel(sqlmini.DefaultCatalog())
	out := make([]float64, len(sqlTemplates))
	for i, t := range sqlTemplates {
		p, err := m.PlanSQL(t + "1")
		if err != nil {
			return nil, fmt.Errorf("template %d: %w", i, err)
		}
		c := sqlmini.CostOf(p)
		out[i] = workload.TimeronsOf(c.CPUSeconds, c.IOMB)
	}
	return out, nil
}

// verdict is the status a cost-limited gate with no MPL pressure returns.
func verdict(class uint16, cost float64) wire.Status {
	if class == 1 && cost > reportingMaxCost {
		return wire.StatusRejectedCost
	}
	return wire.StatusAdmitted
}

// next draws the next seeded admit.
func (g *gen) next() opSpec {
	var s opSpec
	x := g.rng.Float64()
	switch {
	case x < classMix[0]:
		s.class = 0
	case x < classMix[0]+classMix[1]:
		s.class = 1
	default:
		s.class = 2
	}
	if g.sql {
		s.tmpl = g.rng.IntN(len(sqlTemplates))
		if g.rng.Float64() < hotShare {
			s.limit = 1 + g.rng.IntN(hotLimits)
		} else {
			s.limit = hotLimits + 1 + g.rng.IntN(maxLimit-hotLimits)
		}
		s.cost = g.tmplCost[s.tmpl]
	} else {
		s.cost = costMedian * math.Exp(costSigma*g.rng.NormFloat64())
	}
	s.want = verdict(s.class, s.cost)
	return s
}

// appendLimit writes the template with its LIMIT count at fixed width.
func appendLimit(dst []byte, tmpl string, n int) []byte {
	dst = append(dst[:0], tmpl...)
	var digits [limitDigits]byte
	for i := limitDigits - 1; i >= 0; i-- {
		digits[i] = byte('0' + n%10)
		n /= 10
	}
	return append(dst, digits[:]...)
}

// frame builds the next request. With drain set it carries only the dones
// that release outstanding grants (empty when none are held).
func (g *gen) frame(drain bool) []wire.Op {
	g.ops, g.want = g.ops[:0], g.want[:0]
	for _, h := range g.pending {
		g.ops = append(g.ops, wire.Op{Code: wire.OpDone, Class: h.class, Shard: h.shard,
			GShard: h.gshard, Start: h.start, QID: h.qid, FPHi: h.fpHi, FPLo: h.fpLo})
		g.want = append(g.want, wire.StatusReleased)
	}
	g.pending = g.pending[:0]
	if drain {
		return g.ops
	}
	admits := min(g.admitsPer, g.batch-len(g.ops))
	for i := 0; i < admits; i++ {
		s := g.next()
		op := wire.Op{Code: wire.OpAdmit, Class: s.class, Cost: s.cost, DeadlineNS: 1}
		if g.sql {
			g.sqlBuf[i] = appendLimit(g.sqlBuf[i], sqlTemplates[s.tmpl], s.limit)
			op = wire.Op{Code: wire.OpAdmitSQL, Class: s.class, DeadlineNS: 1, SQL: g.sqlBuf[i]}
		}
		g.ops = append(g.ops, op)
		g.want = append(g.want, s.want)
	}
	return g.ops
}

// absorb checks a response against the frame's predicted statuses, keeps
// the new grants for the next frame, and returns the number of failed ops:
// a verdict other than predicted, a stale-grant or bad-class status, or a
// response that does not answer the frame op for op.
func (g *gen) absorb(res []wire.Result) (failed int) {
	if len(res) != len(g.ops) {
		return len(g.ops)
	}
	for i := range res {
		r, op := &res[i], &g.ops[i]
		if r.Code != op.Code || r.Status != g.want[i] {
			failed++
			continue
		}
		switch r.Status {
		case wire.StatusAdmitted:
			g.admitted[op.Class]++
			g.pending = append(g.pending, held{class: r.Class, shard: r.Shard, gshard: r.GShard,
				start: r.Start, qid: r.QID, fpHi: r.FPHi, fpLo: r.FPLo})
		case wire.StatusReleased:
			g.released[op.Class]++
		case wire.StatusRejectedCost:
			g.rejectedCost[op.Class]++
		}
	}
	return failed
}
