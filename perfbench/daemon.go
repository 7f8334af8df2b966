package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dbwlm/internal/admission"
	"dbwlm/internal/obsv"
	"dbwlm/internal/policy"
	"dbwlm/internal/rt"
	"dbwlm/internal/rthttp"
	"dbwlm/internal/slo"
	"dbwlm/internal/sqlmini"
	"dbwlm/internal/wire"
)

// wlmd's built-in three-tier class table (cmd/wlmd defaultClasses): the
// benchmark builds the daemon the way `wlmd -slo -trace 4096 -predict` does,
// minus the HTTP listener and flag parsing.
func wlmdClasses() []rt.ClassSpec {
	return []rt.ClassSpec{
		{Name: "interactive", Priority: policy.PriorityHigh, MaxMPL: 32},
		{Name: "reporting", Priority: policy.PriorityMedium, MaxMPL: 8, MaxCostTimerons: reportingMaxCost},
		{Name: "batch", Priority: policy.PriorityLow, MaxMPL: 4,
			MaxQueueDelay: 5 * time.Second, RetryBatch: 8},
	}
}

// reportingMaxCost is the reporting class's cost limit; admits above it are
// rejected on cost, deterministically.
const reportingMaxCost = 50000

// openPolicy keeps wlmd's cost limit and queueing rules but lifts every MPL
// above any number of grants the generator can hold outstanding, so no
// verdict depends on timing.
const openPolicy = `{"global_max_mpl": 0, "classes": [
	{"class": "interactive", "max_mpl": 1048576},
	{"class": "reporting", "max_mpl": 1048576, "max_cost_timerons": 50000},
	{"class": "batch", "max_mpl": 1048576, "max_queue_delay_ms": 5000, "retry_batch": 8}]}`

// wlmd's default objectives (cmd/wlmd defaultSLOs) at its default windows.
func wlmdSLOs() []slo.Spec {
	fast, slow := time.Minute, 10*time.Minute
	return []slo.Spec{
		{Class: "interactive", Target: 0.050, FastWindow: fast, SlowWindow: slow},
		{Class: "reporting", Target: 0.500, FastWindow: fast, SlowWindow: slow},
		{Class: "batch", Target: 5, FastWindow: fast, SlowWindow: slow},
	}
}

// daemon is one in-process wlmd: runtime, recorder, SLO engine, prediction
// gate, MAPE loop and a wire listener on loopback TCP. With traced set the
// listener is the benchmark's own span-recording server loop instead of
// wire.Server.
type daemon struct {
	rt    *rt.Runtime
	rec   *obsv.Recorder
	slo   *slo.Engine
	cache *sqlmini.PlanCache
	gate  *rt.PredictGate
	disp  *wire.Dispatcher

	srv       *wire.Server  // untraced
	traced    *tracedServer // traced
	ln        net.Listener
	serveDone chan error
	stopMAPE  func()
}

// newRuntime builds the runtime, SLO engine, recorder and prediction gate,
// with the open policy applied. Nothing is started.
func newRuntime() (*daemon, error) {
	r, err := rt.New(wlmdClasses(), rt.Options{GlobalMaxMPL: 48})
	if err != nil {
		return nil, err
	}
	eng, err := slo.New(wlmdSLOs(), slo.Options{Now: r.NowNanos})
	if err != nil {
		return nil, err
	}
	r.SetSLO(eng)
	p, err := policy.ParseRuntimePolicy([]byte(openPolicy))
	if err != nil {
		return nil, err
	}
	if err := r.ApplyPolicy(p); err != nil {
		return nil, err
	}
	rec := obsv.NewRecorder(4096)
	r.SetRecorder(rec)
	cache := sqlmini.NewPlanCache(sqlmini.NewCostModel(sqlmini.DefaultCatalog()), planCacheCap, 0)
	knn := &admission.KNNPredictor{MaxSeconds: 60, MinTraining: 30, Background: true, Indexed: true}
	gate := rt.NewPredictGate(r, cache, knn, admission.BucketMonster)
	return &daemon{rt: r, rec: rec, slo: eng, cache: cache, gate: gate,
		disp: &wire.Dispatcher{RT: r, Predict: gate}}, nil
}

// planCacheCap is wlmd's default -plan-cache capacity.
const planCacheCap = 4096

// startDaemon builds a runtime and serves it on a loopback port.
func startDaemon(traced bool) (*daemon, error) {
	d, err := newRuntime()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d.rt.Start()
	d.ln = ln
	d.serveDone = make(chan error, 1)
	if traced {
		d.traced = newTracedServer(d.disp)
		go func() { d.serveDone <- d.traced.serve(ln) }()
	} else {
		d.srv = wire.NewServer(d.disp)
		go func() { d.serveDone <- d.srv.Serve(ln) }()
	}
	d.stopMAPE = rthttp.StartMAPELoop(rthttp.NewMAPELoop(d.rt, d.rec), 250*time.Millisecond)
	return d, nil
}

// addr is the loopback address clients dial.
func (d *daemon) addr() string { return d.ln.Addr().String() }

// protoErrors reports connections dropped for protocol violations.
func (d *daemon) protoErrors() int64 {
	if d.traced != nil {
		return d.traced.protoErr.Load()
	}
	return d.srv.Stats().ProtoErrors
}

// close stops the MAPE loop, the listener (waiting for its accept loop and,
// when traced, every connection goroutine) and the retry loop.
func (d *daemon) close() error {
	d.stopMAPE()
	var err error
	if d.traced != nil {
		d.traced.close()
	} else {
		err = d.srv.Close()
	}
	if serr := <-d.serveDone; serr != nil && err == nil {
		err = serr
	}
	if d.traced != nil {
		d.traced.wg.Wait()
	}
	d.rt.Stop()
	return err
}

// spanSum accumulates one kind of span: how many units of work it covered
// and their total nanoseconds.
type spanSum struct{ n, ns int64 }

func (s *spanSum) add(n int, ns int64) { s.n += int64(n); s.ns += ns }

// perNS is the mean span per unit in nanoseconds (0 when nothing ran).
func (s spanSum) perNS() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.n)
}

// Span kinds. The wire spans count frames; the layer-call spans count the
// ops the call served.
const (
	spanReadWait = iota
	spanDecode
	spanDispatch
	spanEncode
	spanWrite
	spanAdmit     // rt.AdmitNoWait / Admit
	spanDone      // rt.GrantFromParts + Done
	spanPredAdmit // PredictGate.AdmitSQLBytes / AdmitFP
	spanPredObs   // PredictGate.ObserveFP
	numSpans
)

// spans is the server-side breakdown of a traced connection: frames and
// ops served, and one sum per span kind.
type spans struct {
	frames, ops int64
	sum         [numSpans]spanSum
}

// add folds o into s; with sign -1 it takes o away.
func (s *spans) add(o *spans, sign int64) {
	s.frames += sign * o.frames
	s.ops += sign * o.ops
	for i := range s.sum {
		s.sum[i].n += sign * o.sum[i].n
		s.sum[i].ns += sign * o.sum[i].ns
	}
}

// epoch anchors nanotime; time.Since reads only the monotonic clock.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// tracedServer is wire.Server's connection loop rebuilt from the same public
// calls (FrameConn.ReadFrame, DecodeRequest, EncodeResponse, WriteFrame),
// with each op making the layer call wire.Dispatcher would make. Spans are
// timed around those calls; the program itself is not instrumented.
type tracedServer struct {
	layers   layers
	protoErr atomic.Int64

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]*tracedConn
	closed bool
	wg     sync.WaitGroup
}

// tracedConn is one connection's span ledger; mu orders the connection
// goroutine's per-frame updates with snapshot reads.
type tracedConn struct {
	mu sync.Mutex
	s  spans
}

func newTracedServer(d *wire.Dispatcher) *tracedServer {
	return &tracedServer{layers: layers{rt: d.RT, gate: d.Predict}, conns: make(map[net.Conn]*tracedConn)}
}

func (t *tracedServer) serve(ln net.Listener) error {
	t.mu.Lock()
	t.ln = ln
	t.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			t.mu.Lock()
			closed := t.closed
			t.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("accept: %w", err)
		}
		tc := &tracedConn{}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			c.Close()
			continue
		}
		t.conns[c] = tc
		t.wg.Add(1)
		t.mu.Unlock()
		go t.serveConn(c, tc)
	}
}

func (t *tracedServer) close() {
	t.mu.Lock()
	t.closed = true
	for c := range t.conns {
		c.Close()
	}
	ln := t.ln
	t.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
}

// snapshot sums every connection's spans so far.
func (t *tracedServer) snapshot() spans {
	var out spans
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tc := range t.conns {
		tc.mu.Lock()
		out.add(&tc.s, 1)
		tc.mu.Unlock()
	}
	return out
}

func (t *tracedServer) serveConn(c net.Conn, tc *tracedConn) {
	defer t.wg.Done()
	defer c.Close()
	fc := wire.NewFrameConn(c)
	var (
		req wire.BatchReq
		res []wire.Result
		out []byte
		fs  spans
	)
	for {
		fs = spans{frames: 1}
		t0 := nanotime()
		payload, err := fc.ReadFrame()
		t1 := nanotime()
		if err != nil {
			if !errors.Is(err, io.EOF) && !isClosed(err) {
				t.protoErr.Add(1)
			}
			return
		}
		if err := wire.DecodeRequest(payload, &req); err != nil {
			t.protoErr.Add(1)
			return
		}
		t2 := nanotime()
		if cap(res) < len(req.Ops) {
			res = make([]wire.Result, len(req.Ops))
		}
		res = res[:len(req.Ops)]
		t.layers.dispatch(req.Ops, res, &fs)
		t3 := nanotime()
		out, err = wire.EncodeResponse(out, res)
		if err != nil {
			t.protoErr.Add(1)
			return
		}
		t4 := nanotime()
		werr := fc.WriteFrame(out)
		t5 := nanotime()
		fs.ops = int64(len(req.Ops))
		fs.sum[spanReadWait].add(1, t1-t0)
		fs.sum[spanDecode].add(1, t2-t1)
		fs.sum[spanDispatch].add(1, t3-t2)
		fs.sum[spanEncode].add(1, t4-t3)
		fs.sum[spanWrite].add(1, t5-t4)
		tc.mu.Lock()
		tc.s.add(&fs, 1)
		tc.mu.Unlock()
		if werr != nil {
			return
		}
	}
}

// isClosed reports the error a read returns once close tore the socket down.
func isClosed(err error) bool { return errors.Is(err, net.ErrClosed) }

// layers makes, for each op, the layer call wire.Dispatcher makes for it,
// timing the calls. Consecutive ops that share a layer call are timed as one
// span, so the clock reads do not swamp sub-microsecond calls; a training
// done is timed per op to split the release from the predictor update.
type layers struct {
	rt   *rt.Runtime
	gate *rt.PredictGate
}

// kindOf groups ops by the layer call they make.
func kindOf(op *wire.Op) int {
	if op.Code == wire.OpDone && (op.FPHi != 0 || op.FPLo != 0) {
		return 0 // training done: timed per op
	}
	return int(op.Code)
}

func (l *layers) dispatch(ops []wire.Op, res []wire.Result, sp *spans) {
	for i := 0; i < len(ops); {
		k := kindOf(&ops[i])
		j := i + 1
		for j < len(ops) && kindOf(&ops[j]) == k {
			j++
		}
		if k == 0 {
			for x := i; x < j; x++ {
				l.trainingDone(&ops[x], &res[x], sp)
			}
			i = j
			continue
		}
		t0 := nanotime()
		for x := i; x < j; x++ {
			l.dispatchOne(&ops[x], &res[x])
		}
		ns := nanotime() - t0
		switch ops[i].Code {
		case wire.OpAdmit:
			sp.sum[spanAdmit].add(j-i, ns)
		case wire.OpDone:
			sp.sum[spanDone].add(j-i, ns)
		case wire.OpAdmitSQL, wire.OpAdmitFP:
			sp.sum[spanPredAdmit].add(j-i, ns)
		}
		i = j
	}
}

// dispatchOne mirrors wire.Dispatcher's per-op switch.
func (l *layers) dispatchOne(op *wire.Op, r *wire.Result) {
	*r = wire.Result{Code: op.Code}
	switch op.Code {
	case wire.OpAdmit:
		if int(op.Class) >= l.rt.NumClasses() {
			r.Status = wire.StatusBadClass
			return
		}
		var g rt.Grant
		if op.DeadlineNS > 0 {
			g = l.rt.AdmitNoWait(rt.ClassID(op.Class), op.Cost)
		} else {
			g = l.rt.Admit(rt.ClassID(op.Class), op.Cost)
		}
		r.Cost = op.Cost
		fillGrant(g, r)
	case wire.OpAdmitSQL, wire.OpAdmitFP:
		l.predictAdmit(op, r)
	case wire.OpDone:
		g, ok := l.rt.GrantFromParts(rt.ClassID(op.Class), int32(op.Shard),
			int32(op.GShard), op.Start, op.QID)
		if !ok {
			r.Status = wire.StatusBadGrant
			return
		}
		r.QID = op.QID
		l.rt.Done(g, op.Ideal)
		r.Status = wire.StatusReleased
	default:
		r.Status = wire.StatusBadGrant
	}
}

// trainingDone is the OpDone path that also trains the predictor, timed as
// two spans: the release, then PredictGate.ObserveFP.
func (l *layers) trainingDone(op *wire.Op, r *wire.Result, sp *spans) {
	*r = wire.Result{Code: op.Code}
	t0 := nanotime()
	g, ok := l.rt.GrantFromParts(rt.ClassID(op.Class), int32(op.Shard),
		int32(op.GShard), op.Start, op.QID)
	if !ok {
		r.Status = wire.StatusBadGrant
		return
	}
	r.QID = op.QID
	elapsed := l.rt.ElapsedSeconds(g)
	l.rt.Done(g, op.Ideal)
	t1 := nanotime()
	sp.sum[spanDone].add(1, t1-t0)
	if l.gate != nil {
		l.gate.ObserveFP(sqlmini.Fingerprint{Hi: op.FPHi, Lo: op.FPLo}, elapsed)
		sp.sum[spanPredObs].add(1, nanotime()-t1)
	}
	r.Status = wire.StatusReleased
}

// predictAdmit mirrors the dispatcher's two prediction-based admit ops.
func (l *layers) predictAdmit(op *wire.Op, r *wire.Result) {
	if l.gate == nil {
		r.Status = wire.StatusNoPredict
		return
	}
	if int(op.Class) >= l.rt.NumClasses() {
		r.Status = wire.StatusBadClass
		return
	}
	class, wait := rt.ClassID(op.Class), op.DeadlineNS <= 0
	var (
		g    rt.Grant
		pred rt.Prediction
		err  error
	)
	if op.Code == wire.OpAdmitFP {
		var cached bool
		g, pred, cached = l.gate.AdmitFP(class, sqlmini.Fingerprint{Hi: op.FPHi, Lo: op.FPLo}, wait)
		if !cached {
			r.Status = wire.StatusUncachedFP
			return
		}
	} else {
		g, pred, err = l.gate.AdmitSQLBytes(class, op.SQL, wait)
		if err != nil {
			r.Status = wire.StatusParseError
			return
		}
	}
	r.Cost = pred.Timerons
	r.Predicted = pred.Seconds
	r.FPHi, r.FPLo = pred.FP.Hi, pred.FP.Lo
	if pred.Modeled {
		r.Flags |= wire.FlagModeled
	}
	if pred.CacheHit {
		r.Flags |= wire.FlagCacheHit
	}
	fillGrant(g, r)
}

// fillGrant maps a runtime grant onto the wire result.
func fillGrant(g rt.Grant, r *wire.Result) {
	class, shard, gshard, start, id, admitted := g.Parts()
	r.Status = wire.Status(g.Verdict())
	r.QID = id
	if admitted {
		r.Class = uint16(class)
		r.Shard = uint16(shard)
		r.GShard = uint16(gshard)
		r.Start = start
	}
}
