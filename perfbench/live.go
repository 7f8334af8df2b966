package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"dbwlm/internal/rt"
	"dbwlm/internal/sqlmini"
	"dbwlm/internal/wire"
)

// liveShape is one live workload: a closed loop (each client sends its next
// frame only after the previous reply) over conns connections.
type liveShape struct {
	conns int
	batch int  // ops per frame in steady state (batch/2 admits plus their dones)
	sql   bool // OpAdmitSQL admits and fingerprint-carrying dones
	// warmFrames is the set-up's untimed pass, in frames per connection.
	warmFrames int
}

var liveShapes = map[string]liveShape{
	"admit-rtt":   {conns: 1, batch: 1, warmFrames: 4000},
	"admit-batch": {conns: 2, batch: 256, warmFrames: 300},
	"admit-sql":   {conns: 2, batch: 16, sql: true, warmFrames: 1500},
}

// pretrainObs is the seeded completion history the predictor learns before
// the first measured op.
const pretrainObs = 2000

// maxSamplesPerSec bounds the round-trip samples one connection keeps per
// one-second window; the buffers are allocated in set-up.
const maxSamplesPerSec = 200_000

// liveBench is a set-up live workload: a daemon with warm caches and a
// trained model, and dialed clients that have run their untimed pass.
type liveBench struct {
	d       *daemon
	clients []*client
}

// client drives one connection.
type client struct {
	conn net.Conn
	fc   *wire.FrameConn
	g    *gen
	buf  []byte
	res  wire.BatchRes

	sent                int64 // frames written, set-up included
	frames, ops, failed int64 // measured phase
	rttNS               int64
	// wins holds the measured round trips (ns) per one-second window of the
	// measured phase, winOps the ops each window completed.
	wins   [][]uint32
	winOps []int64
	end    int64
	err    error
}

// setupLive builds the daemon, fills the plan cache, pre-trains the
// predictor, dials the connections and runs one untimed pass.
func setupLive(shape liveShape, seed uint64, traced bool, seconds int) (*liveBench, error) {
	d, err := startDaemon(traced)
	if err != nil {
		return nil, err
	}
	b := &liveBench{d: d}
	if err := b.warmPredictor(seed); err != nil {
		b.close()
		return nil, err
	}
	for i := 0; i < shape.conns; i++ {
		conn, err := net.Dial("tcp", d.addr())
		if err != nil {
			b.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		g, err := newGen(seed, uint64(i+1), shape.batch, shape.sql)
		if err != nil {
			conn.Close()
			b.close()
			return nil, err
		}
		c := &client{conn: conn, fc: wire.NewFrameConn(conn), g: g,
			wins: make([][]uint32, seconds), winOps: make([]int64, seconds)}
		for w := range c.wins {
			c.wins[w] = make([]uint32, 0, maxSamplesPerSec)
		}
		b.clients = append(b.clients, c)
	}
	err = b.each(func(c *client) error {
		for i := 0; i < shape.warmFrames; i++ {
			_, _, failed, err := c.roundTrip(false)
			if err != nil {
				return err
			}
			if failed > 0 {
				return fmt.Errorf("untimed pass: %d ops failed", failed)
			}
		}
		return nil
	})
	if err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// warmPredictor fills the plan cache with the recurring statement shapes and
// trains the k-NN on a seeded history of completions.
func (b *liveBench) warmPredictor(seed uint64) error {
	var buf []byte
	for t := range sqlTemplates {
		for n := 1; n <= hotLimits; n++ {
			buf = appendLimit(buf, sqlTemplates[t], n)
			if _, _, err := b.d.cache.PlanInfo(string(buf)); err != nil {
				return fmt.Errorf("plan cache fill: %w", err)
			}
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0))
	for i := 0; i < pretrainObs; i++ {
		buf = appendLimit(buf, sqlTemplates[rng.IntN(len(sqlTemplates))], 1+rng.IntN(hotLimits))
		b.d.gate.Observe(string(buf), 1e-4*math.Exp(rng.NormFloat64()))
	}
	return nil
}

// each runs f on every client concurrently and returns their errors joined.
func (b *liveBench) each(f func(*client) error) error {
	errs := make([]error, len(b.clients))
	var wg sync.WaitGroup
	for i, c := range b.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			errs[i] = f(c)
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (b *liveBench) close() {
	for _, c := range b.clients {
		c.conn.Close()
	}
	if err := b.d.close(); err != nil {
		// A listener that fails to shut down cleanly is a daemon defect.
		fmt.Fprintln(stderr, "perfbench: daemon close:", err)
	}
}

// roundTrip sends the generator's next frame and checks the reply. It
// returns the ops carried, the round trip (write to decoded reply) in ns,
// the failed ops, and a connection error.
func (c *client) roundTrip(drain bool) (n int, rtt int64, failed int, err error) {
	ops := c.g.frame(drain)
	if len(ops) == 0 {
		return 0, 0, 0, nil
	}
	if c.buf, err = wire.EncodeRequest(c.buf, ops); err != nil {
		return len(ops), 0, len(ops), err
	}
	t0 := nanotime()
	if err = c.fc.WriteFrame(c.buf); err != nil {
		return len(ops), 0, len(ops), err
	}
	c.sent++
	payload, err := c.fc.ReadFrame()
	if err == nil {
		err = wire.DecodeResponse(payload, &c.res)
	}
	if err != nil {
		return len(ops), 0, len(ops), err
	}
	rtt = nanotime() - t0
	return len(ops), rtt, c.g.absorb(c.res.Results), nil
}

// measure runs frames until the deadline, booking each in the one-second
// window it ended in.
func (c *client) measure(start, deadline int64) {
	last := len(c.wins) - 1
	for {
		n, rtt, failed, err := c.roundTrip(false)
		now := nanotime()
		c.ops += int64(n)
		c.failed += int64(failed)
		if err != nil {
			c.err = err
			c.end = now
			return
		}
		c.frames++
		c.rttNS += rtt
		w := min(int((now-start)/int64(time.Second)), last)
		c.winOps[w] += int64(n)
		if len(c.wins[w]) < cap(c.wins[w]) {
			c.wins[w] = append(c.wins[w], uint32(min(rtt, math.MaxUint32)))
		}
		if now >= deadline {
			c.end = now
			return
		}
	}
}

// boundary is a reading taken at a window boundary: the clock and the
// process CPU time.
type boundary struct {
	at  int64
	cpu float64
}

func readBoundary() boundary { return boundary{at: nanotime(), cpu: cpuSeconds()} }

// sampleBoundaries reads the clock and the process CPU time at each interior
// one-second window boundary until stop closes; the caller reads the first
// and the last.
func sampleBoundaries(start int64, at []boundary, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for w := 1; w < len(at)-1; w++ {
		wait := time.Duration(start + int64(w)*int64(time.Second) - nanotime())
		select {
		case <-stop:
			return
		case <-time.After(wait):
			at[w] = readBoundary()
		}
	}
}

// counters are the program's own monotone counters, read before and after
// the measured phase.
type counters struct {
	recorded, overwritten uint64
	sloObserved           int64
	cache                 sqlmini.CacheStats
	retrains              int64
	rejected              int64
	rtm                   runtimeSample
}

func (b *liveBench) counters() counters {
	var c counters
	c.recorded, c.overwritten = b.d.rec.Recorded(), b.d.rec.Overwritten()
	for _, rp := range b.d.slo.Evaluate() {
		c.sloObserved += rp.Total
	}
	st := b.d.gate.Stats()
	c.cache, c.retrains = st.Cache, st.Retrains
	for _, cs := range b.d.rt.Snapshot() {
		c.rejected += cs.Rejected
	}
	c.rtm = readRuntime()
	return c
}

// sentFrames totals the frames every client has written.
func (b *liveBench) sentFrames() int64 {
	var n int64
	for _, c := range b.clients {
		n += c.sent
	}
	return n
}

// serverSpans waits until the traced server has booked every frame the
// clients sent, then snapshots its spans.
func (b *liveBench) serverSpans() (spans, error) {
	want := b.sentFrames()
	for deadline := time.Now().Add(5 * time.Second); ; {
		s := b.d.traced.snapshot()
		if s.frames >= want {
			return s, nil
		}
		if time.Now().After(deadline) {
			return s, fmt.Errorf("traced server booked %d of %d frames", s.frames, want)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// run measures for seconds, drains every grant and checks the invariants.
func (b *liveBench) run(seconds int, traced bool) (*outcome, error) {
	var s0 spans
	var err error
	if traced {
		if s0, err = b.serverSpans(); err != nil {
			return nil, err
		}
	}
	c0 := b.counters()
	nwin := len(b.clients[0].wins)
	at := make([]boundary, nwin+1)
	stop, sampled := make(chan struct{}), make(chan struct{})
	at[0] = readBoundary()
	start := at[0].at
	go sampleBoundaries(start, at, stop, sampled)
	deadline := start + int64(seconds)*int64(time.Second)
	_ = b.each(func(c *client) error { c.measure(start, deadline); return nil })
	var end int64
	for _, c := range b.clients {
		end = max(end, c.end)
	}
	close(stop)
	<-sampled
	at[nwin] = readBoundary()
	wall := float64(end-start) / 1e9
	var s1 spans
	if traced {
		if s1, err = b.serverSpans(); err != nil {
			return nil, err
		}
	}
	c1 := b.counters()

	o := &outcome{stamp: map[string]any{}}
	var rttNS, frames int64
	ws := make([]windowStats, nwin)
	for w := range ws {
		ws[w].seconds = float64(at[w+1].at-at[w].at) / 1e9
		ws[w].cpu = at[w+1].cpu - at[w].cpu
	}
	for _, c := range b.clients {
		o.attempted += c.ops
		o.failed += c.failed
		rttNS += c.rttNS
		frames += c.frames
		for w := range ws {
			ws[w].ops += c.winOps[w]
			for _, ns := range c.wins[w] {
				ws[w].lat = append(ws[w].lat, float64(ns))
			}
		}
		c.wins = nil
	}
	ops := float64(o.attempted)
	o.windowed(ws, 0.99)
	o.stamp["frames"] = frames
	o.stamp["latency_unit"] = "client frame round trip"

	// Drain: release what the last frames were given, then check that the
	// daemon holds nothing.
	for _, c := range b.clients {
		if c.err != nil {
			continue
		}
		n, _, failed, err := c.roundTrip(true)
		o.attempted += int64(n)
		o.failed += int64(failed)
		if err != nil {
			c.err = err
		}
	}
	if err := b.invariants(); err != nil {
		return o, err
	}
	o.e2e("heap_live_mb", heapLiveMB())

	if traced {
		s1.add(&s0, -1)
		layerMetrics(o, s1, c0, c1, wall, ops, float64(rttNS)/float64(frames)/1e3)
	}
	return o, nil
}

// invariants checks, after the drain: every client connection is healthy;
// per class, grants taken equal grants released, both as the clients saw
// them and as the runtime counted them; nothing is in the engine or queued;
// and no connection was dropped for a protocol error.
func (b *liveBench) invariants() error {
	var errs []error
	var took, gave [3]int64
	for i, c := range b.clients {
		if c.err != nil {
			errs = append(errs, fmt.Errorf("connection %d: %w", i, c.err))
		}
		for k := range took {
			took[k] += c.g.admitted[k]
			gave[k] += c.g.released[k]
		}
	}
	for k, cs := range b.d.rt.Snapshot() {
		if took[k] != gave[k] {
			errs = append(errs, fmt.Errorf("class %s: clients took %d grants, released %d", cs.Class, took[k], gave[k]))
		}
		if cs.Admitted != cs.Done {
			errs = append(errs, fmt.Errorf("class %s: runtime admitted %d, released %d", cs.Class, cs.Admitted, cs.Done))
		}
		if q := b.d.rt.QueueLen(rt.ClassID(k)); q != 0 {
			errs = append(errs, fmt.Errorf("class %s: %d waiters queued after drain", cs.Class, q))
		}
	}
	if n := b.d.rt.InEngine(); n != 0 {
		errs = append(errs, fmt.Errorf("InEngine() = %d after drain", n))
	}
	if n := b.d.protoErrors(); n != 0 {
		errs = append(errs, fmt.Errorf("%d connections dropped for protocol errors", n))
	}
	return errors.Join(errs...)
}

// layerMetrics fills the traced run's per-layer figures. The wire spans are
// per frame; the client round trip minus the server's decode, dispatch,
// encode and write spans is wire.unattributed_us (loopback, goroutine
// wake-ups and the client's reply decode).
func layerMetrics(o *outcome, s spans, c0, c1 counters, wall, ops, rttUS float64) {
	perFrameUS := func(k int) float64 { return s.sum[k].perNS() / 1e3 }
	server := perFrameUS(spanDecode) + perFrameUS(spanDispatch) + perFrameUS(spanEncode) + perFrameUS(spanWrite)
	perOpNS := func(k int) float64 { return float64(s.sum[k].ns) / float64(max(1, s.ops)) }
	o.layer("wire.rtt_us", rttUS)
	o.layer("wire.read_wait_us", perFrameUS(spanReadWait))
	o.layer("wire.decode_us", perFrameUS(spanDecode))
	o.layer("wire.dispatch_us", perFrameUS(spanDispatch))
	o.layer("wire.encode_us", perFrameUS(spanEncode))
	o.layer("wire.write_us", perFrameUS(spanWrite))
	o.layer("wire.unattributed_us", rttUS-server)
	o.layer("wire.decode_ns_per_op", perOpNS(spanDecode))
	o.layer("wire.encode_ns_per_op", perOpNS(spanEncode))
	o.layer("wire.ops_per_frame", float64(s.ops)/float64(max(1, s.frames)))
	o.layer("rt.admit_ns", s.sum[spanAdmit].perNS())
	o.layer("rt.done_ns", s.sum[spanDone].perNS())
	o.layer("rt.rejected_cost", float64(c1.rejected-c0.rejected))
	o.layer("rt.predict_admit_ns", s.sum[spanPredAdmit].perNS())
	o.layer("rt.predict_observe_ns", s.sum[spanPredObs].perNS())
	o.layer("obsv.events_per_op", float64(c1.recorded-c0.recorded)/ops)
	o.layer("obsv.overwritten_per_s", float64(c1.overwritten-c0.overwritten)/wall)
	o.layer("slo.observed_per_op", float64(c1.sloObserved-c0.sloObserved)/ops)
	hits, misses := c1.cache.Hits-c0.cache.Hits, c1.cache.Misses-c0.cache.Misses
	o.layer("sqlmini.plan_hit_ratio", ratio(hits, hits+misses))
	o.layer("sqlmini.plan_misses_per_s", float64(misses)/wall)
	o.layer("admission.retrains_per_s", float64(c1.retrains-c0.retrains)/wall)
	runtimeLayers(o, c0.rtm, c1.rtm, ops)
	o.stamp["traced_frames"] = s.frames
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
