package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

const tenantPath = "/v1/counters/t"

// setupLaunches is how many extra empty-dir launches a run times for
// setup_s, on top of one per cycle: half before the cycles, half after.
const setupLaunches = 16

// rateSlots is how many equal time slots a duration-bounded phase is
// cut into for its throughput median.
const rateSlots = 5

// runner drives one workload at trictd.
type runner struct {
	h      *harness
	sp     spec
	in     *inputs
	tl     *tally
	reqSeq atomic.Int64
	fixed  [][]byte // fixed-work workloads: one cycle's POST bodies, encoded once

	windowSpec spec // tenant config the window layer is priced at
}

func newRunner(h *harness, sp, windowSpec spec, in *inputs) *runner {
	r := &runner{h: h, sp: sp, windowSpec: windowSpec, in: in, tl: &tally{}}
	if sp.copies > 0 {
		total := sp.copies * len(in.base)
		for lo := 0; lo < total; lo += sp.postEdges {
			r.fixed = append(r.fixed, in.body(lo, min(lo+sp.postEdges, total), nil))
		}
	}
	return r
}

// cycleResult is one trictd lifetime: launch, timed ingest, kill,
// recovery.
type cycleResult struct {
	setup   time.Duration   // exec → -addr-file → tenant PUT acked
	ingest  time.Duration   // timed phase wall time, the bulk checkpoint POST excluded
	cpu     time.Duration   // trictd CPU time over the timed phase
	edges   int             // edges acked in the timed phase
	posts   int             // POSTs acked in the timed phase
	rates   []float64       // edges/s: whole phase, or per time slot when duration-bounded
	postLat []sample        // per POST, in completion order
	estLat  []sample        // per GET /estimate, from its due time, in completion order
	late    []float64       // ms the reader sent each GET after its due time
	recover []time.Duration // exec on the killed data dir → -addr-file, per relaunch
	rssMiB  float64         // VmHWM just before the kill
	relErr  float64
	acked   int    // every acked edge, tail included
	final   []byte // the estimate JSON read before the kill
	killed  string // copy of the data dir as SIGKILL left it (kept on request)
}

func (r *runner) tenantConfig() []byte {
	return []byte(fmt.Sprintf(`{"r":%d,"window":%d,"seed":%d}`, r.sp.r, r.sp.window, tenantSeed))
}

// startTenant launches trictd on dir and creates the workload's tenant;
// the duration is the setup_s sample.
func (r *runner) startTenant(dir string, rec *Recorder, parent int) (*daemon, time.Duration, error) {
	id := rec.Begin("daemon.setup", parent, -1)
	defer rec.End(id)
	start := time.Now()
	d, _, err := r.h.launch(dir)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(d.addr)
	defer c.close()
	status, body, err := c.do(http.MethodPut, tenantPath, r.tenantConfig())
	if !r.tl.check(err == nil && status == http.StatusCreated, "PUT tenant: status %d, err %v: %s", status, err, body) {
		if kerr := r.h.kill(d); kerr != nil {
			return nil, 0, kerr
		}
		return nil, 0, fmt.Errorf("creating the tenant failed")
	}
	return d, time.Since(start), nil
}

func (r *runner) setupSamples(n int, rec *Recorder) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		dir, err := r.h.newDir("setup")
		if err != nil {
			return nil, err
		}
		d, dur, err := r.startTenant(dir, rec, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, dur.Seconds())
		if err := r.h.kill(d); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// post sends one edge body and checks the ack: 200, edges equal to the
// body's, and (wantTotal > 0) the tenant's stream length.
func (r *runner) post(c *client, body []byte, wantTotal int, rec *Recorder, parent int) (time.Duration, bool) {
	id := rec.Begin("loadgen.post", parent, r.reqSeq.Add(1))
	start := time.Now()
	status, resp, err := c.do(http.MethodPost, tenantPath+"/edges", body)
	lat := time.Since(start)
	rec.End(id)
	rep, jerr := decodeReply[ingestReply](resp)
	want := uint64(len(body) / 8)
	ok := err == nil && status == http.StatusOK && jerr == nil && rep.Edges == want &&
		(wantTotal == 0 || rep.TotalEdges == uint64(wantTotal))
	return lat, r.tl.check(ok, "POST edges: status %d, err %v, reply %s (want edges %d, total %d)",
		status, err, bytes.TrimSpace(resp), want, wantTotal)
}

func (r *runner) checkpoint(c *client, rec *Recorder, parent int) bool {
	id := rec.Begin("loadgen.checkpoint", parent, r.reqSeq.Add(1))
	status, resp, err := c.do(http.MethodPost, "/v1/checkpoint", nil)
	rec.End(id)
	return r.tl.check(err == nil && status == http.StatusOK, "POST checkpoint: status %d, err %v: %s", status, err, resp)
}

// readEstimate reads the estimate and checks it reflects exactly
// wantEdges edges and, when same is non-nil, is byte-identical to it.
func (r *runner) readEstimate(c *client, wantEdges int, same []byte) ([]byte, estimateReply) {
	status, body, err := c.do(http.MethodGet, tenantPath+"/estimate", nil)
	est, jerr := decodeReply[estimateReply](body)
	ok := err == nil && status == http.StatusOK && jerr == nil && est.Edges == uint64(wantEdges) &&
		!math.IsNaN(est.Triangles) && (same == nil || bytes.Equal(body, same))
	r.tl.check(ok, "GET estimate: status %d, err %v, reply %s (want edges %d, identical to %s)",
		status, err, bytes.TrimSpace(body), wantEdges, bytes.TrimSpace(same))
	return body, est
}

// readLoop is the open-loop reader: GET /estimate due at rate readHz
// from the phase start, each timed from its due time, until stop. The
// gaps are drawn uniformly from ±25% of the period: a fixed period locks
// onto the writer's POST cadence and samples a few points of a POST's
// span, while Poisson gaps bunch reads behind one POST.
func (r *runner) readLoop(c *client, stop <-chan struct{}, rec *Recorder, parent int) (lat []sample, late []float64) {
	rng := rand.New(rand.NewPCG(r.in.seed, 0x7ead))
	period := float64(time.Second) / r.sp.readHz
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var last uint64
	start := time.Now()
	due := start
	for {
		due = due.Add(time.Duration(period * (0.75 + 0.5*rng.Float64())))
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		sent := time.Now()
		id := rec.Begin("loadgen.estimate", parent, r.reqSeq.Add(1))
		status, body, err := c.do(http.MethodGet, tenantPath+"/estimate", nil)
		rec.End(id)
		done := time.Now()
		lat = append(lat, sample{done.Sub(start), ms(done.Sub(due))})
		late = append(late, ms(sent.Sub(due)))
		est, jerr := decodeReply[estimateReply](body)
		r.tl.check(err == nil && status == http.StatusOK && jerr == nil && est.Edges >= last,
			"GET estimate during ingest: status %d, err %v, reply %s (edges went back from %d?)",
			status, err, bytes.TrimSpace(body), last)
		last = max(last, est.Edges)
	}
}

// cycle runs one trictd lifetime: launch on a fresh data dir, the timed
// ingest phase under the open-loop reader, SIGKILL after the last ack,
// relaunch on the same dir, and the recovery checks.
func (r *runner) cycle(phase time.Duration, rec *Recorder, keep bool) (res cycleResult, err error) {
	sp := r.sp
	cyc := rec.Begin("loadgen.cycle", 0, -1)
	defer rec.End(cyc)
	dir, err := r.h.newDir("data")
	if err != nil {
		return res, err
	}
	d, setup, err := r.startTenant(dir, rec, cyc)
	if err != nil {
		return res, err
	}
	defer func() {
		if d != nil {
			if kerr := r.h.kill(d); kerr != nil && err == nil {
				err = kerr
			}
		}
	}()
	res.setup = setup

	c := newClient(d.addr)
	defer c.close()
	reader := newClient(d.addr)
	defer reader.close()

	cpu0, err := d.cpuTime()
	if err != nil {
		return res, err
	}
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	var estLat []sample
	var late []float64
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		defer r.h.guard()
		estLat, late = r.readLoop(reader, stop, rec, cyc)
	}()
	start := time.Now()
	var claimed int
	var errRead estimateReply
	if sp.copies > 0 {
		ckpt := r.postFixed(c, start, &res, rec, cyc)
		res.acked = res.edges
		res.ingest = time.Since(start) - ckpt
		res.rates = []float64{float64(res.edges) / res.ingest.Seconds()}
	} else {
		claimed, errRead = r.postFor(c, start, phase, &res, rec, cyc)
		res.acked = claimed * sp.postEdges
	}
	cpu1, err := d.cpuTime()
	close(stop)
	rwg.Wait()
	if err != nil {
		return res, err
	}
	res.cpu = cpu1 - cpu0
	res.estLat, res.late = estLat, late

	if sp.copies == 0 {
		// Bound recovery work independently of the measured rate:
		// checkpoint, then a fixed tail the restart must replay.
		r.checkpoint(c, rec, cyc)
		buf := make([]byte, 0, 8*sp.postEdges)
		for k := claimed; k < claimed+sp.tailPosts; k++ {
			buf = r.in.body(k*sp.postEdges, (k+1)*sp.postEdges, buf)
			if _, ok := r.post(c, buf, (k+1)*sp.postEdges, rec, cyc); !ok {
				break
			}
			res.acked += sp.postEdges
		}
	}
	final, est := r.readEstimate(c, res.acked, nil)
	res.final = final
	if res.rssMiB, err = d.peakRSSMiB(); err != nil {
		return res, err
	}

	id := rec.Begin("daemon.kill", cyc, -1)
	err = r.h.kill(d)
	d = nil
	rec.End(id)
	if err != nil {
		return res, err
	}
	if keep {
		if res.killed, err = r.h.newDir("killed"); err != nil {
			return res, err
		}
		if err = os.CopyFS(res.killed, os.DirFS(dir)); err != nil {
			return res, err
		}
	}
	// Recovery does not write to the data dir, so every relaunch replays
	// the same checkpoint and WAL tail; each must reproduce the estimate.
	for i := 0; i < sp.recoveries; i++ {
		if d != nil {
			if err = r.h.kill(d); err != nil {
				return res, err
			}
			d = nil
		}
		id = rec.Begin("daemon.recover", cyc, -1)
		var took time.Duration
		d, took, err = r.h.launch(dir)
		rec.End(id)
		if err != nil {
			return res, err
		}
		res.recover = append(res.recover, took)
		rc := newClient(d.addr)
		r.readEstimate(rc, res.acked, final)
		rc.close()
	}

	// Accuracy against internal/exact at a fixed stream position.
	var tau uint64
	if sp.errAt > 0 {
		tau, err = r.in.exactRange(sp.errAt-int(sp.window), sp.errAt)
		est = errRead
	} else {
		tau, err = r.in.exactPrefix(res.acked)
	}
	if err != nil {
		return res, err
	}
	res.relErr = math.Abs(est.Triangles-float64(tau)) / float64(tau)
	r.tl.check(tau > 0 && !math.IsNaN(res.relErr) && !math.IsInf(res.relErr, 0),
		"tri_rel_err undefined: estimate %v, exact %d", est.Triangles, tau)
	if err = r.h.kill(d); err != nil {
		return res, err
	}
	d = nil
	return res, os.RemoveAll(dir)
}

// postFixed posts one cycle's fixed bodies in order on one connection,
// with an explicit checkpoint at the midpoint. It returns how long the
// checkpoint took: its fsyncs measure the disk, so the ingest time
// leaves it out.
func (r *runner) postFixed(c *client, start time.Time, res *cycleResult, rec *Recorder, parent int) (ckpt time.Duration) {
	for k, b := range r.fixed {
		if k == len(r.fixed)/2 {
			t := time.Now()
			ok := r.checkpoint(c, rec, parent)
			ckpt = time.Since(t)
			if !ok {
				return ckpt
			}
		}
		lat, ok := r.post(c, b, res.edges+len(b)/8, rec, parent)
		res.postLat = append(res.postLat, sample{time.Since(start), ms(lat)})
		if !ok {
			return ckpt
		}
		res.posts++
		res.edges += len(b) / 8
	}
	return ckpt
}

// postFor runs the closed-loop writer for the phase, posting the stream
// in order. It returns the bodies posted and, for errAt workloads, the
// estimate read when the stream reached errAt.
func (r *runner) postFor(c *client, start time.Time, phase time.Duration, res *cycleResult, rec *Recorder, parent int) (int, estimateReply) {
	pe := r.sp.postEdges
	end := start.Add(phase)
	var errRead estimateReply
	buf := make([]byte, 0, 8*pe)
	k := 0
	for time.Now().Before(end) {
		buf = r.in.body(k*pe, (k+1)*pe, buf)
		lat, ok := r.post(c, buf, (k+1)*pe, rec, parent)
		res.postLat = append(res.postLat, sample{time.Since(start), ms(lat)})
		if !ok {
			break
		}
		k++
		if k*pe == r.sp.errAt {
			_, errRead = r.readEstimate(c, r.sp.errAt, nil)
		}
	}
	res.ingest = time.Since(start)
	res.posts = k
	res.edges = k * pe
	// Throughput per time slot: the median over slots is steady against
	// a slow spell of the machine shorter than half the phase.
	slot := res.ingest / rateSlots
	counts := make([]int, rateSlots)
	for _, s := range res.postLat {
		counts[min(int(s.at/slot), rateSlots-1)]++
	}
	for _, n := range counts {
		res.rates = append(res.rates, float64(n*pe)/slot.Seconds())
	}
	if r.sp.errAt > 0 && k*pe < r.sp.errAt {
		r.tl.check(false, "stream ended at %d edges, before the tri_rel_err position %d", k*pe, r.sp.errAt)
	}
	return k, errRead
}

// e2eResult is every cycle of one run plus the setup samples.
type e2eResult struct {
	setup  []float64 // s
	cycles []cycleResult
}

// runE2E times setup, then repeats cycles: fixed-work workloads until
// the run time is used, duration-bounded ones once for the run time.
func (r *runner) runE2E(seconds time.Duration, rec *Recorder, keep bool) (e2eResult, error) {
	var res e2eResult
	setup, err := r.setupSamples(setupLaunches/2, rec)
	if err != nil {
		return res, err
	}
	res.setup = setup
	start := time.Now()
	for {
		c, err := r.cycle(seconds, rec, keep)
		if err != nil {
			return res, err
		}
		if n := len(res.cycles); n > 0 && res.cycles[n-1].killed != "" {
			if err := os.RemoveAll(res.cycles[n-1].killed); err != nil {
				return res, err
			}
		}
		if len(res.cycles) > 0 {
			// Same stream, same batch boundaries, same seed: every fresh
			// trictd must end on the same estimate.
			r.tl.check(bytes.Equal(c.final, res.cycles[0].final),
				"cycle %d ended on estimate %s, cycle 1 on %s", len(res.cycles)+1, c.final, res.cycles[0].final)
		}
		res.cycles = append(res.cycles, c)
		res.setup = append(res.setup, c.setup.Seconds())
		if r.sp.copies == 0 || r.tl.failed.Load() > 0 {
			break
		}
		if per := time.Since(start) / time.Duration(len(res.cycles)); time.Since(start)+per > seconds {
			break
		}
	}
	setup, err = r.setupSamples(setupLaunches/2, rec)
	res.setup = append(res.setup, setup...)
	return res, err
}

func pooled[T any](e e2eResult, f func(c cycleResult) []T) []T {
	var out []T
	for _, c := range e.cycles {
		out = append(out, f(c)...)
	}
	return out
}

// metrics computes the end-to-end metrics. Each is a median over
// repeats, so a slow spell of the machine moves it only if it covers
// half the repeats: launches for setup_s, relaunches for recover_s,
// cycles or time slots for throughput, and slots of consecutive samples
// for the latency percentiles (see slotQuantile).
func (e e2eResult) metrics() map[string]float64 {
	postLat := pooled(e, func(c cycleResult) []sample { return c.postLat })
	estLat := pooled(e, func(c cycleResult) []sample { return c.estLat })
	rate := median(pooled(e, func(c cycleResult) []float64 { return c.rates }))
	var recover []float64
	for _, d := range pooled(e, func(c cycleResult) []time.Duration { return c.recover }) {
		recover = append(recover, d.Seconds())
	}
	var rss []float64
	var cpu time.Duration
	edges := 0
	for _, c := range e.cycles {
		rss = append(rss, c.rssMiB)
		cpu += c.cpu
		edges += c.edges
	}
	c0 := e.cycles[0]
	return map[string]float64{
		"setup_s":                median(e.setup),
		"ingest_edges_per_s":     rate,
		"posts_per_s":            rate * float64(c0.posts) / float64(c0.edges),
		"ingest_cpu_ns_per_edge": float64(cpu) / float64(edges),
		"post_p50_ms":            slotQuantile(postLat, 0.5),
		"post_p99_ms":            slotQuantile(postLat, 0.99),
		"estimate_p50_ms":        slotQuantile(estLat, 0.5),
		"estimate_p99_ms":        slotQuantile(estLat, 0.99),
		"recover_s":              median(recover),
		"peak_rss_mb":            median(rss),
	}
}
