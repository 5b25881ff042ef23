package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"streamtri"
	"streamtri/internal/core"
	"streamtri/internal/graph"
	"streamtri/internal/serve"
	"streamtri/internal/stream"
	"streamtri/internal/window"
)

// perLayer are the metrics of a traced run (BENCHMARK.json per_layer).
// Every workload reports all of them, each priced on that workload's
// own POST bodies.
var perLayer = []metricDef{
	{"stream.decode_ns_per_edge", "ns/edge"},
	{"stream.walblock_ns_per_edge", "ns/edge"},
	{"stream.walread_ns_per_edge", "ns/edge"},
	{"stream.pipeline_us_per_post", "us"},
	{"stream.pipeline_bytes_per_post", "B"},
	{"stream.pipeline_allocs_per_post", "count"},
	{"stream.batches", "count"},
	{"core.addbatch_ns_per_edge", "ns/edge"},
	{"core.addbatch_us_per_post", "us"},
	{"core.parallel_us_per_batch", "us"},
	{"core.snapshot_read_ns", "ns"},
	{"window.addbatch_ns_per_edge", "ns/edge"},
	{"window.estimate_us", "us"},
	{"window.mean_chain_len", "count"},
	{"serve.walwrite_ns_per_edge", "ns/edge"},
	{"serve.fsync_ms_p50", "ms"},
	{"serve.fsync_ms_p99", "ms"},
	{"serve.handler_ingest_us_per_post", "us"},
	{"serve.handler_estimate_us", "us"},
	{"serve.checkpoint_s", "s"},
	{"serve.checkpoint_bytes", "B"},
	{"serve.recover_s", "s"},
	{"serve.residual_frac", "ratio"},
	{"loadgen.edges", "count"},
	{"loadgen.posts", "count"},
	{"loadgen.reads", "count"},
	{"loadgen.post_p99_ms", "ms"},
	{"loadgen.estimate_p99_ms", "ms"},
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.late_ms_max", "ms"},
	{"loadgen.trace_overhead_s", "s"},
	{"loadgen.spans", "count"},
	{"accuracy.tri_rel_err", "ratio"},
}

// Pricing sample sizes: enough calls for a stable mean, few enough that
// a traced run stays well inside its time limit.
const (
	pricePosts    = 2000 // POST bodies priced per layer (bulk prices its whole stream)
	handlerPosts  = 1000 // POSTs sent through the in-process handler
	fsyncPosts    = 500  // request blocks appended and fsynced
	estimateCalls = 200
	snapshotReads = 200_000
)

// traced is the -trace 1 run: an untraced end-to-end run, the same run
// traced, then each layer priced on the workload's inputs. It prints the
// layer report and returns the per-layer metrics.
func (r *runner) traced(seconds time.Duration, o options, w io.Writer) (map[string]float64, error) {
	plain, err := r.runE2E(seconds, nil, false)
	if err != nil {
		return nil, err
	}
	rec := NewRecorder()
	tr, err := r.runE2E(seconds, rec, true)
	if err != nil {
		return nil, err
	}
	last := tr.cycles[len(tr.cycles)-1]
	p := &pricer{r: r, rec: rec, root: rec.Begin("layers", 0, -1), m: make(map[string]float64)}
	err = p.price(last)
	rec.End(p.root)
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(last.killed); err != nil {
		return nil, err
	}

	m := p.m
	m["loadgen.edges"] = float64(last.acked)
	m["loadgen.posts"] = float64(len(last.postLat) + r.sp.tailPosts)
	m["loadgen.reads"] = float64(len(last.estLat))
	m["stream.batches"] = float64(r.batchesOf(last.acked))
	late := pooled(tr, func(c cycleResult) []float64 { return c.late })
	m["loadgen.late_ms_p99"] = quantile(late, 0.99)
	m["loadgen.late_ms_max"] = quantile(late, 1)
	m["accuracy.tri_rel_err"] = last.relErr
	pm := plain.metrics()
	m["loadgen.post_p99_ms"] = pm["post_p99_ms"]
	m["loadgen.estimate_p99_ms"] = pm["estimate_p99_ms"]

	// Tracing overhead: the extra time the traced run needs for the
	// untraced run's work.
	ref := medianCycle(plain)
	rate := func(e e2eResult) float64 { return e.metrics()["ingest_edges_per_s"] }
	m["loadgen.trace_overhead_s"] = float64(ref.edges) * (1/rate(tr) - 1/rate(plain))

	rows, total := p.layerRows(ref)
	e2e := ref.ingest.Seconds()
	m["serve.residual_frac"] = 1 - total/e2e
	m["loadgen.spans"] = float64(rec.Len())

	fmt.Fprintf(w, "layer report (%s): end-to-end = untraced timed phase, %d edges in %d POSTs\n", r.sp.name, ref.edges, ref.posts)
	fmt.Fprintf(w, "  %-22s %10.4f s\n", "end-to-end", e2e)
	for _, row := range rows {
		fmt.Fprintf(w, "  %-22s %10.4f s %6.1f%%\n", row.name, row.s, 100*row.s/e2e)
	}
	fmt.Fprintf(w, "  %-22s %10.4f s %6.1f%%\n", "sum of layers", total, 100*total/e2e)
	fmt.Fprintf(w, "  %-22s %10.4f s %6.1f%%  (HTTP transport and handlers, JSON, goroutine hand-offs, idle;\n", "residual", e2e-total, 100*(1-total/e2e))
	fmt.Fprintf(w, "  %-22s %10s    %6s   negative when layers on the decoder goroutine overlap AddBatch)\n", "", "", "")
	fmt.Fprintf(w, "  %-22s %+10.4f s  (traced minus untraced, same work)\n", "tracing overhead", m["loadgen.trace_overhead_s"])
	fmt.Fprintf(w, "  not on this path: fsync, p50 %.3f ms per request under -wal-sync always (%.4f s for these POSTs)\n",
		m["serve.fsync_ms_p50"], m["serve.fsync_ms_p50"]*float64(ref.posts)/1e3)
	fmt.Fprintf(w, "  client POST p50 %.3f ms vs in-process handler %.3f ms: the gap is loopback + HTTP transport\n",
		median(values(ref.postLat)), m["serve.handler_ingest_us_per_post"]/1e3)

	if err := os.MkdirAll(filepath.Join(o.work, "traces"), 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(o.work, "traces", fmt.Sprintf("%s-seed%d.jsonl", r.sp.name, o.seed))
	if err := rec.WriteFile(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "trace: %d spans written to %s\n", rec.Len(), path)
	return m, nil
}

// medianCycle is the cycle with the median ingest time.
func medianCycle(e e2eResult) cycleResult {
	cs := append([]cycleResult(nil), e.cycles...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].ingest < cs[j].ingest })
	return cs[len(cs)/2]
}

// batchesOf counts the pipeline batches a stream prefix of n edges took:
// each POST body is cut into batches of the tenant's batch size.
func (r *runner) batchesOf(n int) int {
	pe, w := r.sp.postEdges, r.sp.batchSize()
	full := n / pe
	b := full * ((pe + w - 1) / w)
	if rest := n % pe; rest > 0 {
		b += (rest + w - 1) / w
	}
	return b
}

// pricer times calls into each layer's public functions on the
// workload's POST bodies, one span per call, and derives the per-layer
// metrics from the span totals.
type pricer struct {
	r    *runner
	rec  *Recorder
	root int
	m    map[string]float64
}

// posts returns the priced POST bodies: the whole fixed stream, or the
// first pricePosts bodies the duration-bounded run posted.
func (p *pricer) posts() [][]byte {
	if p.r.fixed != nil {
		return p.r.fixed
	}
	sp := p.r.sp
	n := pricePosts
	if sp.window > 0 {
		n = int(5*sp.window/2) / sp.postEdges // 2.5 windows: past the fill-up
	}
	out := make([][]byte, n)
	for k := range out {
		out[k] = p.r.in.body(k*sp.postEdges, (k+1)*sp.postEdges, nil)
	}
	return out
}

// batches cuts body into the pipeline batches the server would AddBatch.
func batches(edges []graph.Edge, w int) [][]graph.Edge {
	var out [][]graph.Edge
	for lo := 0; lo < len(edges); lo += w {
		out = append(out, edges[lo:min(lo+w, len(edges))])
	}
	return out
}

func decodeBody(b []byte) []graph.Edge {
	es := make([]graph.Edge, len(b)/8)
	n, _ := stream.NewBinarySource(bytes.NewReader(b)).Fill(es)
	return es[:n]
}

// timed runs fn inside a span and returns its duration.
func (p *pricer) timed(name string, req int64, fn func()) time.Duration {
	id := p.rec.Begin(name, p.root, req)
	start := time.Now()
	fn()
	d := time.Since(start)
	p.rec.End(id)
	return d
}

func (p *pricer) total(name string) float64 {
	return p.rec.Total(name).Seconds()
}

func (p *pricer) price(last cycleResult) error {
	posts := p.posts()
	for _, f := range []func([][]byte) error{p.decodeAndWAL, p.pipeline, p.core, p.window, p.fsync, p.handler} {
		if err := f(posts); err != nil {
			return err
		}
	}
	return p.recovery(last)
}

// decodeAndWAL prices BinarySource.Fill over each body and the WAL's
// block encoder (AppendEdgeBlock, one block per pipeline batch).
func (p *pricer) decodeAndWAL(posts [][]byte) error {
	w := p.r.sp.batchSize()
	buf := make([]graph.Edge, w)
	bw := stream.NewBlockWriter(io.Discard)
	edges := 0
	for i, b := range posts {
		var ferr error
		p.timed("stream.decode", int64(i), func() {
			src := stream.NewBinarySource(bytes.NewReader(b))
			for {
				n, err := src.Fill(buf)
				edges += n
				if err != nil {
					if err != io.EOF {
						ferr = err
					}
					return
				}
			}
		})
		if ferr != nil {
			return fmt.Errorf("decoding body %d: %w", i, ferr)
		}
		for _, batch := range batches(decodeBody(b), w) {
			p.timed("stream.walblock", int64(i), func() { ferr = bw.AppendEdgeBlock(batch) })
			if ferr != nil {
				return ferr
			}
		}
	}
	p.m["stream.decode_ns_per_edge"] = p.total("stream.decode") * 1e9 / float64(edges)
	p.m["stream.walblock_ns_per_edge"] = p.total("stream.walblock") * 1e9 / float64(edges)
	return nil
}

type discardSink struct{}

func (discardSink) AddBatchAsync([]graph.Edge) {}
func (discardSink) Barrier()                   {}

// pipeline prices one POST's NewPipeline + drain into a discard sink:
// time, bytes and allocations per body.
func (p *pricer) pipeline(posts [][]byte) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, b := range posts {
		var err error
		p.timed("stream.pipeline", int64(i), func() {
			var pl *stream.Pipeline
			if pl, err = stream.NewPipeline(context.Background(), stream.NewBinarySource(bytes.NewReader(b)), p.r.sp.batchSize(), 0); err != nil {
				return
			}
			if _, err = pl.Drain(discardSink{}); err == nil {
				err = pl.Close()
			}
		})
		if err != nil {
			return fmt.Errorf("pipeline over body %d: %w", i, err)
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(len(posts))
	p.m["stream.pipeline_us_per_post"] = p.total("stream.pipeline") * 1e6 / n
	p.m["stream.pipeline_bytes_per_post"] = float64(after.TotalAlloc-before.TotalAlloc) / n
	p.m["stream.pipeline_allocs_per_post"] = float64(after.Mallocs-before.Mallocs) / n
	return nil
}

// snapshotSink keeps the snapshot reads observable to the compiler.
var snapshotSink streamtri.EstimateSnapshot

// core prices core.Counter.AddBatch over the workload's batch sequence
// and, interleaved batch by batch, the p=1 ParallelTriangleCounter every
// whole-stream tenant runs (AddBatch + Flush); the difference is the
// shard hand-off.
func (p *pricer) core(posts [][]byte) error {
	sp := p.r.sp
	c := core.NewCounter(sp.r, tenantSeed)
	pc := streamtri.NewParallelTriangleCounter(sp.r, 1, streamtri.WithSeed(tenantSeed))
	defer pc.Close()
	edges, nb := 0, 0
	for i, b := range posts {
		for _, batch := range batches(decodeBody(b), sp.batchSize()) {
			p.timed("core.addbatch", int64(i), func() { c.AddBatch(batch) })
			p.timed("core.parallel", int64(i), func() { pc.AddBatch(batch); pc.Flush() })
			edges += len(batch)
			nb++
		}
	}
	if c.Edges() != uint64(edges) || pc.Edges() != uint64(edges) {
		return fmt.Errorf("core counters absorbed %d / %d edges, want %d", c.Edges(), pc.Edges(), edges)
	}
	add := p.total("core.addbatch")
	p.m["core.addbatch_ns_per_edge"] = add * 1e9 / float64(edges)
	p.m["core.addbatch_us_per_post"] = add * 1e6 / float64(len(posts))
	p.m["core.parallel_us_per_batch"] = (p.total("core.parallel") - add) * 1e6 / float64(nb)
	d := p.timed("core.snapshot", -1, func() {
		for i := 0; i < snapshotReads; i++ {
			snapshotSink = pc.Snapshot()
		}
	})
	p.m["core.snapshot_read_ns"] = float64(d.Nanoseconds()) / snapshotReads
	return nil
}

// window prices the sliding-window counter, at the window workload's
// tenant config, on this workload's first 2.5 windows of edges.
func (p *pricer) window(posts [][]byte) error {
	ws := p.r.windowSpec
	limit := int(5 * ws.window / 2)
	wc := window.NewCounter(ws.r, ws.window, tenantSeed)
	edges := 0
	for i, b := range posts {
		if edges >= limit {
			break
		}
		for _, batch := range batches(decodeBody(b), ws.batchSize()) {
			p.timed("window.addbatch", int64(i), func() { wc.AddBatch(batch) })
			edges += len(batch)
		}
	}
	var est float64
	d := p.timed("window.estimate", -1, func() {
		for i := 0; i < estimateCalls; i++ {
			est += wc.EstimateTriangles()
		}
	})
	if est < 0 {
		return fmt.Errorf("window estimate %v < 0", est)
	}
	p.m["window.addbatch_ns_per_edge"] = p.total("window.addbatch") * 1e9 / float64(edges)
	p.m["window.estimate_us"] = float64(d.Microseconds()) / estimateCalls
	p.m["window.mean_chain_len"] = wc.MeanChainLength()
	return nil
}

// fsync prices the WAL's write (serve.walwrite): append one request's
// blocks to a file in this run's scratch dir. It also times the File.Sync
// that -wal-sync always would add to each request (serve.fsync), which
// the harness keeps off the timed path.
func (p *pricer) fsync(posts [][]byte) error {
	dir, err := p.r.h.newDir("fsync")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	f, err := os.Create(filepath.Join(dir, "probe.wal"))
	if err != nil {
		return err
	}
	defer f.Close()
	var blocks bytes.Buffer
	bw := stream.NewBlockWriter(&blocks)
	edges := 0
	for i, b := range posts[:min(len(posts), fsyncPosts)] {
		blocks.Reset()
		es := decodeBody(b)
		for _, batch := range batches(es, p.r.sp.batchSize()) {
			if err := bw.AppendEdgeBlock(batch); err != nil {
				return err
			}
		}
		edges += len(es)
		var werr error
		p.timed("serve.walwrite", int64(i), func() { _, werr = f.Write(blocks.Bytes()) })
		if werr == nil {
			p.timed("serve.fsync", int64(i), func() { werr = f.Sync() })
		}
		if werr != nil {
			return werr
		}
	}
	var syncs []float64
	for _, d := range p.rec.Durations("serve.fsync") {
		syncs = append(syncs, ms(d))
	}
	p.m["serve.walwrite_ns_per_edge"] = p.total("serve.walwrite") * 1e9 / float64(edges)
	p.m["serve.fsync_ms_p50"] = quantile(syncs, 0.5)
	p.m["serve.fsync_ms_p99"] = quantile(syncs, 0.99)
	return f.Close()
}

// serverOptions are the in-process server's options: trictd's flags as
// the harness launches it (see launch).
var serverOptions = []serve.ServerOption{
	serve.WithWALSyncPolicy(serve.FsyncNone),
	serve.WithLogf(func(string, ...any) {}),
}

// handler prices serve.Server.Handler in process (httptest, no socket)
// with trictd's options: ingest of the workload's bodies (bulk: its
// first half), a CheckpointAll at that state, and estimate reads.
func (p *pricer) handler(posts [][]byte) error {
	dir, err := p.r.h.newDir("inproc")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srv, err := serve.NewServer(dir, serverOptions...)
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	serveReq := func(method, path string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		if method == http.MethodPost {
			req.Header.Set("Content-Type", "application/octet-stream")
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr
	}
	if rr := serveReq(http.MethodPut, tenantPath, p.r.tenantConfig()); rr.Code != http.StatusCreated {
		return fmt.Errorf("in-process PUT: %d %s", rr.Code, rr.Body)
	}
	n := min(len(posts), handlerPosts)
	if p.r.fixed != nil {
		n = len(posts) / 2 // the bulk midpoint, where the run checkpoints
	}
	for i, b := range posts[:n] {
		var rr *httptest.ResponseRecorder
		p.timed("serve.handler_ingest", int64(i), func() { rr = serveReq(http.MethodPost, tenantPath+"/edges", b) })
		if rr.Code != http.StatusOK {
			return fmt.Errorf("in-process POST %d: %d %s", i, rr.Code, rr.Body)
		}
	}
	var ck int
	d := p.timed("serve.checkpoint", -1, func() { ck, err = srv.CheckpointAll() })
	if err != nil || ck != 1 {
		return fmt.Errorf("in-process checkpoint: %d tenants, %v", ck, err)
	}
	gens, err := filepath.Glob(filepath.Join(dir, "t.ckpt.*"))
	if err != nil || len(gens) == 0 {
		return fmt.Errorf("no checkpoint generation written (%v)", err)
	}
	sort.Strings(gens)
	fi, err := os.Stat(gens[len(gens)-1])
	if err != nil {
		return err
	}
	for i := 0; i < estimateCalls; i++ {
		var rr *httptest.ResponseRecorder
		p.timed("serve.handler_estimate", int64(i), func() { rr = serveReq(http.MethodGet, tenantPath+"/estimate", nil) })
		if rr.Code != http.StatusOK {
			return fmt.Errorf("in-process estimate: %d %s", rr.Code, rr.Body)
		}
	}
	p.m["serve.handler_ingest_us_per_post"] = p.total("serve.handler_ingest") * 1e6 / float64(n)
	p.m["serve.handler_estimate_us"] = p.total("serve.handler_estimate") * 1e6 / estimateCalls
	p.m["serve.checkpoint_s"] = d.Seconds()
	p.m["serve.checkpoint_bytes"] = float64(fi.Size())
	return nil
}

// recovery reads the killed run's WAL segments with the block decoder
// (stream.walread), then recovers a server from that directory in
// process (serve.recover) and checks it reports every acked edge with a
// byte-identical estimate.
func (p *pricer) recovery(last cycleResult) error {
	segs, err := filepath.Glob(filepath.Join(last.killed, "t.wal.*"))
	if err != nil {
		return err
	}
	sort.Strings(segs)
	var buf []graph.Edge
	edges := 0
	for i, path := range segs {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		p.timed("stream.walread", int64(i), func() {
			src := stream.NewBlockBinarySource(f)
			for {
				if buf, err = src.NextEdgeBlock(buf); err != nil {
					return
				}
				edges += len(buf)
			}
		})
		f.Close()
		if err != io.EOF {
			return fmt.Errorf("reading WAL segment %s: %w", filepath.Base(path), err)
		}
	}
	if edges == 0 {
		return fmt.Errorf("killed data dir holds no WAL edges (%d segments)", len(segs))
	}
	p.m["stream.walread_ns_per_edge"] = p.total("stream.walread") * 1e9 / float64(edges)

	var srv *serve.Server
	d := p.timed("serve.recover", -1, func() { srv, err = serve.NewServer(last.killed, serverOptions...) })
	if err != nil {
		return fmt.Errorf("in-process recovery: %w", err)
	}
	defer srv.Close()
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, tenantPath+"/estimate", nil))
	p.r.tl.check(rr.Code == http.StatusOK && bytes.Equal(rr.Body.Bytes(), last.final),
		"in-process recovery estimate %q, want %q", rr.Body.Bytes(), last.final)
	p.m["serve.recover_s"] = d.Seconds()
	return nil
}

type layerRow struct {
	name string
	s    float64
}

// layerRows prices the untraced cycle's work layer by layer: per-edge
// and per-call costs times the edges, POSTs and batches it ingested,
// for the layers on this workload's path.
func (p *pricer) layerRows(ref cycleResult) ([]layerRow, float64) {
	m, sp := p.m, p.r.sp
	e, n := float64(ref.edges), float64(ref.posts)
	decode := m["stream.decode_ns_per_edge"] * e / 1e9
	rows := []layerRow{
		{"stream.decode", decode},
		{"stream.pipeline_handoff", m["stream.pipeline_us_per_post"]*n/1e6 - decode},
		{"stream.walblock", m["stream.walblock_ns_per_edge"] * e / 1e9},
		{"serve.walwrite", m["serve.walwrite_ns_per_edge"] * e / 1e9},
	}
	if sp.window > 0 {
		rows = append(rows, layerRow{"window.addbatch", m["window.addbatch_ns_per_edge"] * e / 1e9})
	} else {
		rows = append(rows,
			layerRow{"core.addbatch", m["core.addbatch_ns_per_edge"] * e / 1e9},
			layerRow{"core.parallel", m["core.parallel_us_per_batch"] * float64(p.r.batchesOf(ref.edges)) / 1e6})
	}
	if sp.copies > 0 {
		rows = append(rows, layerRow{"serve.checkpoint", m["serve.checkpoint_s"]})
	}
	total := 0.0
	for _, r := range rows {
		total += r.s
	}
	return rows, total
}
