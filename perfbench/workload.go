package main

import (
	"encoding/binary"
	"fmt"

	"streamtri/internal/exact"
	"streamtri/internal/gen"
	"streamtri/internal/graph"
	"streamtri/internal/randx"
)

// spec is one named workload: the tenant it creates, the graph it
// streams and the traffic it drives at trictd.
type spec struct {
	name string
	why  string

	// Tenant config (PUT body). window = 0 is a whole-stream tenant.
	r      int
	window uint64

	// Holme–Kim base graph; the stream is disjoint relabeled copies of it.
	baseN int

	// One closed-loop writer posts postEdges-edge bodies on one
	// connection; one open-loop reader GETs the estimate at readHz on a
	// second: two connections, one per CPU of the 2-CPU benchmark host.
	postEdges int
	readHz    float64

	// Fixed-work workloads (copies > 0) post copies × |base| edges per
	// cycle, with one POST /v1/checkpoint at the midpoint, and repeat
	// cycles until the run time is used. Duration-bounded ones post for
	// the run time, then checkpoint, post tailPosts more and stop.
	copies    int
	tailPosts int

	// recoveries is how many times each cycle relaunches trictd on the
	// killed data dir (recover_s is the median).
	recoveries int

	// errAt > 0 takes tri_rel_err at that stream position (a multiple of
	// postEdges) instead of at the end of the stream.
	errAt int
}

// Holme–Kim shape shared by every workload.
const (
	hkPerNode = 5
	hkTriad   = 0.5
	// tenantSeed is the counter seed of every tenant: the estimate is a
	// pure function of the workload seed's stream.
	tenantSeed = 1
)

var specs = []spec{
	{
		name: "bulk", r: 1024, baseN: 200_000, postEdges: 1 << 18, readHz: 200, copies: 10, recoveries: 2,
		why: "10M-edge ingest in 256k-edge POSTs: HTTP amortized, so core.AddBatch and the WAL block encoder dominate; also prices checkpoint restore plus WAL replay",
	},
	{
		name: "window", r: 256, window: 50_000, baseN: 60_000, postEdges: 2000, readHz: 12, tailPosts: 10, errAt: 100_000, recoveries: 15,
		why: "sliding-window tenant: window.Counter.AddBatch is nearly all the ingest time and every estimate GET waits for the in-flight POST",
	},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q (want bulk or window)", name)
}

// tiny shrinks a workload to a few seconds of work for the self-test,
// keeping its shape.
func (s spec) tiny() spec {
	s.baseN /= 20
	switch s.name {
	case "bulk":
		s.postEdges = 1 << 14
		s.copies = 4
	case "window":
		s.window = 5000
		s.errAt = 12_000
		s.tailPosts = 3
	}
	return s
}

// batchSize is the tenant's effective pipeline batch w (the server's
// default 8·r): the WAL block and AddBatch granularity.
func (s spec) batchSize() int { return 8 * s.r }

// inputs is a workload's generated stream: disjoint copies of one base
// graph, copy c relabeled by c·span, so every prefix is a simple stream
// whose exact triangle count needs one exact count of the base.
type inputs struct {
	base []graph.Edge
	span uint32 // node IDs of one copy lie in [0, span)
	tau0 uint64 // exact triangles of base
	seed uint64 // the workload seed, which also draws the reader's arrivals
}

func makeInputs(s spec, seed uint64) (*inputs, error) {
	base := gen.HolmeKim(randx.New(seed), s.baseN, hkPerNode, hkTriad)
	g, err := graph.FromEdges(base)
	if err != nil {
		return nil, fmt.Errorf("base graph: %w", err)
	}
	var maxID uint32
	for _, e := range base {
		maxID = max(maxID, e.U, e.V)
	}
	return &inputs{base: base, span: maxID + 1, tau0: exact.Triangles(g), seed: seed}, nil
}

func (in *inputs) edge(i int) graph.Edge {
	m := len(in.base)
	off := uint32(i/m) * in.span
	e := in.base[i%m]
	return graph.Edge{U: e.U + off, V: e.V + off}
}

// edges returns stream positions [lo, hi).
func (in *inputs) edges(lo, hi int) []graph.Edge {
	out := make([]graph.Edge, hi-lo)
	for i := range out {
		out[i] = in.edge(lo + i)
	}
	return out
}

// body encodes stream positions [lo, hi) in the plain 8-byte binary
// format as one POST body, appending to buf[:0].
func (in *inputs) body(lo, hi int, buf []byte) []byte {
	buf = buf[:0]
	for i := lo; i < hi; i++ {
		e := in.edge(i)
		buf = binary.LittleEndian.AppendUint32(buf, e.U)
		buf = binary.LittleEndian.AppendUint32(buf, e.V)
	}
	return buf
}

// exactPrefix is τ of stream positions [0, n): whole copies contribute
// τ0 each, the partial copy is counted exactly.
func (in *inputs) exactPrefix(n int) (uint64, error) {
	m := len(in.base)
	tau := uint64(n/m) * in.tau0
	if n%m == 0 {
		return tau, nil
	}
	part, err := exactOf(in.base[:n%m])
	return tau + part, err
}

// exactRange is τ of stream positions [lo, hi): a window's truth.
func (in *inputs) exactRange(lo, hi int) (uint64, error) {
	return exactOf(in.edges(lo, hi))
}

func exactOf(edges []graph.Edge) (uint64, error) {
	g, err := graph.FromEdges(edges)
	if err != nil {
		return 0, err
	}
	return exact.Triangles(g), nil
}
