// Command perfbench is the served-path benchmark: it launches the real
// trictd binary as a child process, drives one named workload at it over
// loopback, checks every reply, and prints the end-to-end metrics. With
// -trace 1 it instead prices each layer (stream, core, window, serve) by
// calling its public functions on the workload's exact inputs, and
// prints the per-layer metrics and a layer report.
//
// Run it through run.sh, which builds both binaries from source:
//
//	bash perfbench/run.sh --workload bulk --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. Any failed check makes the exit
// status non-zero.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// runTimeout aborts a run, killing trictd, inside the 180 s a run may
// take.
const runTimeout = 170 * time.Second

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (BENCHMARK.json end_to_end).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_edges_per_s", "edges/s"},
	{"posts_per_s", "req/s"},
	{"ingest_cpu_ns_per_edge", "ns/edge"},
	{"post_p50_ms", "ms"},
	{"estimate_p50_ms", "ms"},
	{"recover_s", "s"},
	{"peak_rss_mb", "MiB"},
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	trictd   string
	work     string
	tiny     bool
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: bulk or window")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: generates the graph stream")
	fs.IntVar(&o.seconds, "seconds", 15, "measured run time in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&o.trictd, "trictd", "", "trictd binary to launch")
	fs.StringVar(&o.work, "work", ".bench_build", "directory for scratch data dirs and trace files")
	fs.BoolVar(&o.tiny, "tiny", false, "shrink the inputs to a few seconds of work (self-test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := o.validate(fs); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := bench(o, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func (o options) validate(fs *flag.FlagSet) error {
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, err := findSpec(o.workload); err != nil {
		return err
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be >= 1, got %d", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.trictd == "" {
		return errors.New("-trictd is required (run.sh builds and passes it)")
	}
	return nil
}

// errChecksFailed reports a run whose result line was printed with
// correct=false.
var errChecksFailed = errors.New("correctness checks failed")

func bench(o options, stdout, stderr io.Writer) error {
	sp, _ := findSpec(o.workload)
	ws, _ := findSpec("window")
	if o.tiny {
		sp, ws = sp.tiny(), ws.tiny()
	}
	h, err := newHarness(o.trictd, o.work)
	if err != nil {
		return err
	}
	defer h.cleanup()
	stopWatch := watchdog(h, runTimeout, stderr)
	defer stopWatch()

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	fmt.Fprintf(out, "env: %s workload=%s seed=%d seconds=%d trace=%d\n", envLine(), sp.name, o.seed, o.seconds, o.trace)

	in, err := makeInputs(sp, o.seed)
	if err != nil {
		return err
	}
	r := newRunner(h, sp, ws, in)
	seconds := time.Duration(o.seconds) * time.Second
	var metrics map[string]float64
	var defs []metricDef
	if o.trace == 0 {
		e, err := r.runE2E(seconds, nil, false)
		if err != nil {
			return err
		}
		metrics, defs = e.metrics(), endToEnd
		e.report(out, sp, r.tl)
	} else {
		if metrics, err = r.traced(seconds, o, out); err != nil {
			return err
		}
		defs = perLayer
	}
	for _, d := range defs {
		if v, ok := metrics[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.tl.check(false, "metric %s has no value (%v)", d.name, v)
		}
	}
	for _, e := range r.tl.errors() {
		fmt.Fprintln(out, "FAILED:", e)
	}
	if err := writeResult(out, r.tl, metrics, defs); err != nil {
		return err
	}
	if r.tl.failed.Load() > 0 {
		return errChecksFailed
	}
	return nil
}

// watchdog kills the children, removes the scratch dirs and exits with a
// clear message on SIGINT, SIGTERM or when the run exceeds timeout.
func watchdog(h *harness, timeout time.Duration, stderr io.Writer) (stop func()) {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	timer := time.NewTimer(timeout)
	go func() {
		var why string
		select {
		case <-done:
			return
		case s := <-sigc:
			why = fmt.Sprintf("received %v", s)
		case <-timer.C:
			why = fmt.Sprintf("run exceeded its %s limit", timeout)
		}
		h.cleanup()
		fmt.Fprintf(stderr, "perfbench: %s; trictd killed and scratch dirs removed\n", why)
		os.Exit(1)
	}()
	return func() {
		timer.Stop()
		signal.Stop(sigc)
		close(done)
	}
}

func envLine() string {
	return fmt.Sprintf("go=%s nproc=%d gomaxprocs=%d cpu=%q", runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeResult prints the result line: the contract's last line of
// standard output.
func writeResult(w io.Writer, tl *tally, metrics map[string]float64, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: make(map[string]value)}
	for _, d := range defs {
		v := metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // already a failed check; JSON has no NaN
		}
		res.Metrics[d.name] = value{v, d.unit}
	}
	res.Failed = tl.failed.Load()
	res.Attempted = max(tl.attempted.Load(), 1)
	res.Correct = res.Failed == 0
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// report prints every end-to-end figure of an untraced run with its
// sample counts, including those that are not gated metrics: the p99
// latencies (a few rare stalls set them, so they spread past any useful
// bound between runs on a shared 2-CPU host), tri_rel_err (fixed by the
// seed) and failed_frac (the result line's failed/attempted).
func (e e2eResult) report(w io.Writer, sp spec, tl *tally) {
	m := e.metrics()
	postLat := values(pooled(e, func(c cycleResult) []sample { return c.postLat }))
	estLat := values(pooled(e, func(c cycleResult) []sample { return c.estLat }))
	fmt.Fprintf(w, "%s: %d cycle(s), %d setup samples, %d POSTs, %d estimate reads\n",
		sp.name, len(e.cycles), len(e.setup), len(postLat), len(estLat))
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-22s %14.6g %s\n", d.name, m[d.name], d.unit)
	}
	for _, t := range []struct {
		name string
		lat  []float64
	}{{"post_p99_ms", postLat}, {"estimate_p99_ms", estLat}} {
		fmt.Fprintf(w, "  %-22s %14.6g ms     (%d of %d samples beyond; not gated)\n", t.name, m[t.name], beyond(t.lat, m[t.name]), len(t.lat))
	}
	fmt.Fprintf(w, "  %-22s %14.6g ratio  (|τ̂−τ|/τ against internal/exact, cycle 1)\n", "tri_rel_err", e.cycles[0].relErr)
	fmt.Fprintf(w, "  %-22s %14.6g ratio  (%d of %d checks failed)\n", "failed_frac",
		float64(tl.failed.Load())/float64(max(tl.attempted.Load(), 1)), tl.failed.Load(), tl.attempted.Load())
}
