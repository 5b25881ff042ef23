package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the self-test
// holds the code to.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }  `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the code in step:
// same workloads with the same reasons, same metrics with the same units.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: file %q/%q, code %q/%q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	check := func(kind string, file []struct{ Name, Unit string }, code []metricDef) {
		if len(file) != len(code) {
			t.Fatalf("%s: file lists %d metrics, code %d", kind, len(file), len(code))
		}
		for i, m := range file {
			if m.Name != code[i].name || m.Unit != code[i].unit {
				t.Errorf("%s %d: file %s [%s], code %s [%s]", kind, i, m.Name, m.Unit, code[i].name, code[i].unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}

// TestWorkloadsTiny runs every workload at tiny size, untraced and
// traced, against a freshly built trictd: every metric must be emitted
// with its unit and every correctness check must pass.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("builds trictd and runs every workload")
	}
	bin := filepath.Join(t.TempDir(), "trictd")
	if out, err := exec.Command("go", "build", "-o", bin, "streamtri/cmd/trictd").CombinedOutput(); err != nil {
		t.Fatalf("building trictd: %v\n%s", err, out)
	}
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"-workload", w.Name, "-seed", "3", "-seconds", "2", "-trace", trace,
					"-tiny", "-trictd", bin, "-work", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
				}
				out := stdout.String()
				lines := strings.Split(strings.TrimSpace(out), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("checks failed: %+v\n%s", res, out)
				}
				want := bf.EndToEnd
				labels := []string{"post_p99_ms", "estimate_p99_ms", "tri_rel_err", "failed_frac"}
				if trace == "1" {
					want = bf.PerLayer
					labels = []string{"layer report", "end-to-end", "sum of layers", "residual", "tracing overhead"}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: emitted %v with unit %q, want unit %q", m.Name, ok, got.Unit, m.Unit)
					}
				}
				for _, l := range append(labels, "env: go=") {
					if !strings.Contains(out, l) {
						t.Errorf("report lacks %q:\n%s", l, out)
					}
				}
			})
		}
	}
}
