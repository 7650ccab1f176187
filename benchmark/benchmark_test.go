package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// packageDir is where the test binary started: the benchmark directory,
// one below the repository root.
var packageDir string

// TestMain moves the run into a temporary directory, because the
// benchmark keeps its scratch files under .bench_build in the working
// directory and a test must leave the source tree as it found it.
func TestMain(m *testing.M) {
	var err error
	if packageDir, err = os.Getwd(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp("", "vortex-benchmark-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.Chdir(dir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// smokeSeconds is the window of the smoke runs; row counts scale with
// it, so tables are a tenth of their benchmark size.
const smokeSeconds = 0.5

// TestEveryWorkloadSmoke runs each workload end to end with a short
// window and small tables: every oracle must pass, every end-to-end
// metric must be measured and non-zero, and the contract line must
// carry exactly the end-to-end metrics.
func TestEveryWorkloadSmoke(t *testing.T) {
	for _, def := range workloads {
		def := def
		t.Run(def.name, func(t *testing.T) {
			env, err := runOnce(context.Background(), def, 7, smokeSeconds, false, "")
			if err != nil {
				t.Fatal(err)
			}
			if env.Failed != 0 || env.Attempted == 0 {
				t.Fatalf("%d of %d operations failed: %s", env.Failed, env.Attempted, env.FirstError)
			}
			line, err := contractLine(env)
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Correct bool
				Metrics map[string]reading
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			if !got.Correct || len(got.Metrics) != len(endToEnd) {
				t.Fatalf("contract line: correct=%v with %d metrics, want %d", got.Correct, len(got.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if r := got.Metrics[d.name]; r.Value <= 0 || r.Unit != d.unit {
					t.Errorf("%s = %v %q, want a positive number of %s", d.name, r.Value, r.Unit, d.unit)
				}
			}
		})
	}
}

// TestTracedRun traces the workload that crosses both wrapped seams
// twice over (client and worker transports, the client's store): the
// span file must be well formed, every span's parent must be in it, and
// the per-layer metrics only a trace can give must be there.
func TestTracedRun(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	env, err := runOnce(context.Background(), workloads[1], 7, smokeSeconds, true, out)
	if err != nil {
		t.Fatal(err)
	}
	if env.Failed != 0 {
		t.Fatalf("%d of %d operations failed: %s", env.Failed, env.Attempted, env.FirstError)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var file struct{ Spans []span }
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("span file: %v", err)
	}
	ix := indexSpans(file.Spans)
	if n := ix.orphans(); n != 0 || len(file.Spans) == 0 {
		t.Fatalf("%d spans, %d orphans", len(file.Spans), n)
	}
	roots := make(map[string]int)
	for _, s := range file.Spans {
		if s.End < s.Start {
			t.Fatalf("span %d ends before it starts", s.ID)
		}
		if s.Parent == 0 {
			roots[s.Name]++
		}
	}
	for _, name := range []string{"append", "drain", "phase:open_loop", "phase:closed_loop", "phase:read_back"} {
		if roots[name] == 0 {
			t.Errorf("no root span %q in the trace", name)
		}
	}
	for _, name := range []string{"client.append_self_ms_p50", "rpc.append_call_ms_p50", "colossusrpc.call_ms_p50", "colossusrpc.calls_per_append", "rpc.tcp_unary_us_p50", "trace.overhead_pct"} {
		if _, ok := env.Metrics[name]; !ok {
			t.Errorf("traced run did not report %s", name)
		}
	}
	line, err := contractLine(env)
	if err != nil {
		t.Fatal(err)
	}
	var got struct{ Metrics map[string]reading }
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Metrics) != len(perLayer) {
		t.Fatalf("traced contract line has %d metrics, want %d", len(got.Metrics), len(perLayer))
	}
}

// TestCatalogueMatchesContract holds BENCHMARK.json to the metric and
// workload names the program prints.
func TestCatalogueMatchesContract(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(packageDir, "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(contract.Workloads), len(workloads))
	}
	for i, w := range contract.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	if len(contract.EndToEnd) != len(endToEnd) || len(contract.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d", len(contract.EndToEnd), len(contract.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if c := contract.EndToEnd[i]; c.Name != d.name || c.Unit != d.unit || c.Bound <= 0 || c.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: %+v in BENCHMARK.json, %+v in the program", i, c, d)
		}
	}
	for i, d := range perLayer {
		if c := contract.PerLayer[i]; c.Name != d.name || c.Unit != d.unit {
			t.Errorf("per-layer metric %d: %+v in BENCHMARK.json, %+v in the program", i, c, d)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Fatalf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
