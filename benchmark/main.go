// Command benchmark is the repository's one performance harness: five
// seeded workloads, each reporting end-to-end metrics from an untraced
// run and per-layer metrics from a traced one. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// driver is one workload: a set of inputs and the code that offers them.
type driver interface {
	// config is the frozen sizing the run used, for the result envelope.
	config() map[string]any
	// setup builds a fresh system under test and loads it, returning the
	// seconds spent inside the program (input generation is not counted).
	setup(ctx context.Context, tr *tracer) (float64, error)
	// run is the measured window; it fills m with every metric it has.
	run(ctx context.Context, m *measurement) error
	// verify checks the program's outputs against the benchmark's own
	// reference, counting each oracle in m.counts.
	verify(ctx context.Context, m *measurement) error
	// layers adds the per-layer metrics that need the finished trace.
	layers(m *measurement, all *spanIndex)
	// kernelInput is a sample of the workload's own rows for the
	// isolated layer timings.
	kernelInput() kernelInput
	// close stops everything setup started and waits for it.
	close()
}

type workloadDef struct {
	name string
	make func(seed int64, seconds, scale float64) driver
}

var workloads = []workloadDef{
	{"ingest", func(seed int64, s, _ float64) driver { return newAppendDriver(ingestSpec, seed, s) }},
	{"cluster_tcp", func(seed int64, s, _ float64) driver { return newAppendDriver(clusterSpec, seed, s) }},
	{"scan", func(seed int64, s, scale float64) driver { return newScan(seed, s, scale, false) }},
	{"scan_pressure", func(seed int64, s, scale float64) driver { return newScan(seed, s, scale, true) }},
	{"mixed_cdc", func(seed int64, s, scale float64) driver { return newMixedCDC(seed, s, scale) }},
}

// A run repeats set-up to take its median: at least three set-ups, then
// more while they are cheap — until setupShare of the window is spent.
const (
	setupMinReps = 3
	setupMaxReps = 15
	setupShare   = 0.15
)

// gcPercent is the collector setting every run uses (GOGC). At the
// default of 100 the collector is at work for about half of the
// mixed_cdc window, and the median append flips from run to run between
// its latency with the collector on and with it off; at 200 it is a
// minority of every window and the medians repeat. It is the same on
// both sides of any comparison and is recorded in the envelope.
const gcPercent = 200

// envelope is the self-describing result of one run.
type envelope struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Traced     bool               `json:"traced"`
	GitSHA     string             `json:"git_sha"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"nproc"`
	GCPercent  int                `json:"gc_percent"`
	Transport  string             `json:"transport"`
	Config     map[string]any     `json:"config"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	FirstError string             `json:"first_error,omitempty"`
	SetupReps  int                `json:"setup_reps,omitempty"`
	WallS      float64            `json:"wall_s"`
	Samples    map[string]int     `json:"samples"`
	Metrics    map[string]reading `json:"metrics"`
	TraceFile  string             `json:"trace_file,omitempty"`
}

type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOnce runs one workload once and returns its envelope. An untraced
// run repeats set-up for a steady setup_s, then measures for `seconds`.
// A traced run measures half the window with every wrapper absent and
// half on a second system with them in place: the per-layer metrics come
// from the traced half, and what the headline operation lost between the
// halves is trace.overhead_pct.
func runOnce(ctx context.Context, def workloadDef, seed int64, seconds float64, traced bool, traceOut string) (*envelope, error) {
	began := time.Now()
	env := &envelope{
		Workload: def.name, Seed: seed, Seconds: seconds, Traced: traced,
		GitSHA: gitSHA(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GCPercent: gcPercent,
	}
	debug.SetGCPercent(gcPercent)
	// Tables have a fixed size; only a window shorter than the
	// benchmark's ten seconds (the smoke test) shrinks them with it.
	scale := min(1, seconds/10)
	var m *measurement
	if !traced {
		w := def.make(seed, seconds, scale)
		defer func() { w.close() }()
		var setups []float64
		var spent time.Duration
		budget := time.Duration(setupShare * seconds * float64(time.Second))
		for rep := 0; rep < setupMaxReps && (rep < setupMinReps || spent < budget); rep++ {
			if rep > 0 {
				w.close()
				runtime.GC()
			}
			t0 := time.Now()
			s, err := w.setup(ctx, nil)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			spent += time.Since(t0)
			setups = append(setups, s)
		}
		m = newMeasurement()
		if err := measure(ctx, w, m); err != nil {
			return nil, err
		}
		m.set("setup_s", median(setups))
		m.samples["setup_s"] = len(setups)
		env.SetupReps = len(setups)
		env.Config = w.config()
	} else {
		plain := def.make(seed, seconds/2, scale)
		if _, err := plain.setup(ctx, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		base := newMeasurement()
		err := plain.run(ctx, base)
		plain.close()
		if err != nil {
			return nil, fmt.Errorf("untraced half: %w", err)
		}
		runtime.GC()

		tr := newTracer()
		w := def.make(seed, seconds/2, scale)
		defer w.close()
		endSetup := tr.startPhase("setup")
		_, err = w.setup(ctx, tr)
		endSetup()
		if err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		m = newMeasurement()
		if err := measure(ctx, w, m); err != nil {
			return nil, err
		}
		spans := tr.snapshot()
		all := indexSpans(spans)
		w.layers(m, all)
		if n := all.orphans(); n > 0 {
			m.counts.fail("%d spans name a parent that is not in the trace", n)
		}
		// What a user sees is measured with the wrappers off, always.
		for _, d := range append(append([]metricDef(nil), endToEnd...), userVisible...) {
			if v, ok := base.values[d.name]; ok {
				m.set(d.name, v)
				m.samples[d.name] = base.samples[d.name]
			}
		}
		if base.values[headlineOpMS] > 0 {
			m.set("trace.overhead_pct", 100*(m.values[headlineOpMS]-base.values[headlineOpMS])/base.values[headlineOpMS])
		}
		// The kernels time single calls; nothing of the workload may still
		// be running beside them.
		w.close()
		runKernels(m, w.kernelInput())
		if traceOut != "" {
			if err := writeSpans(traceOut, spans); err != nil {
				return nil, fmt.Errorf("writing trace: %w", err)
			}
			env.TraceFile = traceOut
		}
		env.Config = w.config()
	}
	m.set("peak_rss_mb", peakRSSMB())
	env.Transport, _ = env.Config["transport"].(string)
	env.Attempted, env.Failed, env.FirstError = m.counts.attempted, m.counts.failed, m.counts.firstErr
	env.Samples = m.samples
	env.Metrics = make(map[string]reading, len(m.values))
	for name, v := range m.values {
		if unit, ok := metricUnits[name]; ok {
			env.Metrics[name] = reading{Value: v, Unit: unit}
		}
	}
	env.WallS = time.Since(began).Seconds()
	return env, nil
}

// measure runs the window and then the oracles.
func measure(ctx context.Context, w driver, m *measurement) error {
	if err := w.run(ctx, m); err != nil {
		return fmt.Errorf("measured window: %w", err)
	}
	if err := w.verify(ctx, m); err != nil {
		return fmt.Errorf("verification: %w", err)
	}
	return nil
}

// headlineOpMS is the private key under which each workload leaves the
// milliseconds its headline operation took, for trace.overhead_pct.
const headlineOpMS = "_headline_op_ms"

func gitSHA() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// contractLine is the last line of standard output: the keys the
// driver reads, with every end-to-end metric (untraced) or every
// per-layer metric (traced) present.
func contractLine(env *envelope) ([]byte, error) {
	names := endToEndMetrics
	if env.Traced {
		names = perLayerMetrics
	}
	metrics := make(map[string]reading, len(names))
	for _, name := range names {
		r, ok := env.Metrics[name]
		if !ok {
			if !env.Traced {
				return nil, fmt.Errorf("workload %s did not measure end-to-end metric %s", env.Workload, name)
			}
			r = reading{Unit: metricUnits[name]} // a layer this workload does not reach
		}
		metrics[name] = r
	}
	return json.Marshal(map[string]any{
		"correct":   env.Failed == 0,
		"attempted": env.Attempted,
		"failed":    env.Failed,
		"metrics":   metrics,
	})
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: "+workloadNames())
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 10, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics, span file, trace.overhead_pct")
		traceOut = flag.String("trace-out", "", "where a traced run writes its spans (default .bench_build/trace-<workload>.json)")
		repeat   = flag.Int("repeat", 0, "run the workload N times on the seed and print each end-to-end metric's spread")
	)
	flag.Parse()
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil {
		fmt.Fprintf(os.Stderr, "unknown workload %q; choose one of %s\n", *name, workloadNames())
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "-seconds must be positive")
		os.Exit(2)
	}
	ctx := context.Background()
	if *repeat > 0 {
		if err := runRepeat(ctx, *def, *seed, *seconds, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	out := *traceOut
	if *trace != 0 && out == "" {
		out = filepath.Join(".bench_build", "trace-"+def.name+".json")
	}
	env, err := runOnce(ctx, *def, *seed, *seconds, *trace != 0, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if err := emit(env); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if env.Failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d operations failed; first: %s\n", env.Failed, env.Attempted, env.FirstError)
		os.Exit(1)
	}
}

// emit prints the envelope, then the contract line.
func emit(env *envelope) error {
	full, err := json.Marshal(env)
	if err != nil {
		return err
	}
	last, err := contractLine(env)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", full, last)
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runRepeat runs the workload n times on one seed, each run in a
// process of its own as the driver does (a second run in one process
// would inherit the first one's heap and resident high-water mark), and
// prints, for each user-visible metric, the median, the quartiles, their
// distance as a share of the median and the largest deviation of any run
// — the table the bounds in BENCHMARK.json are set from.
func runRepeat(ctx context.Context, def workloadDef, seed int64, seconds float64, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	series := make(map[string][]float64)
	for i := 0; i < n; i++ {
		cmd := exec.CommandContext(ctx, self, "-workload", def.name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		var env envelope
		first, _, _ := strings.Cut(string(out), "\n")
		if err := json.Unmarshal([]byte(first), &env); err != nil {
			return fmt.Errorf("run %d: reading its envelope: %w", i+1, err)
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), userVisible...) {
			if r, ok := env.Metrics[d.name]; ok {
				series[d.name] = append(series[d.name], r.Value)
			}
		}
		fmt.Fprintf(os.Stderr, "run %d/%d done in %.1fs\n", i+1, n, env.WallS)
	}
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("| %s seed %d, %d runs | unit | median | q1 | q3 | (q3-q1)/median | max dev |\n|---|---|---|---|---|---|---|\n", def.name, seed, n)
	summary := make(map[string]spread, len(names))
	for _, name := range names {
		sp := spreadOf(series[name])
		summary[name] = sp
		fmt.Printf("| `%s` | %s | %.4g | %.4g | %.4g | %.1f%% | %.1f%% |\n", name, metricUnits[name], sp.Median, sp.Q1, sp.Q3, 100*sp.IQRRel, 100*sp.MaxDev)
	}
	line, err := json.Marshal(map[string]any{"workload": def.name, "seed": seed, "runs": n, "spread": summary})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}
