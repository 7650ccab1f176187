package sim_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"vortex/internal/chaos"
	"vortex/internal/sim"
)

// TestDeterminism is the harness's foundational property: two runs with
// the same seed and config produce byte-identical event logs and the
// same chaos-event log, so any failure is replayable from its seed.
// Seed 46 is the sweep's configuration (vortex-sim -seed 46 -clients 4
// -duration 3s): its log once varied between runs of one binary.
func TestDeterminism(t *testing.T) {
	for _, cfg := range []sim.Config{
		{Seed: 7, Duration: 2 * time.Second, Clients: 3, Faults: 6},
		{Seed: 46, Duration: 3 * time.Second, Clients: 4, Faults: 8},
	} {
		t.Run(fmt.Sprintf("seed_%d", cfg.Seed), func(t *testing.T) {
			run := func() (string, *sim.Result) {
				var buf bytes.Buffer
				cfg := cfg
				cfg.Log = &buf
				res := sim.Run(cfg)
				return buf.String(), res
			}
			log1, res1 := run()
			log2, res2 := run()
			if log1 != log2 {
				t.Fatalf("event logs differ between identical runs:\n--- run1 ---\n%s\n--- run2 ---\n%s", tailLines(log1, 30), tailLines(log2, 30))
			}
			if res1.ChaosLog != res2.ChaosLog {
				t.Fatalf("chaos logs differ:\n%q\n%q", res1.ChaosLog, res2.ChaosLog)
			}
			if res1.Appends != res2.Appends || res1.Rows != res2.Rows || res1.DMLs != res2.DMLs {
				t.Fatalf("stats differ: %+v vs %+v", res1, res2)
			}
			if res1.Failure != nil {
				t.Fatalf("seed %d run failed: %+v", cfg.Seed, res1.Failure)
			}
		})
	}
}

// TestSeedsDiffer guards against the workload ignoring its seed: two
// different seeds must not replay the same event log.
func TestSeedsDiffer(t *testing.T) {
	var a, b bytes.Buffer
	sim.Run(sim.Config{Seed: 1, Duration: 1 * time.Second, Clients: 2, Faults: 0, Log: &a})
	sim.Run(sim.Config{Seed: 2, Duration: 1 * time.Second, Clients: 2, Faults: 0, Log: &b})
	if a.String() == b.String() {
		t.Fatal("seeds 1 and 2 produced identical event logs")
	}
}

// TestInjectedBugIsCaughtAndReplayable proves the harness detects a real
// defect: the dup-ledger bug double-records an acked append, which must
// fail the §6.3 exactly-once invariant with a repro line that reproduces
// the same violation when replayed.
func TestInjectedBugIsCaughtAndReplayable(t *testing.T) {
	cfg := sim.Config{Seed: 42, Duration: 1 * time.Second, Clients: 2, Faults: 4, Bug: "dup-ledger", Minimize: true}
	res := sim.Run(cfg)
	if res.Failure == nil {
		t.Fatal("injected dup-ledger bug was not detected")
	}
	if res.Failure.Invariant != "exactly-once" {
		t.Fatalf("invariant = %q, want exactly-once", res.Failure.Invariant)
	}
	if !strings.Contains(res.Failure.ReproLine, "-seed 42") || !strings.Contains(res.Failure.ReproLine, "-bug dup-ledger") {
		t.Fatalf("repro line not self-contained: %s", res.Failure.ReproLine)
	}

	// Replay the minimized schedule: same invariant must trip again.
	replay := cfg
	replay.Specs = res.Failure.Specs
	if replay.Specs == nil {
		replay.Specs = []chaos.Spec{}
	}
	replay.Minimize = false
	res2 := sim.Run(replay)
	if res2.Failure == nil {
		t.Fatalf("replaying minimized schedule %q did not reproduce the failure", chaos.FormatSpecs(res.Failure.Specs))
	}
	if res2.Failure.Invariant != res.Failure.Invariant {
		t.Fatalf("replay tripped %q, original tripped %q", res2.Failure.Invariant, res.Failure.Invariant)
	}
}

// TestMinimizationDropsIrrelevantFaults checks the delta-debugging pass:
// the dup-ledger failure reproduces with no chaos at all, so the
// minimized schedule for it must be empty no matter how many random
// faults the original run carried.
func TestMinimizationDropsIrrelevantFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("minimization re-runs the simulation many times")
	}
	res := sim.Run(sim.Config{Seed: 5, Duration: 1 * time.Second, Clients: 2, Faults: 6, Bug: "dup-ledger", Minimize: true})
	if res.Failure == nil {
		t.Fatal("injected bug not detected")
	}
	if len(res.Failure.Specs) != 0 {
		t.Fatalf("minimized schedule = %q, want empty (failure is chaos-independent)", chaos.FormatSpecs(res.Failure.Specs))
	}
}

// TestSeedSweep runs a handful of seeds end to end; every invariant must
// hold under each seed's random chaos program. Longer sweeps live in the
// vortex-sim -soak mode.
func TestSeedSweep(t *testing.T) {
	seeds := []int64{1, 2, 3}
	dur := 2 * time.Second
	if testing.Short() {
		seeds = seeds[:2]
		dur = 1 * time.Second
	}
	var cfgs []sim.Config
	for _, seed := range seeds {
		cfgs = append(cfgs, sim.Config{Seed: seed, Duration: dur, Clients: 3, Faults: 6})
	}
	// Seeds 80 and 99 lost an acknowledged DELETE: a reconcile finalized
	// the statement's streamlet between its plan and its commit, and the
	// tail mask never reached the fragments. Seeds 22 and 69 lost
	// acknowledged appends: a reconcile whose sentinel failed during a
	// write outage finalized the streamlet anyway, and its old server
	// kept acknowledging into the unfenced file. Each replays its
	// minimized schedule at the settings of scripts/sweep.sh.
	for _, pin := range []struct {
		seed   int64
		replay string
	}{
		{80, "outage:beta:10-12"},
		{99, "outage:beta:56-60"},
		{22, "outage:beta:42-47,outage:beta:38-42,outage:alpha:5-6"},
		{69, "outage:beta:31-36,outage:alpha:34-41,outage:beta:48-51,crash-ss:ss-beta-2:5"},
	} {
		specs, err := chaos.ParseSpecs(pin.replay)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, sim.Config{Seed: pin.seed, Duration: 3 * time.Second, Clients: 4, Specs: specs})
	}
	for _, cfg := range cfgs {
		res := sim.Run(cfg)
		if res.Failure != nil {
			t.Errorf("seed %d: %s at epoch %d: %s\nREPRO: %s",
				cfg.Seed, res.Failure.Invariant, res.Failure.Epoch, res.Failure.Detail, res.Failure.ReproLine)
		}
	}
}

// TestReplayProgramRoundTrip pins that a run's chaos program survives
// the text round-trip the repro line depends on.
func TestReplayProgramRoundTrip(t *testing.T) {
	res := sim.Run(sim.Config{Seed: 9, Duration: 1 * time.Second, Clients: 2, Faults: 5})
	if res.Failure != nil {
		t.Fatalf("seed 9 failed: %+v", res.Failure)
	}
	text := chaos.FormatSpecs(res.Specs)
	back, err := chaos.ParseSpecs(text)
	if err != nil {
		t.Fatalf("parsing %q: %v", text, err)
	}
	if chaos.FormatSpecs(back) != text {
		t.Fatalf("round trip changed program: %q -> %q", text, chaos.FormatSpecs(back))
	}

	// Replaying the parsed program yields the identical run.
	var a, b bytes.Buffer
	sim.Run(sim.Config{Seed: 9, Duration: 1 * time.Second, Clients: 2, Faults: 5, Log: &a})
	sim.Run(sim.Config{Seed: 9, Duration: 1 * time.Second, Clients: 2, Specs: back, Log: &b})
	if a.String() != b.String() {
		t.Fatal("replaying the formatted chaos program diverged from the original run")
	}
}

func tailLines(s string, n int) string {
	lines := strings.Split(s, "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}
