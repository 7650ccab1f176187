package chaos

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"
)

// Spec is one serializable fault event: a single chaos rule in a form
// that can be printed into a repro line, parsed back, and subset during
// schedule minimization. The deterministic simulation generates a random
// []Spec from its seed, applies it with AddSpec, and on an invariant
// failure bisects the slice down to a minimal failing subset.
//
// The canonical text forms (parsed by ParseSpec) are:
//
//	fail:<point>:<target>:<from>-<to>
//	delay:<point>:<target>:<from>-<to>:<duration>
//	crash-ss:<addr>:<nth>
//	crash-sms:<addr>:<nth>
//	outage:<cluster>:<from>-<to>
type Spec struct {
	// Action is one of "fail", "delay", "crash-ss", "crash-sms", "outage".
	Action string
	// Point is the cut-point for fail/delay specs (unused otherwise).
	Point string
	// Target is the rule target: "addr", "addr/Method", or a cluster.
	Target string
	// From and To bound the 1-based occurrence window (inclusive). Crash
	// specs use only From.
	From, To int64
	// Delay is the injected latency for delay specs.
	Delay time.Duration
}

// Spec actions.
const (
	SpecFail     = "fail"
	SpecDelay    = "delay"
	SpecCrashSS  = "crash-ss"
	SpecCrashSMS = "crash-sms"
	SpecOutage   = "outage"
)

// String renders the spec in its canonical parseable form.
func (sp Spec) String() string {
	switch sp.Action {
	case SpecDelay:
		return fmt.Sprintf("%s:%s:%s:%d-%d:%s", sp.Action, sp.Point, sp.Target, sp.From, sp.To, sp.Delay)
	case SpecCrashSS, SpecCrashSMS:
		return fmt.Sprintf("%s:%s:%d", sp.Action, sp.Target, sp.From)
	case SpecOutage:
		return fmt.Sprintf("%s:%s:%d-%d", sp.Action, sp.Target, sp.From, sp.To)
	default:
		return fmt.Sprintf("%s:%s:%s:%d-%d", sp.Action, sp.Point, sp.Target, sp.From, sp.To)
	}
}

// ParseSpec parses the canonical form produced by Spec.String.
func ParseSpec(s string) (Spec, error) {
	parts := strings.Split(s, ":")
	bad := func() (Spec, error) { return Spec{}, fmt.Errorf("chaos: malformed spec %q", s) }
	if len(parts) < 3 {
		return bad()
	}
	sp := Spec{Action: parts[0]}
	switch sp.Action {
	case SpecFail:
		if len(parts) != 4 {
			return bad()
		}
		sp.Point, sp.Target = parts[1], parts[2]
		if !parseWindow(parts[3], &sp.From, &sp.To) {
			return bad()
		}
	case SpecDelay:
		if len(parts) != 5 {
			return bad()
		}
		sp.Point, sp.Target = parts[1], parts[2]
		if !parseWindow(parts[3], &sp.From, &sp.To) {
			return bad()
		}
		d, err := time.ParseDuration(parts[4])
		if err != nil {
			return bad()
		}
		sp.Delay = d
	case SpecCrashSS, SpecCrashSMS:
		if len(parts) != 3 {
			return bad()
		}
		sp.Target = parts[1]
		n, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil {
			return bad()
		}
		sp.From, sp.To = n, n
	case SpecOutage:
		if len(parts) != 3 {
			return bad()
		}
		sp.Target = parts[1]
		if !parseWindow(parts[2], &sp.From, &sp.To) {
			return bad()
		}
	default:
		return bad()
	}
	return sp, nil
}

func parseWindow(s string, from, to *int64) bool {
	i := strings.IndexByte(s, '-')
	if i <= 0 {
		return false
	}
	f, err1 := strconv.ParseInt(s[:i], 10, 64)
	t, err2 := strconv.ParseInt(s[i+1:], 10, 64)
	if err1 != nil || err2 != nil || f < 1 || t < f {
		return false
	}
	*from, *to = f, t
	return true
}

// FormatSpecs joins specs into the single comma-separated token used in
// repro lines (empty string for no specs).
func FormatSpecs(specs []Spec) string {
	ss := make([]string, len(specs))
	for i, sp := range specs {
		ss[i] = sp.String()
	}
	return strings.Join(ss, ",")
}

// ParseSpecs parses a FormatSpecs token. An empty string yields nil.
func ParseSpecs(s string) ([]Spec, error) {
	if s == "" {
		return nil, nil
	}
	var specs []Spec
	for _, tok := range strings.Split(s, ",") {
		sp, err := ParseSpec(tok)
		if err != nil {
			return nil, err
		}
		specs = append(specs, sp)
	}
	return specs, nil
}

// AddSpec applies one spec as a schedule rule.
func (s *Schedule) AddSpec(sp Spec) *Schedule {
	switch sp.Action {
	case SpecFail:
		return s.FailBetween(sp.Point, sp.Target, sp.From, sp.To)
	case SpecDelay:
		return s.DelayBetween(sp.Point, sp.Target, sp.Delay, sp.From, sp.To)
	case SpecCrashSS:
		return s.CrashStreamServerAt(sp.Target, sp.From)
	case SpecCrashSMS:
		return s.CrashSMSTaskAt(sp.Target, sp.From)
	case SpecOutage:
		return s.ClusterOutage(sp.Target, sp.From, sp.To)
	default:
		panic(fmt.Sprintf("chaos: unknown spec action %q", sp.Action))
	}
}

// FromSpecs builds a schedule carrying every spec; specs are occurrence-
// deterministic.
func FromSpecs(specs []Spec) *Schedule {
	s := NewSchedule()
	for _, sp := range specs {
		s.AddSpec(sp)
	}
	return s
}

// Topology names the fault surfaces of a region, in the fixed order the
// random generator indexes them. Build it from sorted address lists so
// that generation is a pure function of the RNG.
type Topology struct {
	Servers  []string // Stream Server addresses
	SMS      []string // SMS task addresses
	Clusters []string // Colossus cluster names
}

// RandomSpecs derives n fault specs from rng against the topology. The
// mix leans on the failure modes of the paper's availability story:
// dropped/slow RPCs, Stream Server and SMS crashes, and cluster outage
// windows. Occurrence windows are kept small (single digits wide, first
// ~60 occurrences) so short runs still intersect them.
func RandomSpecs(rng *rand.Rand, topo Topology, n int) []Spec {
	var specs []Spec
	window := func(maxWidth int64) (int64, int64) {
		from := 1 + rng.Int63n(60)
		return from, from + rng.Int63n(maxWidth)
	}
	pick := func(ss []string) string { return ss[rng.Intn(len(ss))] }
	for i := 0; i < n; i++ {
		// Weighted action choice: RPC faults are the common case, crashes
		// and outages the rare heavy hitters.
		switch p := rng.Intn(10); {
		case p < 3 && len(topo.Servers) > 0: // drop an append-path RPC
			from, to := window(3)
			specs = append(specs, Spec{Action: SpecFail, Point: PointRPCRequest, Target: pick(topo.Servers), From: from, To: to})
		case p < 5 && len(topo.Servers) > 0: // lose the ack instead
			from, to := window(2)
			specs = append(specs, Spec{Action: SpecFail, Point: PointRPCResponse, Target: pick(topo.Servers), From: from, To: to})
		case p < 6 && len(topo.SMS) > 0: // control-plane RPC failures
			from, to := window(2)
			specs = append(specs, Spec{Action: SpecFail, Point: PointRPCRequest, Target: pick(topo.SMS), From: from, To: to})
		case p < 7 && len(topo.Clusters) > 0: // slow Colossus writes
			from, to := window(4)
			d := time.Duration(1+rng.Intn(2)) * time.Millisecond
			specs = append(specs, Spec{Action: SpecDelay, Point: PointColossusWrite, Target: pick(topo.Clusters), From: from, To: to, Delay: d})
		case p < 8 && len(topo.Servers) > 0:
			specs = append(specs, Spec{Action: SpecCrashSS, Target: pick(topo.Servers), From: 1 + rng.Int63n(40)})
		case p < 9 && len(topo.SMS) > 0:
			specs = append(specs, Spec{Action: SpecCrashSMS, Target: pick(topo.SMS), From: 1 + rng.Int63n(40)})
		case len(topo.Clusters) > 0:
			from, to := window(8)
			specs = append(specs, Spec{Action: SpecOutage, Target: pick(topo.Clusters), From: from, To: to})
		}
	}
	// Normalize crash specs' From/To invariants for String round-trips.
	for i := range specs {
		if specs[i].To < specs[i].From {
			specs[i].To = specs[i].From
		}
	}
	return specs
}

// MinimizeSpecs shrinks specs to a smaller subset for which failsWith
// still reports a failure, using delta debugging: first try dropping
// halves, then single specs, until no single removal preserves the
// failure. failsWith must be a pure function of its argument (re-run the
// whole simulation from the same seed with the candidate subset). The
// input slice is returned unchanged when it does not fail at all.
func MinimizeSpecs(specs []Spec, failsWith func([]Spec) bool) []Spec {
	if !failsWith(specs) {
		return specs
	}
	cur := append([]Spec(nil), specs...)
	// Bisection pass: repeatedly try to keep only one half.
	for changed := true; changed && len(cur) > 1; {
		changed = false
		mid := len(cur) / 2
		halves := [][]Spec{cur[:mid], cur[mid:]}
		for _, h := range halves {
			if failsWith(h) {
				cur = append([]Spec(nil), h...)
				changed = true
				break
			}
		}
	}
	// Greedy single-removal pass to a local minimum. Removing the last
	// spec is tried too: a failure that reproduces with the empty program
	// is not caused by the chaos schedule at all.
	for changed := true; changed && len(cur) > 0; {
		changed = false
		for i := 0; i < len(cur); i++ {
			cand := make([]Spec, 0, len(cur)-1)
			cand = append(cand, cur[:i]...)
			cand = append(cand, cur[i+1:]...)
			if failsWith(cand) {
				cur = cand
				changed = true
				break
			}
		}
	}
	return cur
}
