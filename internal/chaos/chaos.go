// Package chaos is a deterministic fault-injection schedule for the
// simulated region. Subsystems call Inject at named cut-points (one per
// failure surface the paper's availability story exercises, §5.6,
// §7.3); the schedule decides — from explicit occurrence rules, counted
// per rule — whether that operation is dropped, delayed, or turned into
// a process crash, and records every triggered injection in an event
// log so tests can assert that the same schedule produces the same
// failures.
//
// The consuming packages (rpc, colossus, streamserver) do not import
// this package; each declares a small local interface that *Schedule
// satisfies, and internal/core wires one schedule through the whole
// region (Region.Chaos()).
package chaos

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Cut-point names. Targets are:
//
//	rpc.request / rpc.response  →  "addr/Method" (e.g. "ss-alpha-0/Append")
//	rpc.stream.send             →  "addr"
//	rpc.stream.response        →  "addr"
//	colossus.write / .read      →  cluster name
//	streamserver.append         →  server addr
const (
	PointRPCRequest    = "rpc.request"
	PointRPCResponse   = "rpc.response"
	PointStreamSend    = "rpc.stream.send"
	PointStreamResp    = "rpc.stream.response"
	PointColossusWrite = "colossus.write"
	PointColossusRead  = "colossus.read"
	PointAppend        = "streamserver.append"
)

// Crasher kinds for OnCrash callbacks.
const (
	KindStreamServer = "streamserver"
	KindSMS          = "sms"
)

// ErrInjected is the base error of every injected failure.
var ErrInjected = errors.New("chaos: injected failure")

// Event is one triggered injection. Occurrence is the 1-based count of
// matches of the triggering rule, which is deterministic for a given
// schedule and workload.
type Event struct {
	Point      string
	Target     string
	Occurrence int64
	Action     string // "fail", "delay", "crash", "outage"
}

func (e Event) String() string {
	return fmt.Sprintf("%s %s #%d %s", e.Point, e.Target, e.Occurrence, e.Action)
}

const (
	actionFail   = "fail"
	actionDelay  = "delay"
	actionCrash  = "crash"
	actionOutage = "outage"
)

// rule is one injection rule. A rule matches when its point equals the
// cut-point and its target pattern matches the target; each rule counts
// its own matches (seen) and triggers on explicit occurrences or an
// occurrence window.
type rule struct {
	point  string
	target string // "", "addr", "addr/Method", or "*/Method"
	action string

	occurrences map[int64]bool
	from, to    int64 // 1-based inclusive window; 0,0 = unused

	delay     time.Duration
	crashKind string

	seen int64
}

func (r *rule) matches(point, target string) bool {
	if r.point != point {
		return false
	}
	switch {
	case r.target == "":
		return true
	case r.target == target:
		return true
	case strings.HasPrefix(r.target, "*/"):
		return strings.HasSuffix(target, r.target[1:])
	default:
		return strings.HasPrefix(target, r.target+"/")
	}
}

// triggers reports whether the rule fires on its n'th match.
func (r *rule) triggers(n int64) bool {
	if r.occurrences != nil {
		return r.occurrences[n]
	}
	return r.to > 0 && n >= r.from && n <= r.to
}

// Schedule is a deterministic fault-injection plan. Safe for concurrent
// use. The zero value is not usable; call NewSchedule.
type Schedule struct {
	mu       sync.Mutex
	rules    []*rule
	events   []Event
	crashers map[string]func(target string)
	manual   map[string]bool // manually-toggled cluster outages
	paused   bool
}

// NewSchedule returns an empty schedule. Rules fire on counted
// occurrences only, so two schedules built the same way inject
// identically on identical workloads.
func NewSchedule() *Schedule {
	return &Schedule{crashers: make(map[string]func(string)), manual: make(map[string]bool)}
}

func (s *Schedule) add(r *rule) *Schedule {
	s.mu.Lock()
	s.rules = append(s.rules, r)
	s.mu.Unlock()
	return s
}

// FailAt fails the nth occurrences (1-based) of point/target.
func (s *Schedule) FailAt(point, target string, nth ...int64) *Schedule {
	return s.add(&rule{point: point, target: target, action: actionFail, occurrences: occSet(nth)})
}

// FailBetween fails occurrences from..to (1-based, inclusive).
func (s *Schedule) FailBetween(point, target string, from, to int64) *Schedule {
	return s.add(&rule{point: point, target: target, action: actionFail, from: from, to: to})
}

// DelayAt injects a latency spike of d at the nth occurrences. The
// sleep honours the caller's context, so per-attempt deadlines fire.
func (s *Schedule) DelayAt(point, target string, d time.Duration, nth ...int64) *Schedule {
	return s.add(&rule{point: point, target: target, action: actionDelay, delay: d, occurrences: occSet(nth)})
}

// DelayBetween injects a latency spike of d on occurrences from..to
// (1-based, inclusive).
func (s *Schedule) DelayBetween(point, target string, d time.Duration, from, to int64) *Schedule {
	return s.add(&rule{point: point, target: target, action: actionDelay, delay: d, from: from, to: to})
}

// CrashStreamServerAt crashes the Stream Server at addr when it serves
// its nth append (the append fails; the server vanishes from the
// network until restarted). Requires an OnCrash(KindStreamServer, ...)
// callback, which internal/core installs.
func (s *Schedule) CrashStreamServerAt(addr string, nth int64) *Schedule {
	return s.add(&rule{point: PointAppend, target: addr, action: actionCrash,
		crashKind: KindStreamServer, occurrences: occSet([]int64{nth})})
}

// CrashSMSTaskAt crashes the SMS task at addr when it receives its nth
// RPC (the request fails; the task's durable state survives in Spanner
// and a restart resumes it). Requires an OnCrash(KindSMS, ...) callback.
func (s *Schedule) CrashSMSTaskAt(addr string, nth int64) *Schedule {
	return s.add(&rule{point: PointRPCRequest, target: addr, action: actionCrash,
		crashKind: KindSMS, occurrences: occSet([]int64{nth})})
}

// ClusterOutage schedules a Colossus outage window on cluster: write
// occurrences from..to (1-based, inclusive) fail, and ClusterOut
// reports true while the next write would still fall in the window —
// the §5.6 disaster case driving degraded single-cluster commits.
func (s *Schedule) ClusterOutage(cluster string, from, to int64) *Schedule {
	return s.add(&rule{point: PointColossusWrite, target: cluster, action: actionOutage, from: from, to: to})
}

// StartClusterOutage marks cluster out until EndClusterOutage: every
// write to it fails and ClusterOut(cluster) reports true. Tests use
// this form to phase outages around workload steps.
func (s *Schedule) StartClusterOutage(cluster string) {
	s.mu.Lock()
	s.manual[cluster] = true
	s.mu.Unlock()
}

// EndClusterOutage heals a manual outage.
func (s *Schedule) EndClusterOutage(cluster string) {
	s.mu.Lock()
	delete(s.manual, cluster)
	s.mu.Unlock()
}

// ClusterOut reports whether cluster is currently marked out — the
// signal the write path consults before falling back to single-cluster
// replication (§5.6).
func (s *Schedule) ClusterOut(cluster string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.manual[cluster] {
		return true
	}
	for _, r := range s.rules {
		if r.action == actionOutage && r.target == cluster && r.to > 0 && r.seen+1 >= r.from && r.seen+1 <= r.to {
			return true
		}
	}
	return false
}

// Pause suspends injection: Inject returns nil without matching rules
// or advancing occurrence counters, freezing every fault window. The
// deterministic simulation pauses the schedule while it observes
// invariants, so verification reads neither fail nor consume the
// occurrences the workload phase would otherwise see — measurement must
// not perturb the system under test.
func (s *Schedule) Pause() {
	s.mu.Lock()
	s.paused = true
	s.mu.Unlock()
}

// Resume re-enables injection after Pause.
func (s *Schedule) Resume() {
	s.mu.Lock()
	s.paused = false
	s.mu.Unlock()
}

// OnCrash installs the callback invoked when a crash rule of the given
// kind fires. internal/core wires region crash/restart here.
func (s *Schedule) OnCrash(kind string, fn func(target string)) {
	s.mu.Lock()
	s.crashers[kind] = fn
	s.mu.Unlock()
}

// Inject evaluates every matching rule at a cut-point. It sleeps for
// triggered delays (honouring ctx) and returns a non-nil error wrapped
// around ErrInjected when a fail, outage, or crash rule fires. Crash
// callbacks run before Inject returns.
func (s *Schedule) Inject(ctx context.Context, point, target string) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if s.paused {
		s.mu.Unlock()
		return nil
	}
	var (
		delay   time.Duration
		failed  *Event
		crashes []func()
	)
	// Manual outages fail writes without consuming rule occurrences.
	if point == PointColossusWrite && s.manual[target] {
		e := Event{Point: point, Target: target, Occurrence: 0, Action: actionOutage}
		s.events = append(s.events, e)
		failed = &e
	}
	for _, r := range s.rules {
		if !r.matches(point, target) {
			continue
		}
		r.seen++
		if !r.triggers(r.seen) {
			continue
		}
		e := Event{Point: point, Target: target, Occurrence: r.seen, Action: r.action}
		s.events = append(s.events, e)
		switch r.action {
		case actionDelay:
			delay += r.delay
		case actionCrash:
			if fn := s.crashers[r.crashKind]; fn != nil {
				t := target
				if i := strings.IndexByte(t, '/'); i >= 0 && r.crashKind == KindSMS {
					t = t[:i]
				}
				crashes = append(crashes, func() { fn(t) })
			}
			if failed == nil {
				failed = &e
			}
		default: // fail, outage
			if failed == nil {
				failed = &e
			}
		}
	}
	s.mu.Unlock()
	for _, c := range crashes {
		c()
	}
	if delay > 0 {
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
	if failed != nil {
		return fmt.Errorf("%w: %s", ErrInjected, failed)
	}
	return nil
}

// Events returns a copy of the injection log in trigger order.
func (s *Schedule) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// LogString renders the injection log in a canonical order — sorted by
// (point, target, occurrence, action) — so logs from runs whose only
// nondeterminism is goroutine interleaving still compare equal.
func (s *Schedule) LogString() string {
	evs := s.Events()
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Point != b.Point {
			return a.Point < b.Point
		}
		if a.Target != b.Target {
			return a.Target < b.Target
		}
		if a.Occurrence != b.Occurrence {
			return a.Occurrence < b.Occurrence
		}
		return a.Action < b.Action
	})
	var b strings.Builder
	for _, e := range evs {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func occSet(nth []int64) map[int64]bool {
	m := make(map[int64]bool, len(nth))
	for _, n := range nth {
		m[n] = true
	}
	return m
}
