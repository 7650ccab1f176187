// The overload program: a scripted, seed-deterministic scenario that
// squeezes the write path with tight admission quotas under zipf-skewed
// table popularity, opens deliberate Slicer double-assignment windows by
// load-driven rebalancing mid-overload, then lifts the quotas and drains.
//
// Invariants enforced (ISSUE: overload-safe massive fanout):
//   - shed-retryable: every append rejected by admission control carries
//     the typed RESOURCE_EXHAUSTED push-back — retryable, with a
//     non-negative server-suggested backoff — never an opaque failure.
//   - overload-exercised: the squeeze must actually shed (creation-budget
//     sheds on the control plane AND byte-rate sheds via heartbeats), and
//     heartbeat coalescing must engage, or the program tested nothing.
//   - double-assignment-window: rebalancing opens at least one window;
//     while it is open, the stale and the new owner — probed directly,
//     bypassing routing — must agree on the stream's writable streamlet
//     (Spanner is the serialization point, §5.2.1).
//   - no-loss / exactly-once: after recovery, per-table ledger
//     verification must account for every acknowledged append exactly
//     once, with no phantom rows from batches the server claimed to shed.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"vortex/internal/client"
	"vortex/internal/core"
	"vortex/internal/meta"
	"vortex/internal/schema"
	"vortex/internal/sms"
	"vortex/internal/verify"
	"vortex/internal/wire"
	"vortex/internal/workload"
)

const (
	overloadTables     = 4
	writersPerClient   = 6
	overloadSteps      = 3 // append rounds per writer per epoch
	overloadDrainLimit = 30
)

// squeezeQuotas starve a fleet of this size: a handful of streamlet
// creations and well under one writer's byte rate per table-second. The
// shed cap exceeds one epoch (100ms simulated) so a byte-shed
// instruction delivered at an epoch's closing heartbeat still covers the
// next epoch's appends.
func squeezeQuotas() sms.Quotas {
	return sms.Quotas{
		GlobalStreamletsPerSec: 40,
		TableStreamletsPerSec:  10,
		StreamletBurst:         2,
		GlobalBytesPerSec:      64 << 10,
		TableBytesPerSec:       8 << 10,
		ByteBurst:              4 << 10,
		MaxShed:                150 * time.Millisecond,
	}
}

// overWriter is one fanout writer: a dedicated stream on its
// zipf-chosen table. A shed batch stays pending — byte-identical, retried
// at the same offset — so recovery proves the push-back was honest
// (retry succeeds, exactly once).
type overWriter struct {
	*writer
	rng *rand.Rand
	gen *workload.Gen
}

type overloadSim struct {
	*harness
	writers []*overWriter
	tables  []meta.TableID
}

// runOverload executes the program. Callers hold runMu (entropy hook).
func runOverload(cfg Config) *Result {
	s := &overloadSim{harness: newHarness(cfg, nil, core.Config{
		Quotas:                 squeezeQuotas(),
		HeartbeatCoalesce:      5 * time.Millisecond,
		HeartbeatMaxStreamlets: 8,
	})}

	ctx := context.Background()
	epochs := int(cfg.Duration / epochSim)
	if epochs < 9 {
		epochs = 9
	}
	squeezeEnd := epochs / 3
	windowEnd := 2 * epochs / 3
	s.logf("overload seed=%d writers=%d tables=%d epochs=%d squeeze=..%d window=..%d",
		cfg.Seed, cfg.Clients*writersPerClient, overloadTables, epochs, squeezeEnd, windowEnd)

	if err := s.setup(ctx); err != nil {
		s.fail("setup", err.Error())
		return s.finish()
	}

	s.runEpochs(epochs, func() {
		s.workload(ctx)
		if s.res.Failure != nil {
			return
		}
		// Two heartbeat rounds close together: the second must coalesce
		// (liveness already fresh), keeping control traffic O(servers).
		s.region.HeartbeatAll(ctx, core.FullHeartbeat(s.epoch))
		s.clock.Advance(time.Millisecond)
		s.region.HeartbeatAll(ctx, false)

		switch s.epoch {
		case squeezeEnd:
			s.rebalance(ctx)
		case windowEnd:
			s.logf("e%d settle windows=%d", s.epoch, len(s.region.Slicer.StaleOwners()))
			s.region.SettleSlicer()
			s.region.SetQuotas(sms.Quotas{}) // recovery: lift all quotas
		}
		if s.epoch > squeezeEnd && s.epoch < windowEnd {
			s.probeStaleOwners(ctx)
		}
	})
	if s.res.Failure == nil {
		s.drain(ctx)
	}
	if s.res.Failure == nil {
		s.checkExercised()
	}
	return s.finish()
}

func (s *overloadSim) setup(ctx context.Context) error {
	for i := 0; i < overloadTables; i++ {
		t := meta.TableID(fmt.Sprintf("sim.fanout.%d", i))
		if err := s.plain.CreateTable(ctx, t, eventsSchema()); err != nil {
			return err
		}
		s.tables = append(s.tables, t)
	}
	n := s.cfg.Clients * writersPerClient
	assign := workload.ZipfAssignments(s.cfg.Seed, n, overloadTables)
	for i := 0; i < n; i++ {
		seed := s.cfg.Seed*7907 + int64(i)
		copts := client.DefaultOptions()
		copts.Seed = seed
		// Fail fast under push-back: the program itself is the retry loop,
		// and the manual clock only refills buckets between epochs, so an
		// in-call retry would both spin against a frozen quota and honor
		// the push-back hint with a REAL sleep.
		copts.Retry = client.RetryPolicy{
			MaxAttempts:    1,
			InitialBackoff: 200 * time.Microsecond,
			MaxBackoff:     time.Millisecond,
			Multiplier:     2,
			RetryBudget:    -1,
		}
		w := s.newWriter(fmt.Sprintf("w%d", i), s.tables[assign[i]], s.region.NewClient(copts))
		record := s.ledger.Applied(w.Writer)
		w.applied = func(rows []schema.Row, off, seq int64) {
			record(rows, off, seq)
			if seq < 0 {
				s.res.Uncertain++
			}
		}
		// The shed policy: with no chaos installed, an append that does
		// not land must be an honest push-back, and the writer keeps its
		// batch for a retry at the same offset.
		w.Settled = func(_ bool, b *client.Batch, o client.Outcome, err error) {
			if (o == client.Reopen || o == client.InDoubt) && s.checkShed(w, "append", err) {
				s.logf("e%d %s append off=%d shed", s.epoch, w.name, b.Off)
			}
		}
		s.writers = append(s.writers, &overWriter{writer: w, rng: rand.New(rand.NewSource(seed)), gen: workload.NewGen(seed, 50)})
	}
	return nil
}

func (s *overloadSim) workload(ctx context.Context) {
	for step := 0; step < overloadSteps; step++ {
		for _, w := range s.writers {
			s.stepWriter(ctx, w)
			if s.res.Failure != nil {
				return
			}
		}
		s.clock.Advance(time.Millisecond)
	}
}

func (s *overloadSim) stepWriter(ctx context.Context, w *overWriter) {
	if w.Stream() == nil {
		if err := w.Open(ctx, meta.Unbuffered); err != nil {
			if s.checkShed(w.writer, "create-stream", err) {
				s.logf("e%d %s create-stream shed", s.epoch, w.name)
			}
			return
		}
	}
	if w.Pending() != nil {
		w.Resolve(ctx)
		return
	}
	n := 1 + w.rng.Intn(2)
	w.Append(ctx, w.gen.EventRows(s.clock.At().Time(), n, 0))
}

// checkShed enforces the shed-retryable invariant on a failed operation:
// with no chaos installed, the ONLY acceptable failure is a typed,
// retryable RESOURCE_EXHAUSTED push-back with a non-negative hint.
// Returns true when the error is a conforming shed.
func (s *overloadSim) checkShed(w *writer, op string, err error) bool {
	if !errors.Is(err, client.ErrResourceExhausted) {
		s.fail("shed-retryable", fmt.Sprintf("%s %s failed with non-shed error: %s", w.name, op, errCategory(err)))
		return false
	}
	var ce *client.Error
	if !errors.As(err, &ce) || !ce.Retryable || ce.Code != client.CodeResourceExhausted || ce.RetryAfter < 0 {
		s.fail("shed-retryable", fmt.Sprintf("%s %s push-back not retryable-typed: %v", w.name, op, err))
		return false
	}
	s.res.Sheds++
	return true
}

// rebalance opens the deliberate double-assignment windows: the squeeze
// phase recorded per-key routing load (zipf-hot tables dominate), so a
// load-driven rebalance moves table keys between SMS tasks, leaving each
// previous owner stale. If the skew defeats the ≤gap/2 move rule (one
// key holding nearly all load is unmovable), one hot key is reassigned
// explicitly — the same window mechanism, deterministically opened.
func (s *overloadSim) rebalance(ctx context.Context) {
	moved := s.region.RebalanceSMS(2)
	// The probes need a window on a table with a live stream; if the
	// load-driven pass only moved auxiliary routing keys (or nothing),
	// open one explicitly on the hottest probe-able table.
	if !s.probeableWindow() {
		key, task := s.hottestMovableKey()
		if key == "" {
			s.fail("double-assignment-window", "no rebalance candidate found")
			return
		}
		if err := s.region.Slicer.Reassign(key, task); err != nil {
			s.fail("double-assignment-window", err.Error())
			return
		}
		moved = append(moved, key)
	}
	windows := s.region.Slicer.StaleOwners()
	s.res.Windows = len(windows)
	s.logf("e%d rebalance moved=%s windows=%d", s.epoch, strings.Join(moved, ","), len(windows))
	if len(windows) == 0 {
		s.fail("double-assignment-window", "rebalance moved keys but left no stale window")
	}
}

// probeableWindow reports whether some open window covers a fanout
// table that has a live, written-to stream for the probes to query.
func (s *overloadSim) probeableWindow() bool {
	for key := range s.region.Slicer.StaleOwners() {
		table := meta.TableID(strings.TrimPrefix(key, "table:"))
		if s.writerWithStream(table) != nil {
			return true
		}
	}
	return false
}

// hottestMovableKey picks the most loaded probe-able table key and the
// task that does not currently own it (two-task topology).
func (s *overloadSim) hottestMovableKey() (string, string) {
	loads := s.region.Slicer.KeyLoads()
	keys := make([]string, 0, len(s.tables))
	for _, t := range s.tables {
		if s.writerWithStream(t) != nil {
			keys = append(keys, "table:"+string(t))
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if loads[keys[i]] != loads[keys[j]] {
			return loads[keys[i]] > loads[keys[j]]
		}
		return keys[i] < keys[j]
	})
	for _, key := range keys {
		owner, err := s.region.Slicer.Lookup(key)
		if err != nil {
			continue
		}
		for _, task := range s.region.Slicer.Tasks() {
			if task != owner {
				return key, task
			}
		}
	}
	return "", ""
}

// probeStaleOwners exercises the open windows from both sides: for each
// stale key, ask BOTH the stale and the current owner directly (routing
// bypassed) for the writable streamlet of a live stream on that table.
// Spanner transactions are the serialization point, so the two answers
// must agree — the §5.2.1 claim the window exists to test.
func (s *overloadSim) probeStaleOwners(ctx context.Context) {
	windows := s.region.Slicer.StaleOwners()
	keys := make([]string, 0, len(windows))
	for k := range windows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		table := meta.TableID(strings.TrimPrefix(key, "table:"))
		w := s.writerWithStream(table)
		if w == nil {
			continue
		}
		newOwner, err := s.region.Slicer.Lookup(key)
		if err != nil {
			continue
		}
		req := &wire.GetWritableStreamletRequest{Stream: w.Stream().Info().ID}
		fromNew, errNew := wire.GetWritableStreamlet.Call(ctx, s.region.Net, newOwner, req)
		fromOld, errOld := wire.GetWritableStreamlet.Call(ctx, s.region.Net, windows[key], req)
		for _, err := range []error{errNew, errOld} {
			if err != nil && !errors.Is(err, sms.ErrResourceExhausted) {
				s.fail("double-assignment-window", fmt.Sprintf("probe t=%s: %s", table, errCategory(err)))
				return
			}
		}
		if errNew != nil || errOld != nil {
			s.logf("e%d probe t=%s shed", s.epoch, table)
			continue
		}
		a, b := fromNew.Streamlet.ID, fromOld.Streamlet.ID
		if a != b {
			s.fail("double-assignment-window", fmt.Sprintf("t=%s owners diverge: new=%s stale=%s", table, a, b))
			return
		}
		s.logf("e%d probe t=%s agree sl=%s", s.epoch, table, a)
	}
}

func (s *overloadSim) writerWithStream(table meta.TableID) *overWriter {
	for _, w := range s.writers {
		if w.Table() == table && w.Stream() != nil && w.Next() > 0 {
			return w
		}
	}
	return nil
}

// drain retries every deferred (shed) batch with quotas lifted: each
// push-back promised retryability, so every batch must land, and the
// final per-table verification must account for every acked append
// exactly once with no phantoms (a shed batch that secretly landed
// would surface as a phantom row).
func (s *overloadSim) drain(ctx context.Context) {
	for round := 0; round < overloadDrainLimit; round++ {
		n := 0
		for _, w := range s.writers {
			if w.Pending() != nil || w.Stream() == nil {
				s.stepWriter(ctx, w)
				if s.res.Failure != nil {
					return
				}
			}
			if w.Pending() != nil || w.Stream() == nil {
				n++
			}
		}
		if n == 0 {
			break
		}
		s.clock.Advance(epochSim)
		s.region.HeartbeatAll(ctx, false)
	}
	for _, w := range s.writers {
		if w.Pending() != nil || w.Stream() == nil {
			s.fail("shed-not-recoverable", fmt.Sprintf("%s t=%s still shed after quota lift", w.name, w.Table()))
			return
		}
	}
	s.region.HeartbeatAll(ctx, true)
	for _, table := range s.tables {
		rep, err := verify.VerifyTable(ctx, s.plain, table, s.ledger, 0)
		if err != nil {
			s.fail("no-loss", fmt.Sprintf("t=%s verify read failed: %s", table, errCategory(err)))
			return
		}
		s.logf("final verify t=%s %s", table, rep)
		if !rep.OK() {
			s.fail("no-loss", fmt.Sprintf("t=%s %s", table, rep))
			return
		}
	}
}

// checkExercised rejects a vacuous run: the squeeze must have shed on
// both planes, rebalancing must have opened a window, and heartbeat
// coalescing must have engaged.
func (s *overloadSim) checkExercised() {
	st := s.region.IngestStats()
	s.logf("ingest stats admitted=%d shedStreamlets=%d tableSheds=%d shedAppends=%d hb=%d coalesced=%d windows=%d",
		st.Admission.StreamletsAdmitted, st.Admission.StreamletsShed, st.Admission.TableSheds,
		st.ShedAppends, st.HeartbeatsSent, st.HeartbeatsCoalesced, s.res.Windows)
	switch {
	case s.res.Sheds == 0 || st.Admission.StreamletsShed == 0:
		s.fail("overload-exercised", "squeeze produced no creation-budget sheds")
	case st.Admission.TableSheds == 0 || st.ShedAppends == 0:
		s.fail("overload-exercised", "byte quotas never shed an accepted-path append")
	case st.HeartbeatsCoalesced == 0:
		s.fail("overload-exercised", "heartbeat coalescing never engaged")
	case s.res.Windows == 0:
		s.fail("overload-exercised", "no double-assignment window opened")
	}
}

func (s *overloadSim) finish() *Result {
	s.logf("result epochs=%d appends=%d rows=%d sheds=%d windows=%d uncertain=%d fail=%v",
		s.res.Epochs, s.res.Appends, s.res.Rows, s.res.Sheds, s.res.Windows, s.res.Uncertain, s.res.Failure != nil)
	return s.res
}
