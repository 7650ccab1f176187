// Package sim is a FoundationDB-style deterministic simulation harness
// for the Vortex reproduction: a seeded Simulation drives N logically
// concurrent clients against an embedded region while a chaos program —
// derived from the same seed — crashes Stream Servers and SMS tasks,
// drops and delays RPCs, and schedules Colossus outage windows. A
// manual TrueTime clock makes simulated time a pure function of the
// seed, and after every epoch the harness runs the §6.3 continuous
// verification invariants (exactly-once, no-missing/no-duplicate,
// content integrity) plus snapshot-read monotonicity, WOS∪ROS union
// completeness across conversion, no-stale-read-after-GC, a DML
// row-count model check, and materialized-view parity (an incrementally
// maintained view must equal its defining query recomputed at the
// refresh's pinned snapshot, across maintainer crash/rebuild).
//
// Determinism contract: with a fixed Config, two Runs produce
// byte-identical event logs. Everything that executes while the chaos
// schedule is live is sequential (one operation at a time); invariant
// observation happens with the schedule paused so measurement cannot
// perturb fault-window accounting. On an invariant failure the run
// stops, the failing schedule is minimized by delta-debugging re-runs,
// and a self-contained repro command line is emitted.
package sim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"vortex/internal/chaos"
	"vortex/internal/client"
	"vortex/internal/core"
	"vortex/internal/meta"
	"vortex/internal/optimizer"
	"vortex/internal/query"
	"vortex/internal/readsession"
	"vortex/internal/sms"
	"vortex/internal/truetime"
	"vortex/internal/verify"
	"vortex/internal/wire"
)

// fragmentBytes rotates the simulated region's fragments small, so a
// short run converts, reclusters and collects many of them. The region
// otherwise has core's default shape, which its chaos programs target.
const fragmentBytes = 4 << 10

// Simulated-time layout. An epoch is one workload+maintenance+verify
// round; Config.Duration counts simulated (manual-clock) time, so the
// epoch count — and with it the whole run — is seed-deterministic.
const (
	epochSim       = 100 * time.Millisecond
	stepsPerClient = 5
	rotateEvery    = 4 // epochs between stream finalize/recreate rounds
	reclusterEvery = 8
	gcEvery        = 4
	retention      = 2 * time.Second // SMS deleted-fragment retention
	sampleMaxAge   = 4               // epochs a snapshot sample is re-checked
)

const (
	tableLedger = meta.TableID("sim.ledger")
	tableDML    = meta.TableID("sim.dml")
)

// Config parameterizes one simulation run.
type Config struct {
	Seed int64
	// Duration is the simulated run length (manual-clock time).
	Duration time.Duration
	// Clients is the number of logically concurrent workload clients.
	Clients int
	// Faults sizes the random chaos program when Specs is nil.
	Faults int
	// Specs, when non-nil, replays an explicit chaos program instead of
	// generating one (the -replay path).
	Specs []chaos.Spec
	// Bug injects a deliberate defect so the harness can prove it
	// catches one: "dup-ledger" double-records an acked append.
	Bug string
	// Program selects a scripted scenario instead of the random-chaos
	// workload. "" (or "random") runs the default mixed workload under a
	// seed-derived chaos schedule; "overload" runs the admission-control
	// squeeze→rebalance→recover program (see overload.go).
	Program string
	// Log receives the deterministic event log (nil discards it).
	Log io.Writer
	// Minimize shrinks a failing chaos program by re-running subsets.
	Minimize bool
}

func (c *Config) setDefaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Faults < 0 {
		c.Faults = 0
	}
}

// Failure describes one invariant violation.
type Failure struct {
	Epoch     int
	Invariant string
	Detail    string
	// Specs is the (possibly minimized) chaos program that reproduces
	// the failure together with the seed.
	Specs []chaos.Spec
	// ReproLine is a self-contained command reproducing the failure.
	ReproLine string
}

// Result summarizes a run.
type Result struct {
	Seed    int64
	Epochs  int
	Specs   []chaos.Spec
	Appends int64
	Rows    int64
	Reads   int64
	DMLs    int64
	// Uncertain counts appends whose first ack was lost and that the
	// exactly-once protocol later resolved (retried or content-matched).
	Uncertain int64
	// Sheds counts appends pushed back by admission control, and Windows
	// the Slicer double-assignment windows opened (overload program).
	Sheds    int64
	Windows  int
	ChaosLog string
	Failure  *Failure
}

// runMu serializes Runs: the seedable id-entropy hook (meta.SetEntropy)
// is process-global.
var runMu sync.Mutex

// Run executes one simulation. On failure with cfg.Minimize set it
// re-runs spec subsets (logs discarded) to shrink the chaos program
// before building the repro line.
func Run(cfg Config) *Result {
	runMu.Lock()
	defer runMu.Unlock()
	defer meta.SetEntropy(nil)
	cfg.setDefaults()
	switch cfg.Program {
	case "", "random":
	case "overload":
		res := runOverload(cfg)
		if res.Failure != nil {
			res.Failure.ReproLine = ReproLine(cfg, nil)
		}
		return res
	default:
		return &Result{Seed: cfg.Seed, Failure: &Failure{
			Invariant: "config",
			Detail:    fmt.Sprintf("unknown program %q (known: random, overload)", cfg.Program),
		}}
	}
	specs := cfg.Specs
	if specs == nil && cfg.Faults > 0 {
		specs = chaos.RandomSpecs(rand.New(rand.NewSource(cfg.Seed)), core.DefaultConfig().Topology(), cfg.Faults)
	}
	res := runOnce(cfg, specs)
	if res.Failure != nil {
		if cfg.Minimize {
			quiet := cfg
			quiet.Log = nil
			inv := res.Failure.Invariant
			res.Failure.Specs = chaos.MinimizeSpecs(specs, func(ss []chaos.Spec) bool {
				r := runOnce(quiet, ss)
				return r.Failure != nil && r.Failure.Invariant == inv
			})
		} else {
			res.Failure.Specs = specs
		}
		res.Failure.ReproLine = ReproLine(cfg, res.Failure.Specs)
	}
	return res
}

// ReproLine renders the command that replays cfg with the given chaos
// program.
func ReproLine(cfg Config, specs []chaos.Spec) string {
	line := fmt.Sprintf("go run ./cmd/vortex-sim -seed %d -clients %d -duration %s",
		cfg.Seed, cfg.Clients, cfg.Duration)
	if cfg.Program != "" && cfg.Program != "random" {
		line += fmt.Sprintf(" -program %s", cfg.Program)
	} else {
		line += fmt.Sprintf(" -replay %q", chaos.FormatSpecs(specs))
	}
	if cfg.Bug != "" {
		line += fmt.Sprintf(" -bug %s", cfg.Bug)
	}
	return line
}

type crashRec struct {
	addr  string
	epoch int
}

type snapSample struct {
	epoch  int
	at     truetime.Timestamp
	digest uint64
	count  int
}

// harness is what the random-chaos and the overload programs share: a
// region of the fixed shape on a manual clock, the ledger their writers
// record into, an uncached observer client, the epoch counter and the
// event log.
type harness struct {
	cfg    Config
	clock  *truetime.Manual
	region *core.Region
	ledger *verify.Ledger
	plain  *client.Client // uncached observer
	epoch  int
	out    io.Writer
	res    *Result
}

// newHarness seeds the id entropy (Run resets it) and starts the region
// rc describes, with the clock, fragment size and seed filled in.
func newHarness(cfg Config, specs []chaos.Spec, rc core.Config) *harness {
	h := &harness{
		cfg:    cfg,
		clock:  truetime.NewManual(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC), time.Millisecond),
		ledger: verify.NewLedger(),
		out:    cfg.Log,
		res:    &Result{Seed: cfg.Seed, Specs: specs},
	}
	if h.out == nil {
		h.out = io.Discard
	}
	// Seedable id entropy: stream/ROS ids become Spanner keys and drive
	// scan and placement order, so they must replay.
	meta.SetEntropy(rand.New(rand.NewSource(cfg.Seed ^ 0x5eed1d)))
	rc.Clock, rc.ClockEpsilon, rc.MaxFragmentBytes, rc.Seed = h.clock, time.Millisecond, fragmentBytes, cfg.Seed
	h.region = core.NewRegion(rc)
	popts := client.DefaultOptions()
	popts.Seed = cfg.Seed + 1
	h.plain = h.region.NewClient(popts)
	return h
}

// runEpochs runs body once per epoch until the last or a failure. Each
// epoch lands exactly on its boundary, so simulated time is a pure
// function of the epoch count.
func (h *harness) runEpochs(epochs int, body func()) {
	for h.epoch = 1; h.epoch <= epochs && h.res.Failure == nil; h.epoch++ {
		start := h.clock.At()
		body()
		h.clock.Set(start.Add(epochSim))
	}
	h.res.Epochs = h.epoch - 1
}

func (h *harness) logf(format string, args ...any) {
	fmt.Fprintf(h.out, format+"\n", args...)
}

func (h *harness) fail(invariant, detail string) {
	if h.res.Failure != nil {
		return
	}
	h.res.Failure = &Failure{Epoch: h.epoch, Invariant: invariant, Detail: detail}
	h.logf("FAIL e%d invariant=%s detail=%s", h.epoch, invariant, detail)
}

type simulation struct {
	*harness
	sched  *chaos.Schedule
	cached *client.Client // read-cache client (stale-read-after-GC probe)
	eng    *query.Engine
	opt    *optimizer.Optimizer

	clients []*simClient
	dml     *dmlActor
	mv      *matviewActor
	// writers are every actor's writers — the ledger clients', then the
	// DML actor's, then the view actor's — in the order each phase
	// visits them.
	writers []*writer

	samples []snapSample

	crashMu    sync.Mutex
	crashedSS  []crashRec
	crashedSMS []crashRec
}

func runOnce(cfg Config, specs []chaos.Spec) *Result {
	sched := chaos.FromSpecs(specs)
	sched.Pause() // no faults during setup
	s := &simulation{harness: newHarness(cfg, specs, core.Config{Chaos: sched}), sched: sched}
	// Take over crash handling: the region still crashes the task, and
	// the simulation additionally records it for a delayed restart.
	s.sched.OnCrash(chaos.KindStreamServer, func(addr string) {
		s.region.CrashStreamServer(addr)
		s.crashMu.Lock()
		s.crashedSS = append(s.crashedSS, crashRec{addr, s.epoch})
		s.crashMu.Unlock()
		s.logf("e%d crash ss %s", s.epoch, addr)
	})
	s.sched.OnCrash(chaos.KindSMS, func(addr string) {
		s.region.CrashSMSTask(addr)
		s.crashMu.Lock()
		s.crashedSMS = append(s.crashedSMS, crashRec{addr, s.epoch})
		s.crashMu.Unlock()
		s.logf("e%d crash sms %s", s.epoch, addr)
	})
	for _, t := range s.region.SMSTasks {
		t.SetRetention(truetime.Timestamp(retention.Nanoseconds()))
	}

	copts := client.DefaultOptions()
	copts.Seed = cfg.Seed
	copts.ReadCacheBytes = 1 << 20
	s.cached = s.region.NewClient(copts)
	// Shards=1 keeps the engine's leaf dispatch strictly sequential, so
	// chaos occurrence accounting during DML scans is replayable.
	s.eng = query.New(s.plain, s.region.BigMeta, s.region.Net, s.region.Router(), query.Config{Shards: 1})
	s.opt = optimizer.New(optimizer.DefaultConfig(), s.plain, s.region.Net, s.region.Router(), s.region.Colossus, s.clock)

	ctx := context.Background()
	s.logf("sim seed=%d clients=%d duration=%s faults=%d", cfg.Seed, cfg.Clients, cfg.Duration, len(specs))
	for _, sp := range specs {
		s.logf("spec %s", sp)
	}
	if err := s.setup(ctx); err != nil {
		s.fail("setup", err.Error())
		return s.finish()
	}

	s.sched.Resume()
	s.runEpochs(max(int(cfg.Duration/epochSim), 1), func() {
		s.workloadPhase(ctx)
		s.maintenancePhase(ctx)
		s.verifyPhase(ctx)
	})
	if s.res.Failure == nil {
		s.drain(ctx)
	}
	return s.finish()
}

func (s *simulation) finish() *Result {
	s.res.ChaosLog = s.sched.LogString()
	s.logf("chaos events:\n%s", s.res.ChaosLog)
	s.logf("result epochs=%d appends=%d rows=%d reads=%d dmls=%d uncertain=%d fail=%v",
		s.res.Epochs, s.res.Appends, s.res.Rows, s.res.Reads, s.res.DMLs, s.res.Uncertain, s.res.Failure != nil)
	return s.res
}

func (s *simulation) setup(ctx context.Context) error {
	if err := s.plain.CreateTable(ctx, tableLedger, eventsSchema()); err != nil {
		return err
	}
	if err := s.plain.CreateTable(ctx, tableDML, logSchema()); err != nil {
		return err
	}
	if err := s.plain.CreateTable(ctx, tableAccounts, accountsSchema()); err != nil {
		return err
	}
	for i := 0; i < s.cfg.Clients; i++ {
		c := newSimClient(i, s)
		s.clients = append(s.clients, c)
		s.writers = append(s.writers, c.writer)
	}
	s.dml = newDMLActor(s)
	s.mv = newMatviewActor(s)
	s.writers = append(s.writers, s.dml.writer, s.mv.writer)
	return s.mv.init(ctx)
}

// workloadPhase runs the logically concurrent clients one operation at
// a time: a sequential interleaving chosen by the seed, the only
// scheduling under which chaos occurrence accounting replays exactly.
func (s *simulation) workloadPhase(ctx context.Context) {
	for step := 0; step < stepsPerClient; step++ {
		for _, c := range s.clients {
			c.step(ctx)
			if s.res.Failure != nil {
				return
			}
		}
		s.dml.step(ctx)
		s.mv.step(ctx)
		if s.res.Failure != nil {
			return
		}
		s.clock.Advance(time.Millisecond)
	}
}

func (s *simulation) maintenancePhase(ctx context.Context) {
	// Restart tasks that crashed in an earlier epoch: roughly one epoch
	// of downtime, like a Borg reschedule.
	s.crashMu.Lock()
	ss, sms := s.crashedSS, s.crashedSMS
	s.crashedSS, s.crashedSMS = nil, nil
	s.crashMu.Unlock()
	restartDue(ss, s.epoch, func(addr string) {
		s.region.RestartStreamServer(addr)
		s.logf("e%d restart ss %s", s.epoch, addr)
	}, func(r crashRec) {
		s.crashMu.Lock()
		s.crashedSS = append(s.crashedSS, r)
		s.crashMu.Unlock()
	})
	restartDue(sms, s.epoch, func(addr string) {
		s.region.RestartSMSTask(addr)
		s.logf("e%d restart sms %s", s.epoch, addr)
	}, func(r crashRec) {
		s.crashMu.Lock()
		s.crashedSMS = append(s.crashedSMS, r)
		s.crashMu.Unlock()
	})

	s.region.HeartbeatAll(ctx, core.FullHeartbeat(s.epoch))
	if s.epoch%rotateEvery == 0 {
		for _, w := range s.writers {
			w.rotate(ctx)
		}
		s.region.HeartbeatAll(ctx, false)
	}
	for _, table := range []meta.TableID{tableLedger, tableDML, tableAccounts, tableByRegion} {
		res, err := s.opt.ConvertTable(ctx, table)
		if err != nil {
			s.logf("e%d maint convert t=%s err=%s", s.epoch, table, errCategory(err))
		} else if res.FragmentsConverted > 0 {
			s.logf("e%d maint convert t=%s frags=%d rows=%d", s.epoch, table, res.FragmentsConverted, res.RowsConverted)
		}
	}
	if s.epoch%reclusterEvery == 0 {
		if n, err := s.opt.Recluster(ctx, tableLedger, true); err != nil {
			s.logf("e%d maint recluster err=%s", s.epoch, errCategory(err))
		} else {
			s.logf("e%d maint recluster files=%d", s.epoch, n)
		}
	}
	if s.epoch%gcEvery == 0 {
		s.runGC(ctx)
	}
}

func (s *simulation) runGC(ctx context.Context) {
	for _, addr := range s.region.SMSAddrs() {
		gr, err := wire.GC.Call(ctx, s.region.Net, addr, &wire.GCRequest{})
		if err != nil {
			s.logf("e%d maint gc %s err=%s", s.epoch, addr, errCategory(err))
			continue
		}
		if gr.FragmentsDeleted > 0 {
			s.logf("e%d maint gc %s frags=%d", s.epoch, addr, gr.FragmentsDeleted)
		}
	}
}

func restartDue(recs []crashRec, epoch int, restart func(string), requeue func(crashRec)) {
	due := map[string]bool{}
	for _, r := range recs {
		if r.epoch < epoch {
			due[r.addr] = true
		} else {
			requeue(r)
		}
	}
	addrs := make([]string, 0, len(due))
	for a := range due {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	for _, a := range addrs {
		restart(a)
	}
}

// verifyPhase observes the system with the chaos schedule paused:
// measurement must neither fail spuriously nor advance fault windows.
func (s *simulation) verifyPhase(ctx context.Context) {
	s.sched.Pause()
	defer s.sched.Resume()

	if s.cfg.Bug == "dup-ledger" && s.epoch == 2 {
		// Deliberate defect: re-record the first acked append, claiming
		// the same stream location twice. §6.3 verification must flag it.
		if recs := s.ledger.Appends(); len(recs) > 0 {
			s.ledger.Record(recs[0])
		}
	}

	// Resolve in-doubt appends first so the ledger is complete; a ledger
	// batch stuck behind a still-crashed server skips verification this
	// epoch.
	pending := 0
	for _, w := range s.writers {
		w.Resolve(ctx)
		if w.Pending() != nil && w.Table() == tableLedger {
			pending++
		}
	}
	s.dml.retryDelete(ctx)

	if pending == 0 {
		rep, err := verify.VerifyTable(ctx, s.plain, tableLedger, s.ledger, 0)
		if err != nil {
			s.logf("e%d verify ledger err=%s", s.epoch, errCategory(err))
		} else {
			s.logf("e%d verify ledger %s", s.epoch, rep)
			if !rep.OK() {
				s.fail("exactly-once", rep.String())
				return
			}
			s.res.Uncertain = int64(rep.ResolvedUncertain)
		}
	} else {
		s.logf("e%d verify skipped pending=%d", s.epoch, pending)
	}

	if s.dml.idle() {
		if got, err := s.dml.storedCount(ctx); err != nil {
			s.logf("e%d verify dml err=%s", s.epoch, errCategory(err))
		} else if got != s.dml.modelCount() {
			s.fail("dml-count", fmt.Sprintf("stored=%d model=%d", got, s.dml.modelCount()))
			return
		} else {
			s.logf("e%d verify dml count=%d", s.epoch, got)
		}
	}

	s.checkSnapshots(ctx)
	s.checkReadSession(ctx)
	if s.res.Failure == nil {
		s.checkMatview(ctx)
	}
}

// checkSnapshots enforces snapshot-read monotonicity and WOS∪ROS union
// completeness: a snapshot digest taken at epoch E must be bit-identical
// when re-read at later epochs, across the WOS→ROS conversions,
// reclustering and GC that ran in between — and the read-cache client
// must agree with the uncached one after GC (no stale reads).
func (s *simulation) checkSnapshots(ctx context.Context) {
	// Read errors here mean unavailability (a task crashed and not yet
	// restarted) — an availability event, not a correctness violation.
	// Checks are skipped for this epoch and retried later; only data
	// that reads successfully but reads WRONG fails the run.
	at := s.clock.Commit()
	d, n, err := verify.SnapshotDigest(ctx, s.plain, tableLedger, at)
	if err != nil {
		s.logf("e%d digest unavailable err=%s", s.epoch, errCategory(err))
	} else {
		s.logf("e%d digest at=%d n=%d d=%016x", s.epoch, at, n, d)
		s.samples = append(s.samples, snapSample{epoch: s.epoch, at: at, digest: d, count: n})
		if dc, nc, err := verify.SnapshotDigest(ctx, s.cached, tableLedger, at); err != nil {
			s.logf("e%d stale-read check unavailable err=%s", s.epoch, errCategory(err))
		} else if dc != d || nc != n {
			s.fail("stale-read-after-gc", fmt.Sprintf("cached=(%016x,%d) plain=(%016x,%d) at=%d", dc, nc, d, n, at))
			return
		}
	}
	kept := s.samples[:0]
	for _, sm := range s.samples {
		if s.epoch-sm.epoch > sampleMaxAge {
			continue // beyond the re-check horizon (stays within retention)
		}
		kept = append(kept, sm)
		if sm.epoch == s.epoch {
			continue
		}
		d2, n2, err := verify.SnapshotDigest(ctx, s.plain, tableLedger, sm.at)
		if err != nil {
			s.logf("e%d reread at=%d unavailable err=%s", s.epoch, sm.at, errCategory(err))
			continue
		}
		if d2 != sm.digest || n2 != sm.count {
			s.fail("snapshot-monotonic", fmt.Sprintf("at=%d was=(%016x,%d) now=(%016x,%d)", sm.at, sm.digest, sm.count, d2, n2))
			return
		}
	}
	s.samples = kept
}

// checkReadSession enforces shard-union completeness over the live
// ledger table: a parallel read session's shards, drained and unioned,
// must deliver exactly the rows of a plain snapshot scan at the
// session's pinned timestamp — no sequence missing, none twice —
// regardless of the WOS→ROS conversions, reclustering and GC that ran
// this epoch. As with checkSnapshots, a read that FAILS is an
// availability event (logged, skipped); data that reads wrong fails.
func (s *simulation) checkReadSession(ctx context.Context) {
	sess, err := readsession.Dial(s.plain, "").Open(ctx, tableLedger, readsession.Options{Shards: 3})
	if err != nil {
		s.logf("e%d readsession unavailable err=%s", s.epoch, errCategory(err))
		return
	}
	defer sess.Close(ctx)
	rows, err := sess.ReadAll(ctx)
	if err != nil {
		s.logf("e%d readsession drain unavailable err=%s", s.epoch, errCategory(err))
		return
	}
	seen := map[int64]bool{}
	for _, r := range rows {
		if seen[r.Seq] {
			s.fail("readsession-dup", fmt.Sprintf("seq %d delivered twice at=%d", r.Seq, sess.SnapshotTS()))
			return
		}
		seen[r.Seq] = true
	}
	d, n, err := verify.SnapshotDigest(ctx, s.plain, tableLedger, sess.SnapshotTS())
	if err != nil {
		s.logf("e%d readsession reference unavailable err=%s", s.epoch, errCategory(err))
		return
	}
	if len(rows) != n || verify.DigestStamped(rows) != d {
		s.fail("readsession-union", fmt.Sprintf("session=(%016x,%d) plain=(%016x,%d) at=%d",
			verify.DigestStamped(rows), len(rows), d, n, sess.SnapshotTS()))
		return
	}
	s.logf("e%d readsession shards=%d n=%d ok", s.epoch, sess.Stats().Shards, n)
}

// drain heals the region (chaos off, everything restarted), resolves
// every in-doubt operation, and runs the final full verification — the
// durable exactly-once-across-crash/restart check.
func (s *simulation) drain(ctx context.Context) {
	s.sched.Pause()
	s.crashMu.Lock()
	ss, sms := s.crashedSS, s.crashedSMS
	s.crashedSS, s.crashedSMS = nil, nil
	s.crashMu.Unlock()
	restartDue(ss, s.epoch+1, func(addr string) {
		s.region.RestartStreamServer(addr)
		s.logf("drain restart ss %s", addr)
	}, func(crashRec) {})
	restartDue(sms, s.epoch+1, func(addr string) {
		s.region.RestartSMSTask(addr)
		s.logf("drain restart sms %s", addr)
	}, func(crashRec) {})
	s.region.HeartbeatAll(ctx, true)

	for round := 0; round < 5; round++ {
		n := 0
		for _, w := range s.writers {
			w.Resolve(ctx)
			if w.Pending() != nil {
				n++
			}
		}
		s.dml.retryDelete(ctx)
		if n == 0 && s.dml.pendingDel == "" {
			break
		}
		s.clock.Advance(10 * time.Millisecond)
	}
	for _, w := range s.writers {
		if b := w.Pending(); b != nil {
			s.fail("exactly-once", fmt.Sprintf("%s append unresolvable after heal off=%d n=%d", w.name, b.Off, len(b.Rows)))
			return
		}
	}
	if s.dml.pendingDel != "" {
		s.fail("dml-count", "dml delete unresolvable after heal")
		return
	}

	rep, err := verify.VerifyTable(ctx, s.plain, tableLedger, s.ledger, 0)
	if err != nil {
		s.fail("exactly-once", fmt.Sprintf("final verify read failed: %s", errCategory(err)))
		return
	}
	s.logf("final verify ledger %s", rep)
	if !rep.OK() {
		s.fail("exactly-once", rep.String())
		return
	}
	s.res.Uncertain = int64(rep.ResolvedUncertain)
	if got, err := s.dml.storedCount(ctx); err != nil {
		s.fail("dml-count", fmt.Sprintf("final count read failed: %s", errCategory(err)))
	} else if got != s.dml.modelCount() {
		s.fail("dml-count", fmt.Sprintf("final stored=%d model=%d", got, s.dml.modelCount()))
	} else {
		s.logf("final dml count=%d", got)
	}
	if s.res.Failure == nil {
		s.drainMatview(ctx)
	}
}

// errCategory reduces an error to a stable category for the event log:
// full error text can embed interleaving- or host-dependent detail,
// categories cannot.
var debugErrors = os.Getenv("VORTEX_SIM_DEBUG") != ""

func errCategory(err error) string {
	if debugErrors {
		fmt.Fprintf(os.Stderr, "DEBUG err: %v\n", err)
	}
	var ce *client.Error
	if errors.As(err, &ce) {
		return string(ce.Code)
	}
	switch {
	case errors.Is(err, chaos.ErrInjected):
		return "INJECTED"
	case errors.Is(err, client.ErrWrongOffset):
		return "WRONG_OFFSET"
	case errors.Is(err, client.ErrStreamFinalized):
		return "STREAM_FINALIZED"
	case errors.Is(err, client.ErrExhausted):
		return "EXHAUSTED"
	case errors.Is(err, client.ErrUnavailable):
		return "UNAVAILABLE"
	case errors.Is(err, context.DeadlineExceeded):
		return "DEADLINE"
	case errors.Is(err, sms.ErrUnavailable):
		// The SMS's retryable refusal: a reconcile whose fence landed
		// nowhere, or found the streamlet moved (§5.6).
		return "SMS_UNAVAILABLE"
	default:
		return "ERR"
	}
}
