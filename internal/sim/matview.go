package sim

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"vortex/internal/client"
	"vortex/internal/matview"
	"vortex/internal/meta"
	"vortex/internal/query"
	"vortex/internal/schema"
	"vortex/internal/truetime"
)

// Continuous-query invariant: a materialized view maintained
// incrementally off the CDC stream must equal its defining query
// recomputed at each refresh's pinned snapshot — every epoch, under the
// run's random chaos program, across WOS→ROS conversion and GC of both
// the base and the view table, and across maintainer destroy/rebuild
// from the durable checkpoint store (exactly-once delta consumption).
//
// The matview actor churns a primary-keyed accounts table with CDC
// upserts and deletes during the workload phase (same pinned-offset
// exactly-once append discipline as the other actors); the verify phase
// refreshes the view and compares it to the recompute, reporting any
// divergence as lost (recompute rows missing from the view) and phantom
// (view rows the recompute lacks) counts. A refresh or read that FAILS
// is an availability event (logged, skipped) — but a failed refresh
// always discards the maintainer and rebuilds it from the checkpoint,
// since partial in-memory application is not resumable.
const (
	tableAccounts  = meta.TableID("sim.accounts")
	tableByRegion  = meta.TableID("sim.byregion")
	mvRebuildEvery = 3 // epochs between maintainer destroy/rebuild rounds
)

const mvViewSQL = `CREATE MATERIALIZED VIEW sim.byregion AS
SELECT region, COUNT(*) AS accounts, SUM(balance) AS balance
FROM sim.accounts GROUP BY region`

func accountsSchema() *schema.Schema {
	return &schema.Schema{
		Fields: []*schema.Field{
			{Name: "accountId", Kind: schema.KindString, Mode: schema.Required},
			{Name: "region", Kind: schema.KindString, Mode: schema.Required},
			{Name: "balance", Kind: schema.KindInt64, Mode: schema.Nullable},
		},
		PrimaryKey: []string{"accountId"},
	}
}

// matviewActor owns the accounts table's CDC churn, appended through
// its exactly-once writer, and the view's maintainer.
type matviewActor struct {
	*writer
	rng *rand.Rand

	live   map[string]bool // account ids believed live (delete targeting only)
	nextID int64

	def   *matview.Definition
	store *matview.MemStore
	m     *matview.Maintainer
}

func newMatviewActor(s *simulation) *matviewActor {
	seed := s.cfg.Seed*9173 + 29
	copts := client.DefaultOptions()
	copts.Seed = seed
	a := &matviewActor{
		writer: s.newWriter("mv", tableAccounts, s.region.NewClient(copts)),
		rng:    rand.New(rand.NewSource(seed)),
		live:   map[string]bool{},
		store:  matview.NewMemStore(),
	}
	a.applied = a.track
	return a
}

// init compiles the view and builds its (initially empty) maintainer;
// called during setup with the chaos schedule paused.
func (a *matviewActor) init(ctx context.Context) error {
	def, err := matview.Compile(mvViewSQL, func(t meta.TableID) (*schema.Schema, error) {
		return a.cl.GetSchema(ctx, t)
	})
	if err != nil {
		return err
	}
	if err := a.cl.CreateTable(ctx, def.View, def.ViewSchema); err != nil {
		return err
	}
	a.def = def
	return a.rebuild()
}

// rebuild discards the maintainer and reconstructs it from the durable
// checkpoint store — the crash/restart path the invariant exercises.
func (a *matviewActor) rebuild() error {
	m, err := matview.NewMaintainer(a.cl, a.def, a.store, 1)
	if err != nil {
		return err
	}
	// Sequential source and sink: the simulation's determinism contract
	// forbids goroutine interleavings that perturb seq allocation.
	m.SinkPartitions = 1
	a.m = m
	return nil
}

// step performs one churn operation (workload phase, chaos live).
func (a *matviewActor) step(ctx context.Context) {
	if a.Pending() != nil {
		a.Resolve(ctx)
		return
	}
	if a.Stream() == nil {
		if err := a.Open(ctx, meta.Unbuffered); err != nil {
			a.h.logf("e%d mv create-stream err=%s", a.h.epoch, errCategory(err))
		}
		return
	}
	a.Append(ctx, a.genRows())
}

// genRows builds one CDC batch: mostly inserts of fresh accounts, a
// slice of re-keys/updates of existing ones, and occasional deletes.
func (a *matviewActor) genRows() []schema.Row {
	keys := make([]string, 0, len(a.live))
	for k := range a.live {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	n := 1 + a.rng.Intn(3)
	rows := make([]schema.Row, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case len(keys) > 0 && a.rng.Intn(6) == 0:
			row := schema.NewRow(
				schema.String(keys[a.rng.Intn(len(keys))]),
				schema.String(""), schema.Null())
			row.Change = schema.ChangeDelete
			rows = append(rows, row)
		case len(keys) > 4 && a.rng.Intn(3) == 0:
			rows = append(rows, a.upsertRow(keys[a.rng.Intn(len(keys))]))
		default:
			a.nextID++
			rows = append(rows, a.upsertRow(fmt.Sprintf("a%06d", a.nextID)))
		}
	}
	return rows
}

func (a *matviewActor) upsertRow(id string) schema.Row {
	row := schema.NewRow(
		schema.String(id),
		schema.String(fmt.Sprintf("R%d", a.rng.Intn(5))),
		schema.Int64(a.rng.Int63n(1000)))
	row.Change = schema.ChangeUpsert
	return row
}

// track is the view actor's applied callback: the live set follows the
// landed upserts and deletes.
func (a *matviewActor) track(rows []schema.Row, _, _ int64) {
	for _, r := range rows {
		id := r.Values[0].AsString()
		if r.Change == schema.ChangeDelete {
			delete(a.live, id)
		} else {
			a.live[id] = true
		}
	}
}

// checkMatview runs the per-epoch view-parity invariant (verify phase,
// chaos paused). On scheduled epochs the maintainer is first destroyed
// and rebuilt from its checkpoint, so the refresh that follows proves
// the stored offsets resume delta consumption exactly once.
func (s *simulation) checkMatview(ctx context.Context) {
	a := s.mv
	if s.epoch%mvRebuildEvery == 0 {
		if err := a.rebuild(); err != nil {
			s.fail("view-parity", fmt.Sprintf("rebuild from checkpoint: %v", err))
			return
		}
		s.logf("e%d mv rebuild applied=%d", s.epoch, a.m.AppliedTS())
	}
	st, err := a.m.Refresh(ctx)
	if err != nil {
		s.logf("e%d mv refresh unavailable err=%s", s.epoch, errCategory(err))
		if rerr := a.rebuild(); rerr != nil {
			s.fail("view-parity", fmt.Sprintf("rebuild after failed refresh: %v", rerr))
		}
		return
	}
	s.logf("e%d mv refresh events=%d groups=%d upserts=%d deletes=%d",
		s.epoch, st.Events, st.GroupsChanged, st.Upserts, st.Deletes)
	detail, err := s.matviewParity(ctx, st.SnapshotTS)
	switch {
	case err != nil:
		s.logf("e%d mv parity unavailable err=%s", s.epoch, errCategory(err))
	case detail != "":
		s.fail("view-parity", detail)
	default:
		s.logf("e%d mv parity ok", s.epoch)
	}
}

// matviewParity recomputes the defining query at the refresh's pinned
// snapshot and diffs it against the maintained view table. An empty
// detail means parity; a read error means the check is unavailable this
// epoch.
func (s *simulation) matviewParity(ctx context.Context, at truetime.Timestamp) (string, error) {
	want, err := s.eng.QueryAt(ctx, s.mv.def.SelectSQL, at)
	if err != nil {
		return "", err
	}
	got, err := s.eng.Query(ctx, "SELECT region, accounts, balance FROM "+string(tableByRegion))
	if err != nil {
		return "", err
	}
	lost, phantom := multisetDiff(renderResult(want), renderResult(got))
	if len(lost) == 0 && len(phantom) == 0 {
		return "", nil
	}
	return fmt.Sprintf("at=%d lost=%d phantom=%d lostRows=%v phantomRows=%v",
		at, len(lost), len(phantom), sampleRows(lost), sampleRows(phantom)), nil
}

// drainMatview is the post-heal strict check: with every task restarted
// and chaos off, the refresh must succeed (rebuilding from the
// checkpoint between attempts) and the view must equal the recompute —
// no lost rows, no phantoms, through everything the run injected.
func (s *simulation) drainMatview(ctx context.Context) {
	a := s.mv
	var st *matview.RefreshStats
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		if st, err = a.m.Refresh(ctx); err == nil {
			break
		}
		s.logf("drain mv refresh err=%s", errCategory(err))
		if rerr := a.rebuild(); rerr != nil {
			s.fail("view-parity", fmt.Sprintf("rebuild after failed refresh: %v", rerr))
			return
		}
		s.clock.Advance(10 * time.Millisecond)
	}
	if err != nil {
		s.fail("view-parity", fmt.Sprintf("refresh unresolvable after heal: %s", errCategory(err)))
		return
	}
	detail, err := s.matviewParity(ctx, st.SnapshotTS)
	switch {
	case err != nil:
		s.fail("view-parity", fmt.Sprintf("final parity read failed: %s", errCategory(err)))
	case detail != "":
		s.fail("view-parity", "final "+detail)
	default:
		s.logf("final mv parity ok events=%d", st.Events)
	}
}

// renderResult renders a result set to value-level row strings
// (maintenance allocates fresh storage seqs, so only values compare).
func renderResult(res *query.Result) []string {
	var out []string
	for _, row := range res.Rows() {
		var parts []string
		for _, v := range row {
			parts = append(parts, v.String())
		}
		out = append(out, strings.Join(parts, "|"))
	}
	return out
}

// multisetDiff returns a\b and b\a as multisets.
func multisetDiff(a, b []string) (onlyA, onlyB []string) {
	counts := map[string]int{}
	for _, s := range a {
		counts[s]++
	}
	for _, s := range b {
		counts[s]--
	}
	for s, n := range counts {
		for ; n > 0; n-- {
			onlyA = append(onlyA, s)
		}
		for ; n < 0; n++ {
			onlyB = append(onlyB, s)
		}
	}
	sort.Strings(onlyA)
	sort.Strings(onlyB)
	return onlyA, onlyB
}

func sampleRows(rows []string) []string {
	if len(rows) > 3 {
		rows = rows[:3]
	}
	return rows
}
