package matview_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"vortex/internal/chaos"
	"vortex/internal/client"
	"vortex/internal/core"
	"vortex/internal/matview"
	"vortex/internal/query"
	"vortex/internal/readsession"
	"vortex/internal/schema"
	"vortex/internal/truetime"
)

func newChaosEnv(t *testing.T, sched *chaos.Schedule) *env {
	t.Helper()
	clock := truetime.NewManual(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC), time.Millisecond)
	cfg := core.DefaultConfig()
	cfg.Clock = clock
	cfg.MaxFragmentBytes = 512
	cfg.Chaos = sched
	r := core.NewRegion(cfg)
	c := r.NewClient(client.DefaultOptions())
	e := &env{
		r: r, c: c,
		eng: query.New(c, r.BigMeta, r.Net, r.Router(), query.Config{}),
		ctx: context.Background(),
		t:   t,
	}
	if err := c.CreateTable(e.ctx, "d.orders", ordersSchema()); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable(e.ctx, "d.customers", customersSchema()); err != nil {
		t.Fatal(err)
	}
	return e
}

// refreshResilient runs one maintenance cycle, treating every failed
// attempt as a maintainer crash: the in-memory state may hold a
// partially applied delta, so recovery is always a rebuild from the
// last committed checkpoint — never a retry on the same object.
func refreshResilient(e *env, def *matview.Definition, store *matview.MemStore, m *matview.Maintainer, maxFaults int) (*matview.Maintainer, *matview.RefreshStats, int) {
	e.t.Helper()
	faults := 0
	for {
		st, err := m.Refresh(e.ctx)
		if err == nil {
			return m, st, faults
		}
		faults++
		if faults > maxFaults {
			e.t.Fatalf("refresh fault %d: %v", faults, err)
		}
		m2, err2 := matview.NewMaintainer(e.c, def, store, 2)
		if err2 != nil {
			e.t.Fatalf("rebuild after fault: %v", err2)
		}
		m = m2
	}
}

// lostPhantom diffs the maintained view against the defining query
// recomputed at the cycle's pinned snapshot. lost counts recompute rows
// absent from the view; phantom counts view rows the recompute never
// produced. Exactly-once maintenance means both are always zero.
func (e *env) lostPhantom(def *matview.Definition, at truetime.Timestamp) (lost, phantom int) {
	e.t.Helper()
	want, err := e.eng.QueryAt(e.ctx, def.SelectSQL, at)
	if err != nil {
		e.t.Fatal(err)
	}
	got, err := e.eng.Query(e.ctx, "SELECT country, orders, qty FROM "+string(def.View))
	if err != nil {
		e.t.Fatal(err)
	}
	counts := map[string]int{}
	for _, row := range renderedRows(want) {
		counts[row]++
	}
	for _, row := range renderedRows(got) {
		if counts[row] > 0 {
			counts[row]--
		} else {
			phantom++
		}
	}
	for _, n := range counts {
		lost += n
	}
	return lost, phantom
}

// TestChaosMaintenanceSuite drives a joined view through the full
// failure menu — RPC stream drops under the source connector, an SMS
// failover, and maintainer crashes recovered from the checkpoint store
// — while both base tables churn. After every committed cycle the view
// must digest-equal the defining query recomputed at the cycle's pinned
// snapshot: lost = 0, phantom = 0.
func TestChaosMaintenanceSuite(t *testing.T) {
	sched := chaos.NewSchedule().
		FailAt(chaos.PointStreamResp, readsession.DefaultAddr, 2, 7, 13)
	e := newChaosEnv(t, sched)
	e.r.ReadSessions.SetBatchRows(8)

	countries := []string{"AR", "CL", "UY", "PE"}
	for i := 0; i < 8; i++ {
		e.append("d.customers", customer(schema.ChangeUpsert, fmt.Sprintf("c%d", i), countries[i%len(countries)]))
	}
	for i := 0; i < 40; i++ {
		e.append("d.orders", order(schema.ChangeUpsert, fmt.Sprintf("o%d", i), fmt.Sprintf("c%d", i%8), int64(i)))
	}

	def, m, store := e.compileCreate(joinViewSQL)

	totalFaults := 0
	check := func(st *matview.RefreshStats) {
		t.Helper()
		lost, phantom := e.lostPhantom(def, st.SnapshotTS)
		if lost != 0 || phantom != 0 {
			t.Fatalf("view diverged: lost=%d phantom=%d (stats %+v)", lost, phantom, st)
		}
	}

	// Initial build rides through the first injected stream drop.
	m, st, faults := refreshResilient(e, def, store, m, 6)
	totalFaults += faults
	check(st)

	for epoch := 1; epoch <= 5; epoch++ {
		// Churn both sides: orders re-key, shrink, and grow; customers
		// migrate between countries (moving whole groups at once).
		for i := 0; i < 10; i++ {
			n := epoch*40 + i
			e.append("d.orders", order(schema.ChangeUpsert, fmt.Sprintf("o%d", n%60), fmt.Sprintf("c%d", n%8), int64(n)))
		}
		e.append("d.orders", order(schema.ChangeDelete, fmt.Sprintf("o%d", (epoch*7)%40), "", 0))
		e.append("d.customers", customer(schema.ChangeUpsert, fmt.Sprintf("c%d", epoch%8), countries[(epoch+1)%len(countries)]))

		switch epoch {
		case 2:
			// SMS failover: every metadata task dies mid-run. The cycle
			// may fail while they are down; recovery restarts them and
			// rebuilds the maintainer from the store.
			for _, addr := range e.r.SMSAddrs() {
				e.r.CrashSMSTask(addr)
			}
			_, err := m.Refresh(e.ctx)
			for _, addr := range e.r.SMSAddrs() {
				e.r.RestartSMSTask(addr)
			}
			if err != nil {
				m2, err2 := matview.NewMaintainer(e.c, def, store, 2)
				if err2 != nil {
					t.Fatal(err2)
				}
				m = m2
			}
		case 4:
			// Hard maintainer crash between cycles: the successor
			// rebuilds every accumulator from the checkpointed rows.
			m2, err := matview.NewMaintainer(e.c, def, store, 2)
			if err != nil {
				t.Fatal(err)
			}
			m = m2
		}

		var faults int
		m, st, faults = refreshResilient(e, def, store, m, 6)
		totalFaults += faults
		check(st)
	}

	if totalFaults == 0 {
		t.Fatal("chaos schedule injected no faults into the maintenance path")
	}
}
