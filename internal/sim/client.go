package sim

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"vortex/internal/client"
	"vortex/internal/schema"
	"vortex/internal/workload"
)

func eventsSchema() *schema.Schema { return workload.EventsSchema() }
func logSchema() *schema.Schema    { return workload.LogSchema() }

// simClient is one logically concurrent workload client: it owns a
// dedicated stream on the ledger table (the paper's model), appends
// through its exactly-once writer and reads the table back.
type simClient struct {
	*writer
	rng *rand.Rand
	gen *workload.Gen
}

func newSimClient(id int, s *simulation) *simClient {
	copts := client.DefaultOptions()
	copts.Seed = s.cfg.Seed*1009 + int64(id)
	seed := s.cfg.Seed*7907 + int64(id)
	w := &writer{h: s.harness, name: fmt.Sprintf("c%d", id), table: tableLedger, cl: s.region.NewClient(copts)}
	w.applied, w.settled = w.record, w.logAttempt
	return &simClient{
		writer: w,
		rng:    rand.New(rand.NewSource(seed)),
		gen:    workload.NewGen(seed, 50),
	}
}

// step performs one workload operation.
func (c *simClient) step(ctx context.Context) {
	if c.pending != nil {
		c.resolve(ctx)
		return
	}
	if c.stream == nil {
		if err := c.open(ctx); err != nil {
			c.h.logf("e%d %s create-stream err=%s", c.h.epoch, c.name, errCategory(err))
		} else {
			c.h.logf("e%d %s stream open", c.h.epoch, c.name)
		}
		return
	}
	switch c.rng.Intn(10) {
	case 7, 8:
		c.read(ctx)
	default:
		n := 1 + c.rng.Intn(3)
		c.append(ctx, c.gen.EventRows(c.h.clock.At().Time(), n, 0))
	}
}

// read runs a strictly sequential snapshot scan (assignment by
// assignment) so chaos occurrence accounting stays replayable even with
// the schedule live.
func (c *simClient) read(ctx context.Context) {
	plan, err := c.cl.Plan(ctx, tableLedger, 0)
	if err != nil {
		c.h.logf("e%d %s read err=%s", c.h.epoch, c.name, errCategory(err))
		return
	}
	total := 0
	for _, a := range plan.Assignments {
		rows, err := c.cl.Scan(ctx, plan, a)
		if err != nil {
			c.h.logf("e%d %s read err=%s", c.h.epoch, c.name, errCategory(err))
			return
		}
		total += len(rows)
	}
	c.h.res.Reads++
	c.h.logf("e%d %s read rows=%d", c.h.epoch, c.name, total)
}

// dmlActor exercises live DML against background maintenance: it
// appends keyed rows to its own table and issues DELETEs through the
// query engine, tracking an exact row-count model. Deletes are
// idempotent (keyed predicates), so an in-doubt delete is retried until
// it succeeds; the model is only compared when nothing is in flight.
type dmlActor struct {
	*writer
	sim *simulation
	rng *rand.Rand
	gen *workload.Gen

	model      map[string]int64 // host key → live row count
	total      int64
	pendingDel string // key of an in-doubt DELETE ("" = none)
}

func newDMLActor(s *simulation) *dmlActor {
	seed := s.cfg.Seed*6133 + 17
	copts := client.DefaultOptions()
	copts.Seed = seed
	d := &dmlActor{
		writer: &writer{h: s.harness, name: "dml", table: tableDML, cl: s.region.NewClient(copts)},
		sim:    s,
		rng:    rand.New(rand.NewSource(seed)),
		gen:    workload.NewGen(seed, 8), // small key pool → contended deletes
		model:  make(map[string]int64),
	}
	d.applied, d.settled = d.countRows, d.logAttempt
	return d
}

func (d *dmlActor) idle() bool { return d.pending == nil && d.pendingDel == "" }

func (d *dmlActor) modelCount() int64 { return d.total }

func (d *dmlActor) step(ctx context.Context) {
	if !d.idle() {
		d.resolve(ctx)
		d.retryDelete(ctx)
		return
	}
	if d.stream == nil {
		if err := d.open(ctx); err != nil {
			d.sim.logf("e%d dml create-stream err=%s", d.sim.epoch, errCategory(err))
		}
		return
	}
	if d.total > 0 && d.rng.Intn(4) == 0 {
		d.delete(ctx)
		return
	}
	n := 1 + d.rng.Intn(3)
	rows := make([]schema.Row, n)
	for i := range rows {
		rows[i] = d.gen.LogRow(d.sim.clock.At().Time())
	}
	d.append(ctx, rows)
}

// countRows is the DML actor's applied callback: the model counts the
// landed rows per host key.
func (d *dmlActor) countRows(rows []schema.Row, _, _ int64) {
	for _, r := range rows {
		d.model[r.Values[1].AsString()]++ // field 1 is the host key
		d.total++
	}
}

func (d *dmlActor) delete(ctx context.Context) {
	// Deterministic key choice: the smallest live key.
	keys := make([]string, 0, len(d.model))
	for k, n := range d.model {
		if n > 0 {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return
	}
	sort.Strings(keys)
	key := keys[d.rng.Intn(len(keys))]
	d.runDelete(ctx, key)
}

func (d *dmlActor) runDelete(ctx context.Context, key string) {
	res, err := d.sim.eng.Query(ctx, fmt.Sprintf("DELETE FROM %s WHERE host = '%s'", tableDML, key))
	if err != nil {
		// In doubt: the mask may or may not have committed. The keyed
		// predicate makes a retry idempotent; block appends (which could
		// re-add the key) until the delete definitely applied.
		d.pendingDel = key
		d.sim.logf("e%d dml delete key=%s err=%s pending", d.sim.epoch, key, errCategory(err))
		return
	}
	d.total -= d.model[key]
	d.model[key] = 0
	d.pendingDel = ""
	d.sim.res.DMLs++
	d.sim.logf("e%d dml delete key=%s affected=%d", d.sim.epoch, key, res.Stats.RowsAffected)
}

// retryDelete reruns an in-doubt DELETE.
func (d *dmlActor) retryDelete(ctx context.Context) {
	if d.pendingDel != "" {
		d.runDelete(ctx, d.pendingDel)
	}
}

// storedCount queries COUNT(*) through the engine at the latest
// snapshot.
func (d *dmlActor) storedCount(ctx context.Context) (int64, error) {
	res, err := d.sim.eng.Query(ctx, fmt.Sprintf("SELECT COUNT(*) FROM %s", tableDML))
	if err != nil {
		return 0, err
	}
	return res.Rows()[0][0].AsInt64(), nil
}
