package sim

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"vortex/internal/client"
	"vortex/internal/meta"
	"vortex/internal/schema"
	"vortex/internal/workload"
)

func eventsSchema() *schema.Schema { return workload.EventsSchema() }
func logSchema() *schema.Schema    { return workload.LogSchema() }

// writer is one actor's exactly-once appender: the client's Writer (the
// outcome table, the pinned offsets, the batch in doubt) plus what the
// harness adds — the event-log name, the counters and the actor's
// client. Every actor of both programs appends through one; an actor
// keeps only its row generation and what it does with a batch once the
// batch is durable.
type writer struct {
	*client.Writer
	h    *harness
	name string // event-log prefix: c0, dml, mv, w3
	cl   *client.Client

	// applied takes each batch once it is known durable (the Writer's
	// Applied); the harness counts the batch after it.
	applied func(rows []schema.Row, off, seq int64)
}

// newWriter builds an actor's writer on table. The caller sets applied;
// every attempt is logged unless the caller replaces Settled.
func (h *harness) newWriter(name string, table meta.TableID, cl *client.Client) *writer {
	w := &writer{Writer: client.NewWriter(cl, table), h: h, name: name, cl: cl}
	w.Applied = func(rows []schema.Row, off, seq int64) {
		w.applied(rows, off, seq)
		h.res.Appends++
		h.res.Rows += int64(len(rows))
	}
	w.Settled = w.logAttempt
	return w
}

// logAttempt is the Settled callback of the random program's writers:
// one event-log line per attempt.
func (w *writer) logAttempt(retry bool, b *client.Batch, o client.Outcome, err error) {
	e, n := w.h.epoch, len(b.Rows)
	switch {
	case retry && o == client.Acked:
		w.h.logf("e%d %s resolve off=%d retried", e, w.name, b.Off)
	case retry && o == client.Landed:
		w.h.logf("e%d %s resolve off=%d landed", e, w.name, b.Off)
	case retry:
		w.h.logf("e%d %s resolve off=%d err=%s still-pending", e, w.name, b.Off, errCategory(err))
	case o == client.Acked:
		w.h.logf("e%d %s append n=%d off=%d ok", e, w.name, n, b.Off)
	case o == client.Landed:
		w.h.logf("e%d %s append n=%d off=%d landed (ack lost)", e, w.name, n, b.Off)
	case o == client.Reopen:
		w.h.logf("e%d %s append off=%d err=STREAM_FINALIZED rotate", e, w.name, b.Off)
	default:
		w.h.logf("e%d %s append n=%d off=%d err=%s pending", e, w.name, n, b.Off, errCategory(err))
	}
}

// rotate finalizes the writer's stream (Writer.Rotate) and logs it.
func (w *writer) rotate(ctx context.Context) {
	finalized, err := w.Rotate(ctx)
	switch {
	case err != nil:
		w.h.logf("e%d %s finalize err=%s", w.h.epoch, w.name, errCategory(err))
	case finalized:
		w.h.logf("e%d %s finalize off=%d", w.h.epoch, w.name, w.Next())
	}
}

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
	w := s.newWriter(fmt.Sprintf("c%d", id), tableLedger, s.region.NewClient(copts))
	w.applied = s.ledger.Applied(w.Writer)
	return &simClient{
		writer: w,
		rng:    rand.New(rand.NewSource(seed)),
		gen:    workload.NewGen(seed, 50),
	}
}

// step performs one workload operation.
func (c *simClient) step(ctx context.Context) {
	if c.Pending() != nil {
		c.Resolve(ctx)
		return
	}
	if c.Stream() == nil {
		if err := c.Open(ctx, meta.Unbuffered); err != nil {
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
		c.Append(ctx, c.gen.EventRows(c.h.clock.At().Time(), n, 0))
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
		writer: s.newWriter("dml", tableDML, s.region.NewClient(copts)),
		sim:    s,
		rng:    rand.New(rand.NewSource(seed)),
		gen:    workload.NewGen(seed, 8), // small key pool → contended deletes
		model:  make(map[string]int64),
	}
	d.applied = d.countRows
	return d
}

func (d *dmlActor) idle() bool { return d.Pending() == nil && d.pendingDel == "" }

func (d *dmlActor) modelCount() int64 { return d.total }

func (d *dmlActor) step(ctx context.Context) {
	if !d.idle() {
		d.Resolve(ctx)
		d.retryDelete(ctx)
		return
	}
	if d.Stream() == nil {
		if err := d.Open(ctx, meta.Unbuffered); err != nil {
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
	d.Append(ctx, rows)
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
