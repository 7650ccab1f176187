package sim

import (
	"context"
	"errors"

	"vortex/internal/client"
	"vortex/internal/meta"
	"vortex/internal/schema"
	"vortex/internal/verify"
)

// writer is the simulation's one exactly-once appender, the client
// pattern the paper's guarantee rests on (§4.2.2, §6.3). It owns one
// stream and appends each batch at a pinned offset, so a retry can never
// land a batch twice. Every actor of both programs appends through one;
// an actor keeps only its row generation and what it does with a batch
// once the batch is durable.
type writer struct {
	h       *harness
	name    string // event-log prefix: c0, dml, mv, w3
	table   meta.TableID
	cl      *client.Client
	stream  stream
	next    int64         // next pinned stream offset
	pending *pendingBatch // the batch in doubt, retried at its offset
	wrote   bool          // the stream has rows (worth finalizing)

	// applied takes each batch once it is known durable. seq is the
	// storage sequence of its first row, or -1 when WRONG_OFFSET told
	// the writer the batch landed and only its ack was lost.
	applied func(rows []schema.Row, off, seq int64)
	// settled sees how each attempt ended: the random program logs it,
	// the overload program holds a failure to an honest shed.
	settled func(retry bool, b *pendingBatch, o outcome, err error)
}

// stream is what a writer uses of a client stream.
type stream interface {
	AppendTracked(ctx context.Context, rows []schema.Row, opts ...client.AppendOption) (int64, int64, error)
	Finalize(ctx context.Context) (int64, error)
	Info() meta.StreamInfo
}

// pendingBatch is one batch at its pinned offset: an attempt in flight,
// or an append whose outcome is in doubt — the rows may or may not be
// durable.
type pendingBatch struct {
	rows []schema.Row
	off  int64
}

// outcome is how one attempt at a pinned offset settled.
type outcome int

const (
	acked   outcome = iota // acknowledged
	landed                 // WRONG_OFFSET: an earlier attempt landed, its ack was lost
	reopen                 // STREAM_FINALIZED: the batch is dropped, the next step opens a stream
	inDoubt                // anything else: the batch is pending, retried at its offset
)

// settle is the outcome table. The writer is its stream's only writer
// and acknowledged prefixes are durable, so a stream already past the
// pinned offset means the batch landed: the client library retries
// internally, and a dropped response surfaces as WRONG_OFFSET even on a
// first call. Recorded with an unknown sequence, it is resolved by
// content; if that reasoning is ever wrong, the verifier reports
// phantoms. A finalized stream refuses a fresh batch, which is dropped;
// a retried one may have landed before the finalize, so it stays pinned
// to its stream.
func settle(err error, retry bool) outcome {
	switch {
	case err == nil:
		return acked
	case errors.Is(err, client.ErrWrongOffset):
		return landed
	case errors.Is(err, client.ErrStreamFinalized) && !retry:
		return reopen
	default:
		return inDoubt
	}
}

// open starts a fresh stream on the writer's table.
func (w *writer) open(ctx context.Context) error {
	st, err := w.cl.CreateStream(ctx, w.table, meta.Unbuffered)
	if err != nil {
		return err
	}
	w.stream, w.next, w.wrote = st, 0, false
	return nil
}

// append writes a fresh batch at the next pinned offset.
func (w *writer) append(ctx context.Context, rows []schema.Row) {
	w.try(ctx, &pendingBatch{rows: rows, off: w.next}, false)
}

// resolve retries the batch in doubt at its pinned offset.
func (w *writer) resolve(ctx context.Context) {
	if w.pending != nil && w.stream != nil {
		w.try(ctx, w.pending, true)
	}
}

func (w *writer) try(ctx context.Context, b *pendingBatch, retry bool) {
	_, seq, err := w.stream.AppendTracked(ctx, b.rows, client.AtOffset(b.off))
	o := settle(err, retry)
	switch o {
	case acked, landed:
		if o == landed {
			seq = -1
		}
		w.pending, w.next, w.wrote = nil, b.off+int64(len(b.rows)), true
		w.applied(b.rows, b.off, seq)
		w.h.res.Appends++
		w.h.res.Rows += int64(len(b.rows))
	case reopen:
		w.stream = nil
	case inDoubt:
		w.pending = b
	}
	w.settled(retry, b, o, err)
}

// record is the applied callback of a writer whose table the §6.3
// verifier checks: the batch goes into the harness ledger.
func (w *writer) record(rows []schema.Row, off, seq int64) {
	w.h.ledger.Record(verify.NewAppendRecord(w.table, w.stream.Info().ID, off, rows, seq))
}

// logAttempt is the settled callback of the random program's writers:
// one event-log line per attempt.
func (w *writer) logAttempt(retry bool, b *pendingBatch, o outcome, err error) {
	e, n := w.h.epoch, len(b.rows)
	switch {
	case retry && o == acked:
		w.h.logf("e%d %s resolve off=%d retried", e, w.name, b.off)
	case retry && o == landed:
		w.h.logf("e%d %s resolve off=%d landed", e, w.name, b.off)
	case retry:
		w.h.logf("e%d %s resolve off=%d err=%s still-pending", e, w.name, b.off, errCategory(err))
	case o == acked:
		w.h.logf("e%d %s append n=%d off=%d ok", e, w.name, n, b.off)
	case o == landed:
		w.h.logf("e%d %s append n=%d off=%d landed (ack lost)", e, w.name, n, b.off)
	case o == reopen:
		w.h.logf("e%d %s append off=%d err=STREAM_FINALIZED rotate", e, w.name, b.off)
	default:
		w.h.logf("e%d %s append n=%d off=%d err=%s pending", e, w.name, n, b.off, errCategory(err))
	}
}

// rotate finalizes the stream, making its fragments conversion
// candidates; the next step opens a fresh one. A batch in doubt stays
// pinned to its stream, so a writer holding one does not rotate.
func (w *writer) rotate(ctx context.Context) {
	if w.stream == nil || w.pending != nil || !w.wrote {
		return
	}
	if _, err := w.stream.Finalize(ctx); err != nil {
		w.h.logf("e%d %s finalize err=%s", w.h.epoch, w.name, errCategory(err))
		return
	}
	w.h.logf("e%d %s finalize off=%d", w.h.epoch, w.name, w.next)
	w.stream = nil
}
