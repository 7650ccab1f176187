package client

import (
	"context"
	"errors"

	"vortex/internal/meta"
	"vortex/internal/schema"
)

// Writer is the exactly-once appender, the client pattern the paper's
// guarantee rests on (§4.2.2, §6.3). It owns one stream and appends each
// batch at a pinned offset, so a retry can never land a batch twice, and
// it settles every attempt by one outcome table. Every pinned-offset
// append in the program goes through a Writer; a caller keeps only what
// it does with a batch once the batch is durable (Applied) and how it
// reacts to an attempt (Settled, or the values Append returns). Not safe
// for concurrent use: a stream has a single append point.
type Writer struct {
	c       *Client
	table   meta.TableID
	stream  AppendStream
	next    int64  // next pinned stream offset
	pending *Batch // the batch in doubt, retried at its offset
	wrote   bool   // the stream has rows (worth finalizing)

	// Applied, when set, takes each batch once it is known durable. seq
	// is the storage sequence of its first row, or -1 when WRONG_OFFSET
	// told the writer the batch landed and only its ack was lost.
	Applied func(rows []schema.Row, off, seq int64)
	// Settled, when set, sees how each attempt ended.
	Settled func(retry bool, b *Batch, o Outcome, err error)
}

// AppendStream is what a Writer uses of a stream; *Stream is one, and a
// test can stub it.
type AppendStream interface {
	AppendTracked(ctx context.Context, rows []schema.Row, opts ...AppendOption) (int64, int64, error)
	Finalize(ctx context.Context) (int64, error)
	Info() meta.StreamInfo
}

// Batch is one batch at its pinned offset: an attempt in flight, or an
// append whose outcome is in doubt — the rows may or may not be durable.
type Batch struct {
	Rows []schema.Row
	Off  int64
}

// Outcome is how one attempt at a pinned offset settled.
type Outcome int

const (
	Acked   Outcome = iota // acknowledged
	Landed                 // WRONG_OFFSET: an earlier attempt landed, its ack was lost
	Reopen                 // STREAM_FINALIZED: the batch is dropped, the caller opens a stream
	InDoubt                // anything else: the batch is pending, retried at its offset
)

// writeResolves is how many times Write retries a batch in doubt at its
// pinned offset before it returns the batch's error.
const writeResolves = 3

// settle is the outcome table. The writer is its stream's only writer
// (or one of identical twins, which write the same rows at the same
// offsets) and acknowledged prefixes are durable, so a stream already
// past the pinned offset means the batch landed: the client library
// retries internally, and a dropped response surfaces as WRONG_OFFSET
// even on a first call. Recorded with an unknown sequence, it is
// resolved by content; if that reasoning is ever wrong, the verifier
// reports phantoms. A finalized stream refuses a fresh batch, which is
// dropped; a retried one may have landed before the finalize, so it
// stays pinned to its stream.
func settle(err error, retry bool) Outcome {
	switch {
	case err == nil:
		return Acked
	case errors.Is(err, ErrWrongOffset):
		return Landed
	case errors.Is(err, ErrStreamFinalized) && !retry:
		return Reopen
	default:
		return InDoubt
	}
}

// NewWriter returns a writer on table with no stream yet: Open creates
// one, Attach takes an existing one.
func NewWriter(c *Client, table meta.TableID) *Writer {
	return &Writer{c: c, table: table}
}

// Open creates a fresh stream of type typ on the writer's table and
// appends to it from offset 0.
func (w *Writer) Open(ctx context.Context, typ meta.StreamType) error {
	s, err := w.c.CreateStream(ctx, w.table, typ)
	if err != nil {
		return err
	}
	w.Attach(s, 0)
	return nil
}

// Attach makes s the writer's stream, with its next append pinned at
// offset next — the length the caller knows the stream to have.
func (w *Writer) Attach(s AppendStream, next int64) {
	w.stream, w.next, w.wrote, w.pending = s, next, false, nil
}

// Table returns the table the writer appends to.
func (w *Writer) Table() meta.TableID { return w.table }

// Stream returns the writer's stream, nil when it has none (before Open,
// after Rotate, or after a Reopen outcome).
func (w *Writer) Stream() AppendStream { return w.stream }

// Next returns the offset the next fresh batch is pinned at.
func (w *Writer) Next() int64 { return w.next }

// Pending returns the batch in doubt, nil when there is none.
func (w *Writer) Pending() *Batch { return w.pending }

// Append writes a fresh batch at the next pinned offset and reports how
// the attempt settled.
func (w *Writer) Append(ctx context.Context, rows []schema.Row) (Outcome, error) {
	return w.try(ctx, &Batch{Rows: rows, Off: w.next}, false)
}

// Resolve retries the batch in doubt at its pinned offset. With none,
// it does nothing and returns Acked.
func (w *Writer) Resolve(ctx context.Context) (Outcome, error) {
	if w.pending == nil || w.stream == nil {
		return Acked, nil
	}
	return w.try(ctx, w.pending, true)
}

// Write appends a fresh batch and, while it stays in doubt, resolves it
// a fixed number of times. The error is nil once the rows are durable
// (Acked or Landed); otherwise it is the last attempt's.
func (w *Writer) Write(ctx context.Context, rows []schema.Row) (Outcome, error) {
	o, err := w.Append(ctx, rows)
	for i := 0; o == InDoubt && i < writeResolves; i++ {
		o, err = w.Resolve(ctx)
	}
	return o, err
}

func (w *Writer) try(ctx context.Context, b *Batch, retry bool) (Outcome, error) {
	_, seq, err := w.stream.AppendTracked(ctx, b.Rows, AtOffset(b.Off))
	o := settle(err, retry)
	switch o {
	case Acked, Landed:
		if o == Landed {
			seq, err = -1, nil
		}
		w.pending, w.next, w.wrote = nil, b.Off+int64(len(b.Rows)), true
		if w.Applied != nil {
			w.Applied(b.Rows, b.Off, seq)
		}
	case Reopen:
		w.stream = nil
	case InDoubt:
		w.pending = b
	}
	if w.Settled != nil {
		w.Settled(retry, b, o, err)
	}
	return o, err
}

// Rotate finalizes the stream, making its fragments conversion
// candidates; the next Open starts a fresh one. A batch in doubt stays
// pinned to its stream, so a writer holding one — or one with no stream
// or nothing written — does not rotate, and Rotate reports false. On a
// finalize error the writer keeps its stream.
func (w *Writer) Rotate(ctx context.Context) (bool, error) {
	if w.stream == nil || w.pending != nil || !w.wrote {
		return false, nil
	}
	if _, err := w.stream.Finalize(ctx); err != nil {
		return false, err
	}
	w.stream = nil
	return true, nil
}
