package client

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"vortex/internal/meta"
	"vortex/internal/schema"
)

// stubStream answers each append with the next scripted error and
// acknowledges with storage sequence 7.
type stubStream struct {
	errs    []error
	batches [][]schema.Row
}

func (s *stubStream) AppendTracked(_ context.Context, rows []schema.Row, _ ...AppendOption) (int64, int64, error) {
	s.batches = append(s.batches, rows)
	err := s.errs[0]
	s.errs = s.errs[1:]
	return 0, 7, err
}

func (s *stubStream) Finalize(context.Context) (int64, error) { return 0, nil }

func (s *stubStream) Info() meta.StreamInfo { return meta.StreamInfo{ID: "s-stub", Table: "t.stub"} }

// appliedBatch is one Applied call: what a ledger would record.
type appliedBatch struct {
	stream        meta.StreamID
	off, n, seq   int64
	firstRowAlias bool // the batch's rows are the caller's, not a copy
}

// TestWriterOutcomeTable drives every row of the writer's outcome table,
// on a fresh batch and on the retry of a batch in doubt, and checks what
// each row leaves behind: the applied batch, the next pinned offset, the
// batch in doubt and the stream handle.
func TestWriterOutcomeTable(t *testing.T) {
	lost := errors.New("response dropped")
	for _, tc := range []struct {
		name     string
		retry    bool // a first attempt left the batch in doubt
		err      error
		want     Outcome
		seq      int64 // FirstSeq of the applied batch; 0 = not applied
		pending  bool
		reopened bool
	}{
		{"ok", false, nil, Acked, 7, false, false},
		{"wrong offset", false, fmt.Errorf("append: %w", ErrWrongOffset), Landed, -1, false, false},
		{"finalized", false, fmt.Errorf("append: %w", ErrStreamFinalized), Reopen, 0, false, true},
		{"other", false, lost, InDoubt, 0, true, false},
		{"retry ok", true, nil, Acked, 7, false, false},
		{"retry wrong offset", true, fmt.Errorf("append: %w", ErrWrongOffset), Landed, -1, false, false},
		{"retry finalized", true, fmt.Errorf("append: %w", ErrStreamFinalized), InDoubt, 0, true, false},
		{"retry other", true, lost, InDoubt, 0, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			st := &stubStream{}
			w := NewWriter(nil, "t.stub")
			w.Attach(st, 3)
			rows := []schema.Row{schema.NewRow(schema.String("a")), schema.NewRow(schema.String("b"))}
			var applied []appliedBatch
			w.Applied = func(got []schema.Row, off, seq int64) {
				applied = append(applied, appliedBatch{w.Stream().Info().ID, off, int64(len(got)), seq, &got[0] == &rows[0]})
			}
			var got []Outcome
			w.Settled = func(retry bool, b *Batch, o Outcome, _ error) {
				if b.Off != 3 {
					t.Errorf("attempt at offset %d, want the pinned 3", b.Off)
				}
				got = append(got, o)
			}
			var last Outcome
			if tc.retry {
				st.errs = []error{lost, tc.err}
				w.Append(ctx, rows)
				last, _ = w.Resolve(ctx)
				if len(st.batches) != 2 || &st.batches[1][0] != &rows[0] {
					t.Fatalf("resolve did not retry the batch in doubt: %d attempts", len(st.batches))
				}
			} else {
				st.errs = []error{tc.err}
				last, _ = w.Append(ctx, rows)
			}
			if g := got[len(got)-1]; g != tc.want || last != tc.want {
				t.Fatalf("outcome settled %d, returned %d, want %d", g, last, tc.want)
			}

			wantNext := int64(3)
			if tc.seq != 0 {
				wantNext = 5
				if len(applied) != 1 || applied[0] != (appliedBatch{"s-stub", 3, 2, tc.seq, true}) {
					t.Fatalf("applied %+v, want one batch of 2 rows at offset 3 with FirstSeq %d", applied, tc.seq)
				}
			} else if len(applied) != 0 {
				t.Fatalf("a batch not known durable was applied: %+v", applied)
			}
			if w.Next() != wantNext {
				t.Fatalf("next offset %d, want %d", w.Next(), wantNext)
			}
			if p := w.Pending(); (p != nil) != tc.pending || (tc.pending && p.Off != 3) {
				t.Fatalf("pending %+v, want in doubt = %v at offset 3", p, tc.pending)
			}
			if (w.Stream() == nil) != tc.reopened {
				t.Fatalf("stream dropped = %v, want %v", w.Stream() == nil, tc.reopened)
			}
		})
	}
}

// TestWriterWriteResolvesInDoubt checks Write's fixed budget: a batch in
// doubt is retried at its offset until it lands, and after the budget
// the last attempt's error comes back with the batch still pending.
func TestWriterWriteResolvesInDoubt(t *testing.T) {
	ctx := context.Background()
	lost := errors.New("response dropped")
	rows := []schema.Row{schema.NewRow(schema.String("a"))}

	st := &stubStream{errs: []error{lost, lost, fmt.Errorf("append: %w", ErrWrongOffset)}}
	w := NewWriter(nil, "t.stub")
	w.Attach(st, 0)
	if o, err := w.Write(ctx, rows); o != Landed || err != nil || w.Pending() != nil || w.Next() != 1 {
		t.Fatalf("Write = %d, %v; pending %+v next %d; want a landed batch", o, err, w.Pending(), w.Next())
	}

	st = &stubStream{errs: []error{lost, lost, lost, lost}}
	w.Attach(st, 0)
	if o, err := w.Write(ctx, rows); o != InDoubt || !errors.Is(err, lost) || w.Pending() == nil {
		t.Fatalf("Write = %d, %v; want the batch in doubt with its error", o, err)
	}
	if len(st.batches) != 1+writeResolves {
		t.Fatalf("%d attempts, want %d", len(st.batches), 1+writeResolves)
	}
}
