package sim

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"vortex/internal/client"
	"vortex/internal/meta"
	"vortex/internal/schema"
	"vortex/internal/verify"
)

// stubStream answers each append with the next scripted error and
// acknowledges with storage sequence 7.
type stubStream struct {
	errs    []error
	batches [][]schema.Row
}

func (s *stubStream) AppendTracked(_ context.Context, rows []schema.Row, _ ...client.AppendOption) (int64, int64, error) {
	s.batches = append(s.batches, rows)
	err := s.errs[0]
	s.errs = s.errs[1:]
	return 0, 7, err
}

func (s *stubStream) Finalize(context.Context) (int64, error) { return 0, nil }

func (s *stubStream) Info() meta.StreamInfo { return meta.StreamInfo{ID: "s-stub", Table: tableLedger} }

// TestWriterOutcomeTable drives every row of the writer's outcome table,
// on a fresh batch and on the retry of a batch in doubt, and checks what
// each row leaves behind: the ledger record, the next pinned offset, the
// batch in doubt and the stream handle.
func TestWriterOutcomeTable(t *testing.T) {
	lost := errors.New("response dropped")
	for _, tc := range []struct {
		name     string
		retry    bool // a first attempt left the batch in doubt
		err      error
		want     outcome
		seq      int64 // FirstSeq of the ledger record; 0 = no record
		pending  bool
		reopened bool
	}{
		{"ok", false, nil, acked, 7, false, false},
		{"wrong offset", false, fmt.Errorf("append: %w", client.ErrWrongOffset), landed, -1, false, false},
		{"finalized", false, fmt.Errorf("append: %w", client.ErrStreamFinalized), reopen, 0, false, true},
		{"other", false, lost, inDoubt, 0, true, false},
		{"retry ok", true, nil, acked, 7, false, false},
		{"retry wrong offset", true, fmt.Errorf("append: %w", client.ErrWrongOffset), landed, -1, false, false},
		{"retry finalized", true, fmt.Errorf("append: %w", client.ErrStreamFinalized), inDoubt, 0, true, false},
		{"retry other", true, lost, inDoubt, 0, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			st := &stubStream{}
			w := &writer{h: &harness{res: &Result{}, ledger: verify.NewLedger()}, table: tableLedger, stream: st, next: 3}
			w.applied = w.record
			var got []outcome
			w.settled = func(retry bool, b *pendingBatch, o outcome, _ error) {
				if b.off != 3 {
					t.Errorf("attempt at offset %d, want the pinned 3", b.off)
				}
				got = append(got, o)
			}
			rows := []schema.Row{schema.NewRow(schema.String("a")), schema.NewRow(schema.String("b"))}
			if tc.retry {
				st.errs = []error{lost, tc.err}
				w.append(ctx, rows)
				w.resolve(ctx)
				if len(st.batches) != 2 || &st.batches[1][0] != &rows[0] {
					t.Fatalf("resolve did not retry the batch in doubt: %d attempts", len(st.batches))
				}
			} else {
				st.errs = []error{tc.err}
				w.append(ctx, rows)
			}
			if last := got[len(got)-1]; last != tc.want {
				t.Fatalf("outcome %d, want %d", last, tc.want)
			}

			recs := w.h.ledger.Appends()
			wantNext := int64(3)
			if tc.seq != 0 {
				wantNext = 5
				if len(recs) != 1 || recs[0].FirstSeq != tc.seq || recs[0].Offset != 3 || recs[0].RowCount != 2 || recs[0].Stream != "s-stub" {
					t.Fatalf("ledger %+v, want one record of 2 rows at offset 3 with FirstSeq %d", recs, tc.seq)
				}
				if w.h.res.Appends != 1 || w.h.res.Rows != 2 {
					t.Fatalf("counted %d appends and %d rows, want 1 and 2", w.h.res.Appends, w.h.res.Rows)
				}
			} else if len(recs) != 0 || w.h.res.Appends != 0 {
				t.Fatalf("a batch not known durable was recorded: %+v", recs)
			}
			if w.next != wantNext {
				t.Fatalf("next offset %d, want %d", w.next, wantNext)
			}
			if (w.pending != nil) != tc.pending || (tc.pending && w.pending.off != 3) {
				t.Fatalf("pending %+v, want in doubt = %v at offset 3", w.pending, tc.pending)
			}
			if (w.stream == nil) != tc.reopened {
				t.Fatalf("stream dropped = %v, want %v", w.stream == nil, tc.reopened)
			}
		})
	}
}
