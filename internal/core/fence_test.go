package core

import (
	"context"
	"errors"
	"slices"
	"testing"

	"vortex/internal/blockenc"
	"vortex/internal/chaos"
	"vortex/internal/client"
	"vortex/internal/meta"
	"vortex/internal/schema"
	"vortex/internal/sms"
	"vortex/internal/wire"
)

// fenceEnv is one stream writing through its first streamlet, with the
// values of every acknowledged row.
type fenceEnv struct {
	r     *Region
	c     *client.Client
	s     *client.Stream
	sched *chaos.Schedule
	ctx   context.Context
	acked []int64
}

const fenceTable meta.TableID = "d.fence"

// firstStreamlet is the streamlet the stream wrote through before any
// rotation: the one each case reconciles.
func (e *fenceEnv) firstStreamlet() meta.StreamletID {
	return meta.StreamletIDFor(e.s.Info().ID, 0)
}

// reconcile runs the SMS reconciliation of the first streamlet, as a
// reader's or a rotating writer's would. It may fail only retryably.
func (e *fenceEnv) reconcile(t *testing.T) (*wire.ReconcileResponse, error) {
	t.Helper()
	resp, err := client.CallSMS(e.ctx, e.r.Net, e.r.Router(), fenceTable, wire.Reconcile, &wire.ReconcileRequest{
		Table: fenceTable, Stream: e.s.Info().ID, Streamlet: e.firstStreamlet(),
	})
	if err != nil && !errors.Is(err, sms.ErrUnavailable) {
		t.Fatalf("reconcile: %v", err)
	}
	return resp, err
}

// append appends eventRow(v) for each v through the client and records
// the values once acknowledged.
func (e *fenceEnv) append(t *testing.T, values ...int) {
	t.Helper()
	rows := make([]schema.Row, len(values))
	for i, v := range values {
		rows[i] = eventRow(v)
		e.acked = append(e.acked, int64(v))
	}
	if _, err := e.s.Append(e.ctx, rows, client.AtOffset(-1)); err != nil {
		t.Fatalf("append %v: %v", values, err)
	}
}

// TestReconcileFencesOldWriter reconciles the streamlet a stream writes
// through, then appends through the stream's old server. The server
// either refuses (the client rotates) or, where the reconciliation could
// not fence it and so finalized nothing, keeps the streamlet; either
// way every acknowledged row reads back (§5.6, §7.1).
func TestReconcileFencesOldWriter(t *testing.T) {
	cases := []struct {
		name             string
		maxFragmentBytes int64
		run              func(t *testing.T, e *fenceEnv)
	}{
		{"every sentinel write fails", 0, func(t *testing.T, e *fenceEnv) {
			e.append(t, 0, 1)
			e.append(t, 2)
			e.r.Colossus.Cluster("alpha").FailNextWrites(1)
			e.r.Colossus.Cluster("beta").FailNextWrites(1)
			e.reconcile(t)
			e.append(t, 3)
		}},
		{"reconcile right after a size rotation", 150, func(t *testing.T, e *fenceEnv) {
			// The 8-row block overflows the fragment: f-0 gets its footer,
			// so no sentinel can fence it, and the next append opens f-1.
			e.append(t, 0, 1, 2, 3, 4, 5, 6, 7)
			if _, err := e.reconcile(t); err != nil {
				t.Fatal(err)
			}
			e.append(t, 8)
		}},
		{"sentinel lands on alpha only", 0, func(t *testing.T, e *fenceEnv) {
			e.append(t, 0, 1)
			if sl := e.firstStreamletInfo(t); sl.Clusters[0] == sl.Clusters[1] {
				t.Fatalf("streamlet is single-homed: %v", sl.Clusters)
			}
			e.sched.StartClusterOutage("beta")
			if _, err := e.reconcile(t); err != nil {
				t.Fatal(err)
			}
			e.sched.EndClusterOutage("beta")
			// Alpha's outage sends the old server's write to beta alone,
			// whose copy of the file carries no sentinel.
			e.sched.StartClusterOutage("alpha")
			e.append(t, 2)
			e.sched.EndClusterOutage("alpha")
		}},
		{"heartbeat relinquishes", 0, func(t *testing.T, e *fenceEnv) {
			e.append(t, 0, 1)
			if _, err := e.reconcile(t); err != nil {
				t.Fatal(err)
			}
			e.r.HeartbeatAll(e.ctx, true)
			// Refused before any write: the bare code, not a write that
			// found the sentinel.
			if code := e.appendDirect(t); code != wire.ErrCodeStreamletClosed {
				t.Fatalf("append through the old server after a heartbeat: %q, want %q", code, wire.ErrCodeStreamletClosed)
			}
			e.append(t, 2)
		}},
		{"reconcile twice, then finalize", 0, func(t *testing.T, e *fenceEnv) {
			e.append(t, 0, 1)
			e.append(t, 2)
			first, err := e.reconcile(t)
			if err != nil {
				t.Fatal(err)
			}
			second, err := e.reconcile(t)
			if err != nil {
				t.Fatal(err)
			}
			if first.RowCount != 3 || second.RowCount != 3 {
				t.Fatalf("reconciled rows = %d then %d, want 3", first.RowCount, second.RowCount)
			}
			n, err := e.s.Finalize(e.ctx)
			if err != nil {
				t.Fatal(err)
			}
			if n != 3 {
				t.Fatalf("finalized stream rows = %d, want 3", n)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sched := chaos.NewSchedule()
			cfg := DefaultConfig()
			cfg.Chaos = sched
			cfg.MaxFragmentBytes = tc.maxFragmentBytes
			r := NewRegion(cfg)
			c := r.NewClient(client.DefaultOptions())
			ctx := t.Context()
			mustCreateTable(t, ctx, c, fenceTable)
			s, err := c.CreateStream(ctx, fenceTable, meta.Unbuffered)
			if err != nil {
				t.Fatal(err)
			}
			e := &fenceEnv{r: r, c: c, s: s, sched: sched, ctx: ctx}
			tc.run(t, e)
			got := readValues(t, ctx, c, fenceTable, 0)
			slices.Sort(got)
			slices.Sort(e.acked)
			if !slices.Equal(got, e.acked) {
				t.Fatalf("read back %v, acknowledged %v", got, e.acked)
			}
		})
	}
}

// firstStreamletInfo reads the first streamlet's record.
func (e *fenceEnv) firstStreamletInfo(t *testing.T) meta.StreamletInfo {
	t.Helper()
	resp, err := client.CallSMS(e.ctx, e.r.Net, e.r.Router(), fenceTable, wire.GetWritableStreamlet, &wire.GetWritableStreamletRequest{Stream: e.s.Info().ID})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Streamlet.ID != e.firstStreamlet() {
		t.Fatalf("writable streamlet is %s, want %s", resp.Streamlet.ID, e.firstStreamlet())
	}
	return resp.Streamlet
}

// appendDirect sends one append for the first streamlet straight to the
// server that hosts it, bypassing the client's rotation, and returns
// the error code ("" when acknowledged).
func (e *fenceEnv) appendDirect(t *testing.T) string {
	t.Helper()
	payload := wire.AppendBlock(nil, []schema.Row{eventRow(99)})
	resp, err := wire.Append.Call(e.ctx, e.r.Net, findStreamServer(t, e.r, fenceTable), &wire.AppendRequest{
		Streamlet:            e.firstStreamlet(),
		Payload:              payload,
		CRC:                  blockenc.Checksum(payload),
		ExpectedStreamOffset: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp.Error
}
