package vortex_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"vortex"
)

// TestPublicAPIEndToEnd exercises the library the way a downstream user
// would: open, create, stream, query, evolve, optimize, verify.
func TestPublicAPIEndToEnd(t *testing.T) {
	ctx := context.Background()
	db := vortex.Open()
	sc := &vortex.Schema{
		Fields: []*vortex.Field{
			{Name: "ts", Kind: vortex.TimestampKind, Mode: vortex.Required},
			{Name: "user", Kind: vortex.StringKind, Mode: vortex.Required},
			{Name: "amount", Kind: vortex.NumericKind, Mode: vortex.Nullable},
		},
		PartitionField: "ts",
		ClusterBy:      []string{"user"},
	}
	if err := db.CreateTable(ctx, "pay.tx", sc); err != nil {
		t.Fatal(err)
	}
	s, err := db.Table("pay.tx").NewStream(ctx, vortex.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2024, 6, 9, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 50; i++ {
		row := vortex.NewRow(
			vortex.TimestampValue(base.Add(time.Duration(i)*time.Second)),
			vortex.StringValue(fmt.Sprintf("user-%d", i%5)),
			vortex.NumericValue(int64(i)*1_000_000_000),
		)
		if _, err := s.Append(ctx, []vortex.Row{row}, vortex.AtOffset(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Query(ctx, "SELECT user, SUM(amount) AS total FROM pay.tx GROUP BY user ORDER BY total DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows()) != 2 || res.Rows()[0][0].AsString() != "user-4" {
		t.Fatalf("rows = %v", res.Rows())
	}

	// Time travel.
	snap := db.Now()
	time.Sleep(12 * time.Millisecond)
	if _, err := s.Append(ctx, []vortex.Row{vortex.NewRow(
		vortex.TimestampValue(base), vortex.StringValue("late"), vortex.NullValue(),
	)}, vortex.AtOffset(50)); err != nil {
		t.Fatal(err)
	}
	old, err := db.QueryAt(ctx, "SELECT COUNT(*) FROM pay.tx", snap)
	if err != nil {
		t.Fatal(err)
	}
	if old.Rows()[0][0].AsInt64() != 50 {
		t.Fatalf("snapshot count = %v", old.Rows()[0][0])
	}

	// Schema evolution through the facade.
	if _, err := db.Table("pay.tx").AddField(ctx, &vortex.Field{Name: "memo", Kind: vortex.StringKind, Mode: vortex.Nullable}); err != nil {
		t.Fatal(err)
	}
	got, err := db.Table("pay.tx").Schema(ctx)
	if err != nil || got.Field("memo") == nil {
		t.Fatalf("evolved schema: %v, %v", got, err)
	}

	// Optimize + DML through the facade.
	db.Heartbeat(ctx)
	if _, err := s.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	db.Heartbeat(ctx)
	opt, err := db.Optimize(ctx, "pay.tx")
	if err != nil {
		t.Fatal(err)
	}
	if opt.RowsConverted == 0 {
		t.Fatal("nothing converted")
	}
	del, err := db.Query(ctx, "DELETE FROM pay.tx WHERE user = 'late'")
	if err != nil {
		t.Fatal(err)
	}
	if del.Stats.RowsAffected != 1 {
		t.Fatalf("affected = %d", del.Stats.RowsAffected)
	}
	res, err = db.Query(ctx, "SELECT COUNT(*) FROM pay.tx")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows()[0][0].AsInt64() != 50 {
		t.Fatalf("final count = %v", res.Rows()[0][0])
	}
}

// TestOpenOptions opens a DB with each option the examples never set
// and asserts one effect that only that option can cause.
func TestOpenOptions(t *testing.T) {
	ctx := context.Background()
	const table = "opt.t"
	sc := &vortex.Schema{Fields: []*vortex.Field{
		{Name: "k", Kind: vortex.StringKind, Mode: vortex.Required},
		{Name: "v", Kind: vortex.Int64Kind, Mode: vortex.Nullable},
	}}
	newStream := func(t *testing.T, db *vortex.DB) *vortex.Stream {
		t.Helper()
		if err := db.CreateTable(ctx, table, sc); err != nil {
			t.Fatal(err)
		}
		s, err := db.Table(table).NewStream(ctx, vortex.Unbuffered)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// appendKB appends one ~1 KiB row at offset off.
	appendKB := func(s *vortex.Stream, off int64) error {
		row := vortex.NewRow(vortex.StringValue(strings.Repeat("x", 1024)), vortex.Int64Value(off))
		_, err := s.Append(ctx, []vortex.Row{row}, vortex.AtOffset(off))
		return err
	}
	// scanTwice converts 64 rows to ROS and runs the same query twice.
	scanTwice := func(t *testing.T, db *vortex.DB) {
		t.Helper()
		s := newStream(t, db)
		for i := int64(0); i < 64; i++ {
			if err := appendKB(s, i); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Finalize(ctx); err != nil {
			t.Fatal(err)
		}
		db.Heartbeat(ctx)
		if _, err := db.Optimize(ctx, table); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := db.Query(ctx, "SELECT COUNT(*) FROM opt.t"); err != nil {
				t.Fatal(err)
			}
		}
	}
	// 64 bytes/s against 1 KiB rows: the first heartbeat after an append
	// reports a deficit and the SMS sheds the table for MaxShed.
	squeezed := vortex.IngestQuotas{TableBytesPerSec: 64, ByteBurst: 64, MaxShed: 30 * time.Millisecond}
	sched := vortex.NewChaosSchedule().FailAt(vortex.ChaosPointRPCResponse, "*/Append", 1)

	cases := []struct {
		name  string
		opts  []vortex.OpenOption
		check func(t *testing.T, db *vortex.DB)
	}{
		{"ProductionLatencies", []vortex.OpenOption{vortex.WithProductionLatencies()}, func(t *testing.T, db *vortex.DB) {
			s := newStream(t, db)
			start := time.Now()
			if err := appendKB(s, 0); err != nil {
				t.Fatal(err)
			}
			// The calibrated Colossus write never samples below 2 ms; the
			// default profile sleeps nowhere.
			if d := time.Since(start); d < 2*time.Millisecond {
				t.Fatalf("append took %v, want the modelled ≥ 2ms", d)
			}
		}},
		{"Chaos", []vortex.OpenOption{vortex.WithChaos(sched)}, func(t *testing.T, db *vortex.DB) {
			if db.Chaos() != sched {
				t.Fatal("DB.Chaos() is not the schedule passed to WithChaos")
			}
			if err := appendKB(newStream(t, db), 0); err != nil {
				t.Fatalf("append through a dropped response: %v", err)
			}
			if log := sched.LogString(); !strings.Contains(log, "Append") {
				t.Fatalf("no fault fired on Append:\n%s", log)
			}
		}},
		{"IngestQuotas", []vortex.OpenOption{vortex.WithIngestQuotas(squeezed)}, func(t *testing.T, db *vortex.DB) {
			s := newStream(t, db)
			for i := int64(0); i < 3; i++ {
				if err := appendKB(s, i); err != nil {
					t.Fatalf("the default retry policy must absorb push-back: %v", err)
				}
				db.Heartbeat(ctx)
			}
			if st := db.IngestStats(); st.ShedAppends == 0 || st.Admission.TableSheds == 0 {
				t.Fatalf("squeezed quota shed nothing: %+v", st)
			}
		}},
		{"RetryPolicy", []vortex.OpenOption{vortex.WithIngestQuotas(squeezed), vortex.WithRetryPolicy(vortex.RetryPolicy{MaxAttempts: 1})}, func(t *testing.T, db *vortex.DB) {
			s := newStream(t, db)
			if err := appendKB(s, 0); err != nil {
				t.Fatal(err)
			}
			db.Heartbeat(ctx)
			err := appendKB(s, 1)
			if !errors.Is(err, vortex.ErrResourceExhausted) || vortex.RetryAfter(err) <= 0 {
				t.Fatalf("one attempt under a shed: got %v (retry after %v), want RESOURCE_EXHAUSTED with a hint", err, vortex.RetryAfter(err))
			}
		}},
		{"ReadCache", []vortex.OpenOption{vortex.WithReadCache(8 << 20)}, func(t *testing.T, db *vortex.DB) {
			scanTwice(t, db)
			if st := db.ReadCacheStats(); st.Hits == 0 || st.DiskMaxBytes != 0 {
				t.Fatalf("repeated query never hit the RAM cache: %+v", st)
			}
		}},
		{"DiskCache", []vortex.OpenOption{vortex.WithDiskCache(t.TempDir(), 8<<20)}, func(t *testing.T, db *vortex.DB) {
			scanTwice(t, db)
			if st := db.ReadCacheStats(); st.DiskHits == 0 || st.MaxBytes != 0 {
				t.Fatalf("repeated query never hit the disk tier: %+v", st)
			}
		}},
		{"HeartbeatCoalescing", []vortex.OpenOption{vortex.WithHeartbeatCoalescing(time.Hour, 0)}, func(t *testing.T, db *vortex.DB) {
			s := newStream(t, db)
			for i := int64(0); i < 2; i++ {
				if err := appendKB(s, i); err != nil {
					t.Fatal(err)
				}
				db.Heartbeat(ctx)
			}
			if st := db.IngestStats(); st.HeartbeatsCoalesced == 0 {
				t.Fatalf("second round inside the window was not coalesced: %+v", st)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.check(t, vortex.Open(tc.opts...)) })
	}
}
