package client_test

import (
	"context"
	"testing"
	"time"

	"vortex/internal/blockenc"
	"vortex/internal/client"
	"vortex/internal/core"
	"vortex/internal/fragment"
	"vortex/internal/meta"
	"vortex/internal/optimizer"
	"vortex/internal/ros"
	"vortex/internal/rowenc"
	"vortex/internal/schema"
)

// convertTable converts a table's sealed WOS fragments to ROS, after
// waiting out clock uncertainty so the conversion candidates list them.
func convertTable(t testing.TB, r *core.Region, c *client.Client, ctx context.Context, table meta.TableID) {
	t.Helper()
	time.Sleep(12 * time.Millisecond)
	opt := optimizer.New(optimizer.DefaultConfig(), c, r.Net, r.Router(), r.Colossus, r.Clock)
	if _, err := opt.ConvertTable(ctx, table); err != nil {
		t.Fatal(err)
	}
}

// TestRepeatScanSharesCachedColumns: repeated scans of the same sealed
// fragment hand out the cached column vectors themselves — nothing is
// re-decoded or re-materialized per scan, for either format.
func TestRepeatScanSharesCachedColumns(t *testing.T) {
	if testing.Short() {
		t.Skip("cache e2e")
	}
	r, c, ctx := cacheEnv(t)
	ingestRound(t, ctx, c, 0, 40)
	r.HeartbeatAll(ctx, false)

	check := func(format meta.Format) {
		plan, err := c.Plan(ctx, "d.cache", 0)
		if err != nil {
			t.Fatal(err)
		}
		seen := false
		for _, a := range plan.Assignments {
			if a.Frag.Format != format || a.Live {
				continue
			}
			seen = true
			first, err := c.ScanBatch(ctx, plan, a)
			if err != nil {
				t.Fatal(err)
			}
			second, err := c.ScanBatch(ctx, plan, a)
			if err != nil {
				t.Fatal(err)
			}
			if first.NumRows == 0 || first.NumRows != second.NumRows || first.Sel != nil || second.Sel != nil {
				t.Fatalf("%v scans: %d rows sel %v, then %d rows sel %v", format, first.NumRows, first.Sel, second.NumRows, second.Sel)
			}
			if second.Cache.Hits != 1 || second.Cache.Misses != 0 || second.Cache.BytesSaved == 0 {
				t.Fatalf("%v repeat scan disposition = %+v, want one RAM hit", format, second.Cache)
			}
			// The v column is typed INT64 PLAIN in both formats: the
			// same backing array of unboxed integers, decoded from a WOS
			// file's rows or from a ROS page.
			fv, _ := first.Vectors(nil)
			sv, _ := second.Vectors(nil)
			if fv[1].Kind != schema.KindInt64 || sv[1].Kind != schema.KindInt64 {
				t.Fatalf("%v column %q is kind %v then %v, want typed INT64", format, fv[1].Name, fv[1].Kind, sv[1].Kind)
			}
			if len(fv[1].Ints) == 0 || &fv[1].Ints[0] != &sv[1].Ints[0] {
				t.Fatalf("%v repeat scan re-decoded column %q instead of sharing the cached vector", format, fv[1].Name)
			}
		}
		if !seen {
			t.Fatalf("no sealed %v assignment to scan", format)
		}
	}
	check(meta.WOS)
	convertTable(t, r, c, ctx, "d.cache")
	check(meta.ROS)
}

// referenceRows decodes an assignment's file with the format's own
// reference decoder — ros.Reader.Rows, or fragment.Scan + the Stream
// Server's check of a block, wire.DecodeBlock, as rows — bypassing the
// client's scan path entirely.
func referenceRows(t *testing.T, r *core.Region, sc *schema.Schema, a client.Assignment) []rowenc.Stamped {
	t.Helper()
	data, err := r.Colossus.Cluster(a.Frag.Clusters[0]).Read(a.Frag.Path, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Frag.Format == meta.ROS {
		rd, err := ros.Open(data)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := rd.Rows(sc)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	scan, err := fragment.Scan(data)
	if err != nil {
		t.Fatal(err)
	}
	sealer := blockenc.NewSealer(r.Keyring)
	blocks := scan.CommittedBlocks
	if a.Live {
		// Both replicas took every append, so the final one is committed too.
		blocks = scan.Blocks
	}
	var out []rowenc.Stamped
	for _, b := range blocks {
		if b.Kind != fragment.BlockData {
			continue
		}
		plain, err := sealer.Open(b.Payload)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := client.BlockRows(plain)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range rows {
			out = append(out, rowenc.Stamped{Row: row, Seq: int64(b.Timestamp) + int64(i)})
		}
	}
	return out
}

// TestScanBatchParity: ScanBatch().PosRows() must agree row-for-row
// with the format's reference decoder run on the raw file, for sealed
// WOS, live WOS and converted ROS assignments.
func TestScanBatchParity(t *testing.T) {
	if testing.Short() {
		t.Skip("cache e2e")
	}
	r, c, ctx := cacheEnv(t)
	ingestRound(t, ctx, c, 0, 50)
	r.HeartbeatAll(ctx, false)
	convertTable(t, r, c, ctx, "d.cache")
	ingestRound(t, ctx, c, 50, 30) // stays sealed WOS
	r.HeartbeatAll(ctx, false)
	live, err := c.CreateStream(ctx, "d.cache", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.Append(ctx, []schema.Row{
		schema.NewRow(schema.String("live"), schema.Int64(1)),
		schema.NewRow(schema.String("live"), schema.Null()),
	}, client.AtOffset(0)); err != nil {
		t.Fatal(err)
	}

	plan, err := c.Plan(ctx, "d.cache", 0)
	if err != nil {
		t.Fatal(err)
	}
	saw := map[string]bool{}
	for _, a := range plan.Assignments {
		kind := a.Frag.Format.String()
		if a.Live {
			kind = "live"
		}
		saw[kind] = true
		b, err := c.ScanBatch(ctx, plan, a)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceRows(t, r, plan.Schema, a)
		got := b.PosRows()
		if len(got) != len(want) || b.NumVisible() != len(want) {
			t.Fatalf("%s batch has %d rows (visible %d), reference decoder %d", kind, len(got), b.NumVisible(), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Stamped.Seq != w.Seq || g.Stamped.Row.Change != w.Row.Change || g.FragLocal != int64(i) || g.Live != a.Live {
				t.Fatalf("%s row %d: got %+v want %+v", kind, i, g, w)
			}
			if (a.Frag.Format == meta.ROS) != (g.StreamOffset == -1) {
				t.Fatalf("%s row %d: stream offset %d", kind, i, g.StreamOffset)
			}
			if len(g.Stamped.Row.Values) != len(w.Row.Values) {
				t.Fatalf("%s row %d arity: %d vs %d", kind, i, len(g.Stamped.Row.Values), len(w.Row.Values))
			}
			for k := range w.Row.Values {
				if g.Stamped.Row.Values[k].String() != w.Row.Values[k].String() {
					t.Fatalf("%s row %d col %d: %v vs %v", kind, i, k, g.Stamped.Row.Values[k], w.Row.Values[k])
				}
			}
		}
	}
	if !saw["ROS"] || !saw["WOS"] || !saw["live"] {
		t.Fatalf("plan did not cover every kind of assignment: %v", saw)
	}
}
