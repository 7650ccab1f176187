package query_test

import (
	"fmt"
	"testing"
	"time"

	"vortex/internal/schema"
)

// BenchmarkAggregate times grouped aggregation through Engine.Query over
// 16 384 rows converted to four 4 096-row ROS files. The key columns
// are chosen for the page encoding the ROS writer gives them:
//
//   - dict:   product, 200 distinct strings in no order (DICT pages);
//   - int64:  item, ≈3 000 distinct integers, more than a dictionary
//     page holds (typed PLAIN pages);
//   - rle:    region, the clustering column, 8 distinct strings sorted
//     within each file (RLE pages);
//   - minmax: MIN and MAX of item per product.
func BenchmarkAggregate(b *testing.B) {
	sc := &schema.Schema{
		Fields: []*schema.Field{
			{Name: "ts", Kind: schema.KindTimestamp, Mode: schema.Required},
			{Name: "region", Kind: schema.KindString, Mode: schema.Required},
			{Name: "product", Kind: schema.KindString, Mode: schema.Required},
			{Name: "item", Kind: schema.KindInt64, Mode: schema.Required},
			{Name: "amount", Kind: schema.KindInt64, Mode: schema.Nullable},
		},
		PartitionField: "ts",
		ClusterBy:      []string{"region"},
	}
	const nRows = 16384
	e := newQEnv(b, sc, "d.aggbench")
	rows := make([]schema.Row, nRows)
	for i := range rows {
		rows[i] = schema.NewRow(
			schema.Timestamp(time.Date(2023, 10, 1, 0, 0, 0, i*1000, time.UTC)),
			schema.String(fmt.Sprintf("R-%d", i*37%8)),
			schema.String(fmt.Sprintf("P-%03d", i*7919%200)),
			schema.Int64(int64(i*7919%3001)),
			schema.Int64(int64(i%100)),
		)
	}
	e.seal(b, "d.aggbench", rows)
	if _, err := e.opt.ConvertTable(e.ctx, "d.aggbench"); err != nil {
		b.Fatal(err)
	}

	for _, bc := range []struct {
		name, sql string
		groups    int
	}{
		{"dict", "SELECT product, COUNT(*) AS n, SUM(amount) AS total FROM d.aggbench GROUP BY product", 200},
		{"int64", "SELECT item, COUNT(*) AS n, SUM(amount) AS total FROM d.aggbench GROUP BY item", 3001},
		{"rle", "SELECT region, COUNT(*) AS n, SUM(amount) AS total FROM d.aggbench GROUP BY region", 8},
		{"minmax", "SELECT product, MIN(item) AS lo, MAX(item) AS hi FROM d.aggbench GROUP BY product", 200},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := e.eng.Query(e.ctx, bc.sql)
				if err != nil {
					b.Fatal(err)
				}
				if n := len(res.Rows()); n != bc.groups {
					b.Fatalf("%d groups, want %d", n, bc.groups)
				}
			}
		})
	}
}
