// CDC replication with `_CHANGE_TYPE` (§4.2.6): an order book replicated
// into Vortex using UPSERT and DELETE change types against an unenforced
// primary key. "When a user uses only the UPSERT and DELETE change
// types, uniqueness of primary keys is enforced by construction."
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"vortex"
)

func main() {
	ctx := context.Background()
	db := vortex.Open(vortex.WithClusters("alpha", "beta"), vortex.WithSeed(1))

	ordersSchema := &vortex.Schema{
		Fields: []*vortex.Field{
			{Name: "updatedAt", Kind: vortex.TimestampKind, Mode: vortex.Required},
			{Name: "orderId", Kind: vortex.StringKind, Mode: vortex.Required},
			{Name: "status", Kind: vortex.StringKind, Mode: vortex.Required},
			{Name: "total", Kind: vortex.NumericKind, Mode: vortex.Nullable},
		},
		PrimaryKey:     []string{"orderId"},
		PartitionField: "updatedAt",
	}
	if err := db.CreateTable(ctx, "shop.orders", ordersSchema); err != nil {
		log.Fatal(err)
	}
	s, err := db.Table("shop.orders").NewStream(ctx, vortex.Unbuffered)
	if err != nil {
		log.Fatal(err)
	}

	at := time.Now().UTC()
	mk := func(id, status string, cents int64) vortex.Row {
		at = at.Add(time.Millisecond)
		return vortex.NewRow(
			vortex.TimestampValue(at),
			vortex.StringValue(id),
			vortex.StringValue(status),
			vortex.NumericValue(cents*10_000_000), // cents → 1e-9 units
		)
	}
	send := func(rows ...vortex.Row) {
		if _, err := s.Append(ctx, rows); err != nil {
			log.Fatal(err)
		}
	}

	// A change stream: creates, updates, a cancellation, a deletion.
	send(
		mk("ORD-1", "created", 2599).WithChange(vortex.Upsert),
		mk("ORD-2", "created", 999).WithChange(vortex.Upsert),
		mk("ORD-3", "created", 15000).WithChange(vortex.Upsert),
	)
	send(mk("ORD-1", "paid", 2599).WithChange(vortex.Upsert))
	send(mk("ORD-2", "cancelled", 999).WithChange(vortex.Upsert))
	send(mk("ORD-1", "shipped", 2599).WithChange(vortex.Upsert))
	send(mk("ORD-2", "", 0).WithChange(vortex.Delete)) // GDPR erasure

	res, err := db.Query(ctx, "SELECT orderId, status, total FROM shop.orders ORDER BY orderId")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("order book after replaying the change stream:")
	for _, r := range res.Rows() {
		fmt.Printf("  %-6s %-9s %s\n", r[0].AsString(), r[1].AsString(), r[2])
	}
	if len(res.Rows()) != 2 {
		log.Fatalf("expected 2 live orders, got %d (PK uniqueness by construction broken)", len(res.Rows()))
	}

	// The optimizer compacts superseded versions physically (§6.1) while
	// reads stay identical.
	db.Heartbeat(ctx)
	if _, err := s.Finalize(ctx); err != nil {
		log.Fatal(err)
	}
	db.Heartbeat(ctx)
	opt, err := db.Optimize(ctx, "shop.orders")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noptimizer compacted %d acked change rows down to %d stored rows\n", 7, opt.RowsConverted)
	res, err = db.Query(ctx, "SELECT COUNT(*) FROM shop.orders")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("COUNT(*) after compaction: %s (unchanged)\n", res.Rows()[0][0])
}
