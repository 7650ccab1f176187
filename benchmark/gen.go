package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"vortex/internal/rowenc"
	"vortex/internal/schema"
)

// Every input is built here from the run's seed; the program under test
// sees only the rows and the SQL text. The generators are the
// benchmark's own so that a change to internal/workload cannot change
// what is measured; only the table schemas come from there.

var genBase = time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)

// digest is an order-independent fingerprint of a multiset of rows: the
// wrapping sum of one 64-bit hash per row, and the row count. Two read
// paths that return the same rows in any order digest the same, and a
// lost or a phantom row changes it.
type digest struct {
	Sum  uint64
	Rows int64
}

func (d *digest) add(h uint64)   { d.Sum += h; d.Rows++ }
func (d *digest) merge(o digest) { d.Sum += o.Sum; d.Rows += o.Rows }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func mixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return mix64(h, uint64(len(s)))
}

// hashValue folds one value into h through the public accessors only,
// so the fingerprint does not depend on any encoder under test.
func hashValue(h uint64, v schema.Value) uint64 {
	switch {
	case v.IsNull():
		return mix64(h, 0xdead)
	case v.IsList():
		h = mix64(h, uint64(v.Len())+0x1157)
		for i := 0; i < v.Len(); i++ {
			h = hashValue(h, v.Index(i))
		}
		return h
	}
	h = mix64(h, uint64(v.Kind()))
	switch v.Kind() {
	case schema.KindString, schema.KindJSON:
		return mixString(h, v.AsString())
	case schema.KindFloat64:
		return mix64(h, math.Float64bits(v.AsFloat64()))
	case schema.KindBytes:
		return mixString(h, string(v.AsBytes()))
	case schema.KindStruct:
		for i := 0; i < v.Len(); i++ {
			h = hashValue(h, v.FieldValue(i))
		}
		return h
	}
	return mix64(h, uint64(v.AsInt64()))
}

// hashValues fingerprints one row given as its column values.
func hashValues(vals []schema.Value) uint64 {
	h := uint64(fnvOffset)
	for _, v := range vals {
		h = hashValue(h, v)
	}
	return h
}

// batch is one pre-built append: its rows, what they digest to, and how
// many bytes the row encoding makes of them (the "user bytes" that
// stored-bytes ratios are taken against).
type batch struct {
	rows      []schema.Row
	digest    digest
	userBytes int64
}

func newBatch(rows []schema.Row) batch {
	b := batch{rows: rows}
	var buf []byte
	for _, r := range rows {
		b.digest.add(hashValues(r.Values))
		buf = rowenc.AppendRow(buf[:0], r)
		b.userBytes += int64(len(buf))
	}
	return b
}

var (
	eventTypes = []string{"page_view", "click", "purchase", "search", "scroll"}
	eventURLs  = []string{"/home", "/product/widget-a", "/product/gadget-x", "/checkout", "/search?q=vortex"}
)

// eventBatches builds n appends of rowsPer telemetry rows
// (workload.EventsSchema): 500 devices, five event types and URLs, a
// small JSON payload, timestamps one millisecond apart within one day.
func eventBatches(seed int64, n, rowsPer int) []batch {
	rng := rand.New(rand.NewSource(seed))
	out := make([]batch, n)
	tick := 0
	for i := range out {
		rows := make([]schema.Row, rowsPer)
		for j := range rows {
			tick++
			rows[j] = schema.NewRow(
				schema.Timestamp(genBase.Add(time.Duration(tick)*time.Millisecond)),
				schema.String(fmt.Sprintf("device-%05d", rng.Intn(500))),
				schema.String(eventTypes[rng.Intn(len(eventTypes))]),
				schema.String(eventURLs[rng.Intn(len(eventURLs))]),
				schema.Int64(int64(rng.Intn(400))),
				schema.RawJSON(fmt.Sprintf(`{"ab_bucket":%d,"session":"s-%d"}`, rng.Intn(8), rng.Intn(500))),
			)
		}
		out[i] = newBatch(rows)
	}
	return out
}

const (
	salesDays      = 4
	salesCustomers = 300
)

// salesFlatColumns are the top-level flat columns of
// workload.SalesSchema the scans project, with their positions.
var (
	salesFlatColumns = []string{"orderTimestamp", "salesOrderKey", "customerKey", "totalSale", "currencyKey"}
	salesFlatIndex   = []int{0, 1, 2, 4, 5}
)

// salesWhere keeps about a third of the rows: currencyKey is uniform
// over three values.
const (
	salesWhere         = "currencyKey = 840"
	salesWhereCurrency = 840
)

// salesRows builds n rows of the paper's Sales table
// (workload.SalesSchema) spread over salesDays day partitions, each with
// one to four nested order lines. firstOrder numbers the order keys.
func salesRows(rng *rand.Rand, firstOrder, n int) []schema.Row {
	rows := make([]schema.Row, n)
	for i := range rows {
		day := rng.Intn(salesDays)
		lines := make([]schema.Value, rng.Intn(4)+1)
		var total int64
		for l := range lines {
			qty := int64(rng.Intn(9) + 1)
			price := int64(rng.Intn(500)+1) * schema.NumericScale / 10
			total += qty * price
			lines[l] = schema.Struct(
				schema.Int64(int64(l+1)),
				schema.DateDays(19783+int64(day)+int64(rng.Intn(30))),
				schema.DateDays(19783+int64(day)+int64(rng.Intn(10))),
				schema.Int64(qty),
				schema.Numeric(price),
			)
		}
		ts := genBase.AddDate(0, 0, day).Add(time.Duration(rng.Intn(86400)) * time.Second)
		c := rng.Intn(salesCustomers)
		rows[i] = schema.NewRow(
			schema.Timestamp(ts),
			schema.String(fmt.Sprintf("SO-%010d", firstOrder+i)),
			schema.String(fmt.Sprintf("customer-%05d", c)),
			schema.List(lines...),
			schema.Numeric(total),
			schema.Int64(int64(840+rng.Intn(3))),
		)
	}
	return rows
}

// project returns the values of row at the given positions.
func project(row schema.Row, idx []int) []schema.Value {
	out := make([]schema.Value, len(idx))
	for i, j := range idx {
		out[i] = row.Values[j]
	}
	return out
}

// chunk splits rows into batches of at most size rows.
func chunk(rows []schema.Row, size int) []batch {
	var out []batch
	for lo := 0; lo < len(rows); lo += size {
		hi := lo + size
		if hi > len(rows) {
			hi = len(rows)
		}
		out = append(out, newBatch(rows[lo:hi]))
	}
	return out
}

// ordersSchema and customersSchema are the two primary-key tables of the
// change-data-capture workloads: orders reference customers, customers
// belong to a country.
func ordersSchema() *schema.Schema {
	return &schema.Schema{
		Fields: []*schema.Field{
			{Name: "orderId", Kind: schema.KindString, Mode: schema.Required},
			{Name: "customerKey", Kind: schema.KindString, Mode: schema.Required},
			{Name: "qty", Kind: schema.KindInt64, Mode: schema.Nullable},
			{Name: "amount", Kind: schema.KindNumeric, Mode: schema.Nullable},
			{Name: "status", Kind: schema.KindString, Mode: schema.Nullable},
		},
		PrimaryKey: []string{"orderId"},
	}
}

func customersSchema() *schema.Schema {
	return &schema.Schema{
		Fields: []*schema.Field{
			{Name: "customerKey", Kind: schema.KindString, Mode: schema.Required},
			{Name: "country", Kind: schema.KindString, Mode: schema.Required},
		},
		PrimaryKey: []string{"customerKey"},
	}
}

const (
	cdcCustomers = 120
	cdcCountries = 40
)

var orderStatuses = []string{"open", "paid", "shipped"}

// orderModel is the benchmark's own copy of an orders table: the latest
// live version of every key, kept in step with each change row it
// generates. It is the reference the primary-key read paths answer to.
type orderModel struct {
	rng  *rand.Rand
	live map[int][]schema.Value // order number → current values
	ids  []int                  // every order number ever issued
}

func newOrderModel(seed int64) *orderModel {
	return &orderModel{rng: rand.New(rand.NewSource(seed)), live: make(map[int][]schema.Value)}
}

func orderKey(n int) string { return fmt.Sprintf("o%07d", n) }

func (m *orderModel) upsert(n int) schema.Row {
	vals := []schema.Value{
		schema.String(orderKey(n)),
		schema.String(fmt.Sprintf("c%05d", m.rng.Intn(cdcCustomers))),
		schema.Int64(int64(m.rng.Intn(97))),
		schema.Numeric(int64(m.rng.Intn(5000)+1) * schema.NumericScale / 100),
		schema.String(orderStatuses[m.rng.Intn(len(orderStatuses))]),
	}
	m.live[n] = vals
	return schema.NewRow(vals...).WithChange(schema.ChangeUpsert)
}

// insert issues the next unused order number.
func (m *orderModel) insert() schema.Row {
	n := len(m.ids)
	m.ids = append(m.ids, n)
	return m.upsert(n)
}

// churn returns one change row: mostly an update of an existing order,
// sometimes a new order, one time in ten a delete.
func (m *orderModel) churn() schema.Row {
	switch r := m.rng.Intn(10); {
	case r == 0:
		n := m.ids[m.rng.Intn(len(m.ids))]
		delete(m.live, n)
		return schema.NewRow(schema.String(orderKey(n)), schema.String(""), schema.Null(), schema.Null(), schema.Null()).
			WithChange(schema.ChangeDelete)
	case r < 3:
		return m.insert()
	default:
		return m.upsert(m.ids[m.rng.Intn(len(m.ids))])
	}
}

// digest fingerprints the live rows.
func (m *orderModel) digest() digest {
	var d digest
	for _, vals := range m.live {
		d.add(hashValues(vals))
	}
	return d
}

// customerRows builds the customers dimension: every customer upserted
// once, countries assigned round-robin.
func customerRows() []schema.Row {
	rows := make([]schema.Row, cdcCustomers)
	for i := range rows {
		rows[i] = schema.NewRow(
			schema.String(fmt.Sprintf("c%05d", i)),
			schema.String(fmt.Sprintf("C%02d", i%cdcCountries)),
		).WithChange(schema.ChangeUpsert)
	}
	return rows
}
