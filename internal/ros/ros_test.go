package ros

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"vortex/internal/schema"
	"vortex/internal/wire"
)

// dremelSchema is the Document schema from the Dremel paper, the
// canonical test vector for repetition/definition levels.
func dremelSchema() *schema.Schema {
	return &schema.Schema{Fields: []*schema.Field{
		{Name: "DocId", Kind: schema.KindInt64, Mode: schema.Required},
		{Name: "Links", Kind: schema.KindStruct, Mode: schema.Nullable, Fields: []*schema.Field{
			{Name: "Backward", Kind: schema.KindInt64, Mode: schema.Repeated},
			{Name: "Forward", Kind: schema.KindInt64, Mode: schema.Repeated},
		}},
		{Name: "Name", Kind: schema.KindStruct, Mode: schema.Repeated, Fields: []*schema.Field{
			{Name: "Language", Kind: schema.KindStruct, Mode: schema.Repeated, Fields: []*schema.Field{
				{Name: "Code", Kind: schema.KindString, Mode: schema.Required},
				{Name: "Country", Kind: schema.KindString, Mode: schema.Nullable},
			}},
			{Name: "Url", Kind: schema.KindString, Mode: schema.Nullable},
		}},
	}}
}

func dremelRows() []schema.Row {
	r1 := schema.NewRow(
		schema.Int64(10),
		schema.Struct(
			schema.List(),
			schema.List(schema.Int64(20), schema.Int64(40), schema.Int64(60)),
		),
		schema.List(
			schema.Struct(
				schema.List(
					schema.Struct(schema.String("en-us"), schema.String("us")),
					schema.Struct(schema.String("en"), schema.Null()),
				),
				schema.String("http://A"),
			),
			schema.Struct(schema.List(), schema.String("http://B")),
			schema.Struct(
				schema.List(schema.Struct(schema.String("en-gb"), schema.String("gb"))),
				schema.Null(),
			),
		),
	)
	r2 := schema.NewRow(
		schema.Int64(20),
		schema.Struct(
			schema.List(schema.Int64(10), schema.Int64(30)),
			schema.List(schema.Int64(80)),
		),
		schema.List(
			schema.Struct(schema.List(), schema.String("http://C")),
		),
	)
	return []schema.Row{r1, r2}
}

type levelTriple struct {
	rep, def int
	val      string // "" for NULL
}

func TestDremelPaperLevels(t *testing.T) {
	s := dremelSchema()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	st := newStriper(s)
	rows := dremelRows()
	for f, root := range st.roots {
		col := make([]schema.Value, len(rows))
		for i, r := range rows {
			col[i] = r.Values[f]
		}
		v := wire.PlainVector("", col)
		if err := root.stripeColumn(&v, []int32{0, 1}); err != nil {
			t.Fatal(err)
		}
	}
	byPath := make(map[string]*leafData)
	for _, c := range st.cols {
		byPath[c.leaf.Path] = c
	}
	want := map[string][]levelTriple{
		"DocId":          {{0, 0, "10"}, {0, 0, "20"}},
		"Links.Backward": {{0, 1, ""}, {0, 2, "10"}, {1, 2, "30"}},
		"Links.Forward":  {{0, 2, "20"}, {1, 2, "40"}, {1, 2, "60"}, {0, 2, "80"}},
		"Name.Language.Code": {
			{0, 2, `"en-us"`}, {2, 2, `"en"`}, {1, 1, ""}, {1, 2, `"en-gb"`}, {0, 1, ""},
		},
		"Name.Language.Country": {
			{0, 3, `"us"`}, {2, 2, ""}, {1, 1, ""}, {1, 3, `"gb"`}, {0, 1, ""},
		},
		"Name.Url": {{0, 2, `"http://A"`}, {1, 2, `"http://B"`}, {1, 1, ""}, {0, 2, `"http://C"`}},
	}
	for path, triples := range want {
		c := byPath[path]
		if c == nil {
			t.Fatalf("no column %q", path)
		}
		if len(c.reps) != len(triples) {
			t.Fatalf("%s: %d entries, want %d (reps=%v defs=%v)", path, len(c.reps), len(triples), c.reps, c.defs)
		}
		vi := 0
		for i, tr := range triples {
			if int(c.reps[i]) != tr.rep || int(c.defs[i]) != tr.def {
				t.Errorf("%s[%d]: (r%d,d%d), want (r%d,d%d)", path, i, c.reps[i], c.defs[i], tr.rep, tr.def)
			}
			if int(c.defs[i]) == c.leaf.MaxDef {
				got := c.vals.Value(vi).String()
				if got != tr.val {
					t.Errorf("%s[%d]: value %s, want %s", path, i, got, tr.val)
				}
				vi++
			} else if tr.val != "" {
				t.Errorf("%s[%d]: expected value %s but entry is null", path, i, tr.val)
			}
		}
	}
}

func rowsEqual(a, b schema.Row) bool {
	if len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if !a.Values[i].Equal(b.Values[i]) {
			return false
		}
	}
	return true
}

func TestFileRoundTripDremel(t *testing.T) {
	s := dremelSchema()
	w := NewWriter(s)
	rows := dremelRows()
	for i, r := range rows {
		if err := w.Add(r, int64(i+100)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if rd.RowCount() != 2 {
		t.Fatalf("rows = %d", rd.RowCount())
	}
	got, err := rd.Rows(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if !rowsEqual(got[i].Row, rows[i]) {
			t.Fatalf("row %d:\n got %v\nwant %v", i, got[i].Row.Values, rows[i].Values)
		}
		if got[i].Seq != int64(i+100) {
			t.Fatalf("row %d seq = %d", i, got[i].Seq)
		}
	}
}

func salesSchema() *schema.Schema {
	return &schema.Schema{
		Fields: []*schema.Field{
			{Name: "orderTimestamp", Kind: schema.KindTimestamp, Mode: schema.Required},
			{Name: "salesOrderKey", Kind: schema.KindString, Mode: schema.Required},
			{Name: "customerKey", Kind: schema.KindString, Mode: schema.Required},
			{Name: "salesOrderLines", Kind: schema.KindStruct, Mode: schema.Repeated, Fields: []*schema.Field{
				{Name: "salesOrderLineKey", Kind: schema.KindInt64, Mode: schema.Required},
				{Name: "dueDate", Kind: schema.KindDate, Mode: schema.Nullable},
				{Name: "quantity", Kind: schema.KindInt64, Mode: schema.Nullable},
				{Name: "unitPrice", Kind: schema.KindNumeric, Mode: schema.Nullable},
			}},
			{Name: "totalSale", Kind: schema.KindNumeric, Mode: schema.Nullable},
			{Name: "tags", Kind: schema.KindString, Mode: schema.Repeated},
		},
		PrimaryKey:     []string{"salesOrderKey"},
		PartitionField: "orderTimestamp",
		ClusterBy:      []string{"customerKey"},
	}
}

func TestFileRoundTripRandomRows(t *testing.T) {
	// Strip the partition annotation so random timestamps (multiple
	// dates) are allowed in one file.
	s := salesSchema()
	s.PartitionField = ""
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(50) + 1
		w := NewWriter(s)
		rows := make([]schema.Row, n)
		for i := range rows {
			rows[i] = schema.RandomRow(rng, s)
			if err := w.Add(rows[i], int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		data, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		rd, err := Open(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rd.Rows(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("trial %d: %d rows, want %d", trial, len(got), n)
		}
		for i := range rows {
			if !rowsEqual(got[i].Row, rows[i]) {
				t.Fatalf("trial %d row %d mismatch:\n got %v\nwant %v", trial, i, got[i].Row.Values, rows[i].Values)
			}
		}
	}
}

func mkSalesRow(ts time.Time, order, customer string, total int64) schema.Row {
	return schema.NewRow(
		schema.Timestamp(ts),
		schema.String(order),
		schema.String(customer),
		schema.List(schema.Struct(schema.Int64(1), schema.Null(), schema.Int64(2), schema.Null())),
		schema.Numeric(total*schema.NumericScale),
		schema.List(schema.String("web")),
	)
}

func TestPartitionEnforcement(t *testing.T) {
	s := salesSchema()
	w := NewWriter(s)
	day1 := time.Date(2023, 10, 1, 10, 0, 0, 0, time.UTC)
	day2 := time.Date(2023, 10, 2, 10, 0, 0, 0, time.UTC)
	if err := w.Add(mkSalesRow(day1, "SO-1", "ACME", 5), 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(mkSalesRow(day2, "SO-2", "ACME", 5), 2); err == nil {
		t.Fatal("cross-partition row accepted; Figure 5 requires one partition per ROS file")
	}
	if err := w.Add(mkSalesRow(day1.Add(time.Hour), "SO-3", "Zeta", 5), 3); err != nil {
		t.Fatal(err)
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := rd.Partition()
	if !ok || p != day1.Unix()/86400 {
		t.Fatalf("partition = %d, %v", p, ok)
	}
}

func TestClusterRangeBloomAndStats(t *testing.T) {
	s := salesSchema()
	w := NewWriter(s)
	day := time.Date(2023, 10, 1, 0, 0, 0, 0, time.UTC)
	customers := []string{"Emma", "Allie", "Tom", "Ben", "David"}
	for i, c := range customers {
		if err := w.Add(mkSalesRow(day.Add(time.Duration(i)*time.Minute), fmt.Sprintf("SO-%d", i), c, int64(i)), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	mn, mx := rd.ClusterRange()
	if mn[0].AsString() != "Allie" || mx[0].AsString() != "Tom" {
		t.Fatalf("cluster range = %v..%v", mn, mx)
	}
	filter, err := rd.Bloom()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range customers {
		if !filter.ContainsString(c) {
			t.Fatalf("bloom lost customer %q", c)
		}
	}
	// Column stats: customerKey min/max.
	col := rd.Column("customerKey")
	if col == nil {
		t.Fatal("customerKey column missing")
	}
	if !col.Stats.HasRange || col.Stats.Min.AsString() != "Allie" || col.Stats.Max.AsString() != "Tom" {
		t.Fatalf("customerKey stats = %+v", col.Stats)
	}
	if col.Stats.NullCount != 0 || col.Stats.Entries != 5 {
		t.Fatalf("stats = %+v", col.Stats)
	}
	// totalSale: INT stats via NUMERIC kind.
	ts := rd.Column("totalSale").Stats
	if ts.Min.AsNumericScaled() != 0 || ts.Max.AsNumericScaled() != 4*schema.NumericScale {
		t.Fatalf("totalSale stats = %v..%v", ts.Min, ts.Max)
	}
}

func TestDictionaryEncodingChosenForRepetitiveColumn(t *testing.T) {
	s := &schema.Schema{Fields: []*schema.Field{
		{Name: "region", Kind: schema.KindString, Mode: schema.Required},
		{Name: "id", Kind: schema.KindInt64, Mode: schema.Required},
	}}
	w := NewWriter(s)
	regions := []string{"us-west", "us-east", "eu-west"}
	for i := 0; i < 1000; i++ {
		if err := w.Add(schema.NewRow(schema.String(regions[i%3]), schema.Int64(int64(i))), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Column("region").Stats.Encoding != EncodingDict {
		t.Fatal("repetitive string column not dictionary-encoded")
	}
	if rd.Column("id").Stats.Encoding != EncodingPlain {
		t.Fatal("unique int column should be plain-encoded")
	}
	rows, err := rd.Rows(s)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.Row.Values[0].AsString() != regions[i%3] {
			t.Fatalf("row %d region = %v", i, r.Row.Values[0])
		}
	}
}

func TestSchemaEvolutionReadsOldFile(t *testing.T) {
	old := salesSchema()
	w := NewWriter(old)
	day := time.Date(2023, 10, 1, 0, 0, 0, 0, time.UTC)
	if err := w.Add(mkSalesRow(day, "SO-1", "ACME", 9), 1); err != nil {
		t.Fatal(err)
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	evolved, err := old.AddField(&schema.Field{Name: "discountCode", Kind: schema.KindString, Mode: schema.Nullable})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := rd.Rows(evolved)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows[0].Row.Values) != len(evolved.Fields) {
		t.Fatalf("arity = %d, want %d", len(rows[0].Row.Values), len(evolved.Fields))
	}
	if !rows[0].Row.Values[len(evolved.Fields)-1].IsNull() {
		t.Fatal("added field must read as NULL from old files")
	}
	if rows[0].Row.Values[1].AsString() != "SO-1" {
		t.Fatal("existing fields corrupted by evolution")
	}
}

func TestChangeTypesAndSeqsPreserved(t *testing.T) {
	s := salesSchema()
	w := NewWriter(s)
	day := time.Date(2023, 10, 1, 0, 0, 0, 0, time.UTC)
	r1 := mkSalesRow(day, "SO-1", "A", 1).WithChange(schema.ChangeUpsert)
	r2 := mkSalesRow(day, "SO-1", "A", 2).WithChange(schema.ChangeDelete)
	if err := w.Add(r1, 10); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(r2, 20); err != nil {
		t.Fatal(err)
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if ch := rd.Changes(); schema.ChangeType(ch[0]) != schema.ChangeUpsert || schema.ChangeType(ch[1]) != schema.ChangeDelete {
		t.Fatal("change types lost")
	}
	if seqs := rd.Seqs(); seqs[0] != 10 || seqs[1] != 20 {
		t.Fatal("seqs lost")
	}
	rows, err := rd.Rows(s)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Row.Change != schema.ChangeUpsert || rows[1].Row.Change != schema.ChangeDelete {
		t.Fatal("assembled rows lost change types")
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	s := salesSchema()
	w := NewWriter(s)
	day := time.Date(2023, 10, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		w.Add(mkSalesRow(day, fmt.Sprintf("SO-%d", i), "A", int64(i)), int64(i))
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		bad := append([]byte(nil), data...)
		bad[rng.Intn(len(bad))] ^= 0x10
		if _, err := Open(bad); err == nil {
			t.Fatal("corrupted file opened cleanly (CRC must catch it)")
		}
	}
	for _, cut := range []int{0, 3, 12, len(data) / 2, len(data) - 1} {
		if _, err := Open(data[:cut]); err == nil {
			t.Fatalf("truncated file (%d bytes) opened cleanly", cut)
		}
	}
}

func TestEmptyFile(t *testing.T) {
	s := salesSchema()
	w := NewWriter(s)
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if rd.RowCount() != 0 {
		t.Fatalf("rows = %d", rd.RowCount())
	}
	rows, err := rd.Rows(s)
	if err != nil || len(rows) != 0 {
		t.Fatalf("rows = %v, %v", rows, err)
	}
}

func BenchmarkWriteROS1000Rows(b *testing.B) {
	s := salesSchema()
	day := time.Date(2023, 10, 1, 0, 0, 0, 0, time.UTC)
	rows := make([]schema.Row, 1000)
	for i := range rows {
		rows[i] = mkSalesRow(day.Add(time.Duration(i)*time.Second), fmt.Sprintf("SO-%d", i), fmt.Sprintf("C-%d", i%20), int64(i))
	}
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		w := NewWriter(s)
		for i, r := range rows {
			if err := w.Add(r, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := w.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadROS1000Rows(b *testing.B) {
	s := salesSchema()
	day := time.Date(2023, 10, 1, 0, 0, 0, 0, time.UTC)
	w := NewWriter(s)
	for i := 0; i < 1000; i++ {
		w.Add(mkSalesRow(day.Add(time.Duration(i)*time.Second), fmt.Sprintf("SO-%d", i), fmt.Sprintf("C-%d", i%20), int64(i)), int64(i))
	}
	data, err := w.Finish()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		rd, err := Open(data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rd.Rows(s); err != nil {
			b.Fatal(err)
		}
	}
}
