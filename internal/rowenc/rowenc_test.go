package rowenc

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"vortex/internal/schema"
)

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
			{Name: "payload", Kind: schema.KindJSON, Mode: schema.Nullable},
			{Name: "blob", Kind: schema.KindBytes, Mode: schema.Nullable},
			{Name: "score", Kind: schema.KindFloat64, Mode: schema.Nullable},
			{Name: "active", Kind: schema.KindBool, Mode: schema.Nullable},
		},
		PartitionField: "orderTimestamp",
		ClusterBy:      []string{"customerKey"},
	}
}

func rowsEqual(a, b schema.Row) bool {
	if a.Change != b.Change || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if !a.Values[i].Equal(b.Values[i]) {
			return false
		}
	}
	return true
}

func TestRowRoundTrip(t *testing.T) {
	j, err := schema.JSON(`{"device": "sensor-7", "readings": [1.5, 2.5]}`)
	if err != nil {
		t.Fatal(err)
	}
	row := schema.Row{
		Values: []schema.Value{
			schema.Timestamp(time.Date(2023, 10, 1, 8, 30, 0, 123, time.UTC)),
			schema.String("SO-42"),
			schema.String("ACME"),
			schema.List(
				schema.Struct(schema.Int64(1), schema.DateDays(19650), schema.Int64(3), schema.Numeric(1_500_000_000)),
				schema.Struct(schema.Int64(2), schema.Null(), schema.Null(), schema.Null()),
			),
			schema.Numeric(-7_250_000_000),
			j,
			schema.Bytes([]byte{0, 1, 2, 255}),
			schema.Float64(math.Inf(1)),
			schema.Bool(true),
		},
		Change: schema.ChangeUpsert,
	}
	enc := AppendRow(nil, row)
	got, used, err := DecodeRow(enc)
	if err != nil {
		t.Fatal(err)
	}
	if used != len(enc) {
		t.Fatalf("consumed %d of %d bytes", used, len(enc))
	}
	if !rowsEqual(got, row) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got.Values, row.Values)
	}
}

func TestRowRoundTripProperty(t *testing.T) {
	s := salesSchema()
	rng := rand.New(rand.NewSource(21))
	f := func(seed int64, change uint8) bool {
		r := schema.RandomRow(rand.New(rand.NewSource(seed)), s)
		r.Change = schema.ChangeType(change % 3)
		enc := AppendRow(nil, r)
		got, used, err := DecodeRow(enc)
		return err == nil && used == len(enc) && rowsEqual(got, r)
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	s := salesSchema()
	rng := rand.New(rand.NewSource(5))
	var rows []schema.Row
	for i := 0; i < 100; i++ {
		rows = append(rows, schema.RandomRow(rng, s))
	}
	got, err := DecodeRows(EncodeRows(rows))
	if err != nil || len(got) != len(rows) {
		t.Fatalf("%d rows, %v", len(got), err)
	}
	for i := range rows {
		if !rowsEqual(got[i], rows[i]) {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

func TestEmptyBatch(t *testing.T) {
	enc := EncodeRows(nil)
	rows, err := DecodeRows(enc)
	if err != nil || len(rows) != 0 {
		t.Fatalf("empty batch: %v, %v", rows, err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	s := salesSchema()
	r := schema.RandomRow(rand.New(rand.NewSource(1)), s)
	enc := EncodeRows([]schema.Row{r})

	// Truncations at every boundary must error, not panic or misparse.
	for cut := 0; cut < len(enc); cut++ {
		if rows, err := DecodeRows(enc[:cut]); err == nil {
			// A prefix that happens to parse must not silently succeed
			// with trailing bytes — but we cut, so success means misparse.
			t.Fatalf("truncation at %d decoded %d rows", cut, len(rows))
		}
	}
	// Trailing garbage is rejected.
	if _, err := DecodeRows(append(append([]byte(nil), enc...), 0x7)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Bad change type.
	bad := append([]byte(nil), enc...)
	bad[1] = 0x55
	if _, err := DecodeRows(bad); err == nil {
		t.Fatal("bad change type accepted")
	}
	// Hostile element count must not allocate absurdly.
	if _, err := DecodeRows([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}); err == nil {
		t.Fatal("hostile row count accepted")
	}
}

// TestDecodeRowsBoundsAllocationByInput: a count is refused unless the
// bytes that remain could hold its elements, so refusing a hostile batch
// allocates in proportion to the batch, not to the count it claims —
// each of these claims 2^24 elements, hundreds of megabytes if believed.
func TestDecodeRowsBoundsAllocationByInput(t *testing.T) {
	huge := binary.AppendUvarint(nil, maxDecodeElems)
	oneRow := []byte{1, byte(schema.ChangeInsert)} // one row, then its value count
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"batch row count", huge},
		{"row value count", append(oneRow, huge...)},
		{"list length", append(append(oneRow, 1, flagList), huge...)},
		{"struct field count", append(append(oneRow, 1, byte(schema.KindStruct)), huge...)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeRows(tc.data)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(tc.data)+1<<20); grew > bound {
			t.Errorf("%s: refusing %d bytes allocated %d", tc.name, len(tc.data), grew)
		}
	}
}

func TestDecodeRejectsDeepNesting(t *testing.T) {
	// A pathological value nested past maxValueDepth must error.
	data := []byte{0, 1} // change=INSERT, 1 value
	for i := 0; i < 64; i++ {
		data = append(data, flagList, 1) // list with one element, 64 deep
	}
	data = append(data, flagNull)
	if _, _, err := DecodeRow(data); err == nil {
		t.Fatal("64-deep nesting accepted")
	}
}

func TestChangeTypeSurvives(t *testing.T) {
	for _, c := range []schema.ChangeType{schema.ChangeInsert, schema.ChangeUpsert, schema.ChangeDelete} {
		r := schema.NewRow(schema.Int64(1)).WithChange(c)
		got, _, err := DecodeRow(AppendRow(nil, r))
		if err != nil {
			t.Fatal(err)
		}
		if got.Change != c {
			t.Fatalf("change = %v, want %v", got.Change, c)
		}
	}
}

func BenchmarkEncodeRow(b *testing.B) {
	s := salesSchema()
	r := schema.RandomRow(rand.New(rand.NewSource(1)), s)
	b.ReportAllocs()
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = AppendRow(buf[:0], r)
	}
}

func BenchmarkDecodeRow(b *testing.B) {
	s := salesSchema()
	enc := AppendRow(nil, schema.RandomRow(rand.New(rand.NewSource(1)), s))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeRow(enc); err != nil {
			b.Fatal(err)
		}
	}
}
