package ros

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"vortex/internal/rowenc"
	"vortex/internal/schema"
	"vortex/internal/snappy"
	"vortex/internal/wire"
)

// parityKinds are the scalar kinds, one flat column each in a parity
// schema.
var parityKinds = []schema.Kind{
	schema.KindInt64, schema.KindFloat64, schema.KindBool, schema.KindString, schema.KindBytes,
	schema.KindTimestamp, schema.KindDate, schema.KindNumeric, schema.KindJSON,
}

// paritySchema is the schema shape picks: one flat column per scalar
// kind, each REQUIRED or NULLABLE by a bit of shape, partitioned on the
// TIMESTAMP or the DATE column and clustered on one or two comparable
// columns; with bit 1, also a repeated scalar and a struct holding a
// nullable, a repeated and a required leaf; with bit 2, a primary key.
// Bit 7 moves the partition to the DATE column, bits 4 to 6 pick the
// clustering columns.
func paritySchema(shape uint32) *schema.Schema {
	s := &schema.Schema{}
	for i, k := range parityKinds {
		mode := schema.Nullable
		if shape>>(8+i)&1 == 1 {
			mode = schema.Required
		}
		s.Fields = append(s.Fields, &schema.Field{Name: fmt.Sprintf("c%d", i), Kind: k, Mode: mode})
	}
	if shape&2 != 0 {
		s.Fields = append(s.Fields,
			&schema.Field{Name: "r", Kind: schema.KindInt64, Mode: schema.Repeated},
			&schema.Field{Name: "s", Kind: schema.KindStruct, Mode: schema.Nullable, Fields: []*schema.Field{
				{Name: "a", Kind: schema.KindFloat64, Mode: schema.Nullable},
				{Name: "b", Kind: schema.KindString, Mode: schema.Repeated},
				{Name: "c", Kind: schema.KindBytes, Mode: schema.Required},
			}})
	}
	if shape&0x80 != 0 {
		s.PartitionField = "c6"
	} else {
		s.PartitionField = "c5"
	}
	clusterings := [][]string{{"c3"}, {"c1"}, {"c3", "c1"}, {"c0", "c4"}, {"c2", "c7"}, nil}
	s.ClusterBy = clusterings[shape>>4%uint32(len(clusterings))]
	if shape&4 != 0 {
		s.PrimaryKey = []string{"c0"}
	}
	return s
}

// The value shapes of a flat column.
const (
	shapeRandom   = iota // random values, specials and NULLs among them
	shapeNull            // every row NULL (one value, for a REQUIRED column)
	shapeDistinct        // a distinct count at or one past a DICT cut
	shapeRuns            // a run count at or one past the RLE cut
	shapeSorted          // a few values, sorted into runs
	shapeSpecial         // NaN, -0.0, 0.0, empty strings, extreme integers
	numShapes
)

// distinctValue is the i-th of a kind's distinct values: every one has
// its own rowenc encoding, as far as the kind has that many.
func distinctValue(k schema.Kind, i int) schema.Value {
	switch k {
	case schema.KindFloat64:
		return schema.Float64(float64(i) / 4)
	case schema.KindBool:
		return schema.Bool(i%2 == 1)
	case schema.KindString:
		return schema.String(fmt.Sprintf("v-%04d", i))
	case schema.KindBytes:
		return schema.Bytes([]byte(fmt.Sprintf("b%d", i)))
	case schema.KindTimestamp:
		return schema.TimestampNanos(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano() + int64(i)*int64(37*time.Minute))
	case schema.KindDate:
		return schema.DateDays(19700 + int64(i)/7)
	case schema.KindNumeric:
		return schema.Numeric(int64(i) * 250_000_000)
	case schema.KindJSON:
		return schema.RawJSON(fmt.Sprintf(`{"k":%d}`, i))
	}
	return schema.Int64(int64(i) * 1000)
}

// specialValues are the edge values of a kind: those whose equality or
// order a typed path could get wrong.
func specialValues(k schema.Kind) []schema.Value {
	switch k {
	case schema.KindFloat64:
		return []schema.Value{schema.Float64(math.NaN()), schema.Float64(math.Copysign(0, -1)), schema.Float64(0),
			schema.Float64(math.Inf(1)), schema.Float64(math.Inf(-1)), schema.Float64(math.Float64frombits(0x7ff8000000000001))}
	case schema.KindBool:
		return []schema.Value{schema.Bool(false), schema.Bool(true)}
	case schema.KindString:
		return []schema.Value{schema.String(""), schema.String("\x00"), schema.String("ä")}
	case schema.KindBytes:
		return []schema.Value{schema.Bytes(nil), schema.Bytes([]byte{0}), schema.Bytes([]byte{0xff, 0})}
	case schema.KindJSON:
		return []schema.Value{schema.RawJSON(""), schema.RawJSON("{}"), schema.RawJSON("null")}
	case schema.KindDate:
		return []schema.Value{schema.DateDays(-1), schema.DateDays(0), schema.DateDays(20000)}
	}
	return []schema.Value{schema.IntOf(k, math.MinInt64), schema.IntOf(k, -1), schema.IntOf(k, 0), schema.IntOf(k, math.MaxInt64)}
}

// flatValues is n values of field f in the given shape; param picks the
// cut a distinct or run shape sits at.
func flatValues(rng *rand.Rand, f *schema.Field, n int, shape, param byte) []schema.Value {
	vals := make([]schema.Value, n)
	nullable := f.Mode == schema.Nullable
	if n == 0 {
		return vals
	}
	switch shape {
	case shapeNull:
		for i := range vals {
			vals[i] = schema.Null()
			if !nullable {
				vals[i] = distinctValue(f.Kind, 3)
			}
		}
	case shapeDistinct:
		cuts := []int{7, 8, n / 2, n/2 + 1, maxDictSize, maxDictSize + 1}
		d := max(min(cuts[int(param)%len(cuts)], n), 1)
		for i, j := range rng.Perm(n) {
			vals[i] = distinctValue(f.Kind, j%d)
		}
	case shapeRuns:
		cuts := []int{n / 2, n/2 + 1, n/2 - 1}
		runs := max(min(cuts[int(param)%len(cuts)], n), 1)
		starts := append([]int{0}, rng.Perm(n - 1)[:runs-1]...)
		for k := 1; k < len(starts); k++ {
			starts[k]++ // a run starts after gap starts[k]-1
		}
		isStart := make([]bool, n)
		for _, s := range starts {
			isStart[s] = true
		}
		v := 0
		for i := range vals {
			if isStart[i] && i > 0 {
				v += 1 + rng.Intn(2) // never the value before
			}
			vals[i] = distinctValue(f.Kind, v)
		}
	case shapeSorted:
		for i := range vals {
			vals[i] = distinctValue(f.Kind, rng.Intn(5))
		}
		slices.SortStableFunc(vals, schema.Value.Compare)
	case shapeSpecial:
		sp := specialValues(f.Kind)
		for i := range vals {
			vals[i] = sp[rng.Intn(len(sp))]
			if nullable && rng.Intn(6) == 0 {
				vals[i] = schema.Null()
			}
		}
	default:
		sp := specialValues(f.Kind)
		for i := range vals {
			switch r := rng.Intn(8); {
			case nullable && r == 0:
				vals[i] = schema.Null()
			case r == 1:
				vals[i] = sp[rng.Intn(len(sp))]
			default:
				vals[i] = schema.RandomScalar(rng, f.Kind)
			}
		}
	}
	return vals
}

// FuzzWriterParity holds the Writer's typed path to its value walk:
// the file written from typed columns through AddColumns — in one call
// or several, from typed PLAIN vectors or from DICT and RLE ones — is
// byte for byte the file the same rows make through Add, one at a time,
// and the partitions, filter, cluster bounds and row count agree. Both
// share the typed page builder, so the file is also held to the values
// themselves (checkAgainstValues): its rows read back bit for bit, and
// each page and range is what the value-at-a-time policy makes. The
// inputs pick a flat or nested schema over every scalar kind and, per
// flat column, a value shape: NULLs, NaN, -0.0, empty strings, all-NULL
// columns, distinct counts at the 8-value DICT threshold, at half the
// values and at maxDictSize (or one past them), and run counts exactly
// at the RLE cut (or one past it).
func FuzzWriterParity(f *testing.F) {
	f.Add(int64(1), uint16(64), uint32(0), []byte{0, 1, 2, 3, 4, 5, 0, 1, 2})
	f.Add(int64(2), uint16(300), uint32(0x1ff02), []byte{2, 2, 2, 2, 2, 2, 2, 2, 2})
	f.Add(int64(3), uint16(16), uint32(0x00006), []byte{2, 3, 2, 3, 2, 3, 2, 3, 2, 1, 0, 1, 0, 1, 0, 1, 0, 1})
	f.Add(int64(4), uint16(2050), uint32(0x0ff00), []byte{2, 2, 2, 2, 2, 2, 2, 2, 2, 4, 5, 4, 5, 4, 5, 4, 5, 4})
	f.Add(int64(5), uint16(2049), uint32(0x10ff00), []byte{2, 2, 2, 2, 2, 2, 2, 2, 2, 5, 5, 5, 5, 5, 5, 5, 5, 5})
	f.Add(int64(6), uint16(201), uint32(0x21), []byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 0, 1, 2, 0, 1, 2, 0, 1, 2})
	f.Add(int64(7), uint16(9), uint32(0x1ff3a), []byte{5, 5, 5, 5, 5, 5, 5, 5, 5})
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, shape uint32, shapes []byte) {
		rng := rand.New(rand.NewSource(seed))
		s := paritySchema(shape)
		n := int(rows) % 2100
		pick := func(i int) byte {
			if i < len(shapes) {
				return shapes[i]
			}
			return 0
		}
		colVals := make([][]schema.Value, len(s.Fields))
		for fi, fd := range s.Fields {
			if fi >= len(parityKinds) { // the nested fields
				one := &schema.Schema{Fields: []*schema.Field{fd}}
				colVals[fi] = make([]schema.Value, n)
				for i := range colVals[fi] {
					colVals[fi][i] = schema.RandomRow(rng, one).Values[0]
				}
				continue
			}
			colVals[fi] = flatValues(rng, fd, n, pick(fi)%numShapes, pick(fi+len(parityKinds)))
		}
		rowsOf := make([]schema.Row, n)
		for i := range rowsOf {
			vals := make([]schema.Value, len(s.Fields))
			for fi := range vals {
				vals[fi] = colVals[fi][i]
			}
			rowsOf[i] = schema.NewRow(vals...)
			if len(s.PrimaryKey) > 0 {
				rowsOf[i].Change = schema.ChangeType(rng.Intn(3))
			}
		}
		cols, seqs, changes := columnsOf(s, rowsOf)
		for fi := range cols {
			switch v := colVals[fi]; {
			case shape&8 == 0 || fi >= len(parityKinds):
			case fi%2 == 0:
				if dict, codes, ok := wire.BuildDict(v, len(v)); ok {
					cols[fi] = wire.DictVector(s.Fields[fi].Name, dict, codes)
				}
			default:
				if runs, ok := wire.BuildRuns(v, len(v)); ok {
					cols[fi] = wire.RLEVector(s.Fields[fi].Name, runs)
				}
			}
		}
		perm := wire.SelectAll(n)
		if shape&1 != 0 {
			perm = perm[:0]
			for _, i := range rng.Perm(n) {
				if rng.Intn(4) > 0 {
					perm = append(perm, int32(i))
				}
			}
		}

		byRow := NewWriter(s)
		byRow.AllowMixedPartitions()
		var rowErr error
		for _, i := range perm {
			if rowErr = byRow.Add(rowsOf[i], seqs[i]); rowErr != nil {
				break
			}
		}
		typed := NewWriter(s)
		typed.AllowMixedPartitions()
		calls := 1 + int(shape>>24)%3
		var colErr error
		for c := 0; c < calls && colErr == nil; c++ {
			colErr = typed.AddColumns(cols, seqs, changes, perm[c*len(perm)/calls:(c+1)*len(perm)/calls])
		}
		if (rowErr == nil) != (colErr == nil) || (rowErr != nil && rowErr.Error() != colErr.Error()) {
			t.Fatalf("Add: %v; AddColumns: %v", rowErr, colErr)
		}
		if rowErr != nil {
			return
		}
		want, err := byRow.Finish()
		if err != nil {
			t.Fatal(err)
		}
		got, err := typed.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d rows of %d columns: the file from typed columns differs from the row-at-a-time file", len(perm), len(s.Fields))
		}
		gotMin, gotMax := typed.ClusterBounds()
		wantMin, wantMax := byRow.ClusterBounds()
		if !reflect.DeepEqual(typed.Partitions(), byRow.Partitions()) || !bytes.Equal(typed.Bloom(), byRow.Bloom()) ||
			typed.RowCount() != byRow.RowCount() || fmt.Sprint(gotMin, gotMax) != fmt.Sprint(wantMin, wantMax) {
			t.Fatal("partitions, filter, cluster bounds or row count differ")
		}
		checkAgainstValues(t, s, got, rowsOf, perm)
	})
}

// checkAgainstValues holds a file to what the rows it was written from
// say, independently of the Writer's typed buffers: it reads back, bit
// for bit, the rows perm names, and every column's value page and range
// are what the value-at-a-time policy (oraclePage, oracleRange) makes
// of the column's values.
func checkAgainstValues(t *testing.T, s *schema.Schema, file []byte, rows []schema.Row, perm []int32) {
	t.Helper()
	r, err := Open(file)
	if err != nil {
		t.Fatalf("the file does not open: %v", err)
	}
	back, err := r.Rows(s)
	if err != nil {
		t.Fatal(err)
	}
	for k, i := range perm {
		if !bytes.Equal(rowenc.AppendRow(nil, back[k].Row), rowenc.AppendRow(nil, rows[i])) {
			t.Fatalf("row %d reads back as %v, was written as %v", k, back[k].Row.Values, rows[i].Values)
		}
	}
	for _, path := range r.order {
		c := r.Column(path)
		if c == nil {
			t.Fatalf("column %q does not decode", path)
		}
		enc, page := oraclePage(c.Values)
		stored := byte(c.Stats.Encoding)
		if c.compressed {
			stored |= pageSnappy
		}
		if stored != enc || !bytes.Equal(c.rawValues, page) {
			t.Fatalf("column %q: page 0x%02x of %d bytes, the value policy makes 0x%02x of %d bytes", path, stored, len(c.rawValues), enc, len(page))
		}
		mn, mx, ok := oracleRange(c.Leaf.Kind, c.Values)
		if ok != c.Stats.HasRange || (ok && (!bytes.Equal(rowenc.AppendValue(nil, mn), rowenc.AppendValue(nil, c.Stats.Min)) ||
			!bytes.Equal(rowenc.AppendValue(nil, mx), rowenc.AppendValue(nil, c.Stats.Max)))) {
			t.Fatalf("column %q: range %v..%v (%v), the values' is %v..%v (%v)", path, c.Stats.Min, c.Stats.Max, c.Stats.HasRange, mn, mx, ok)
		}
	}
}

// oraclePage is the value page policy a value at a time, as the Writer
// applied it before it kept values typed: a DICT page from BuildDict
// when there are at least 8 values and at most min(maxDictSize, half)
// distinct ones, else PLAIN, unless BuildRuns finds at most half as
// many runs as values and their page is smaller; then Snappy where it
// makes the page smaller.
func oraclePage(values []schema.Value) (byte, []byte) {
	v := wire.PlainVector("", values)
	if len(values) >= 8 {
		if dict, codes, ok := wire.BuildDict(values, min(maxDictSize, len(values)/2)); ok {
			v = wire.DictVector("", dict, codes)
		}
	}
	enc, page := wire.ColumnPayload(&v, nil)
	if runs, ok := wire.BuildRuns(values, len(values)/2); ok {
		rle := wire.RLEVector("", runs)
		if e, p := wire.ColumnPayload(&rle, nil); len(p) < len(page) {
			enc, page = e, p
		}
	}
	if z := snappy.Encode(page); len(z) < len(page) {
		enc, page = enc|pageSnappy, z
	}
	return enc, page
}

// oracleRange is a comparable column's least and greatest value under
// schema.Value.Compare, the first seen of equals.
func oracleRange(k schema.Kind, values []schema.Value) (mn, mx schema.Value, ok bool) {
	if !k.Comparable() {
		return mn, mx, false
	}
	for _, v := range values {
		if !ok {
			mn, mx, ok = v, v, true
			continue
		}
		if v.Compare(mn) < 0 {
			mn = v
		}
		if v.Compare(mx) > 0 {
			mx = v
		}
	}
	return mn, mx, ok
}
