package schema

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// A Value is three machine words; every cached vector, WOS block and
// query row is a slice of them.
func TestValueIsThreeWords(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 24", got)
	}
}

// TestCrossKindAccessors pins what every accessor returns on every kind
// of value, the kinds it was not made for included: a view the value
// does not have reads as 0, "", nil or no elements.
func TestCrossKindAccessors(t *testing.T) {
	type want struct {
		kind       Kind
		null, list bool
		i          int64 // AsInt64, AsDateDays, AsNumericScaled and AsTime's nanoseconds
		f          float64
		b          bool
		s          string
		bytes      []byte
		n          int // Len
		elems      int // len(Elems()); -1 for nil
		fields     int // len(Fields()); -1 for nil
		str, key   string
	}
	scalar := func(k Kind, i int64, f float64, str string) want {
		return want{kind: k, i: i, f: f, b: i != 0, elems: -1, fields: -1, str: str, key: str}
	}
	cases := []struct {
		name string
		v    Value
		want want
	}{
		{"null", Null(), want{null: true, elems: -1, fields: -1, str: "NULL", key: "NULL"}},
		{"int64", Int64(-7), scalar(KindInt64, -7, -7, "-7")},
		{"float64", Float64(2.5), want{kind: KindFloat64, f: 2.5, elems: -1, fields: -1, str: "2.5", key: "2.5"}},
		{"bool", Bool(true), scalar(KindBool, 1, 1, "true")},
		{"false", Bool(false), scalar(KindBool, 0, 0, "false")},
		{"string", String("héllo"), want{kind: KindString, s: "héllo", elems: -1, fields: -1, str: `"héllo"`, key: "héllo"}},
		{"empty string", String(""), want{kind: KindString, elems: -1, fields: -1, str: `""`}},
		{"bytes", Bytes([]byte{1, 'a'}), want{kind: KindBytes, bytes: []byte{1, 'a'}, elems: -1, fields: -1, str: `b"\x01a"`, key: "\x01a"}},
		{"empty bytes", Bytes([]byte{}), want{kind: KindBytes, elems: -1, fields: -1, str: `b""`}},
		{"timestamp", TimestampNanos(1234), scalar(KindTimestamp, 1234, 1234, "1970-01-01T00:00:00.000001234Z")},
		{"date", DateDays(19000), scalar(KindDate, 19000, 19000, "2022-01-08")},
		{"numeric", Numeric(1_500_000_000), scalar(KindNumeric, 1_500_000_000, 1.5, "1.5")},
		{"json", RawJSON(`{"a":1}`), want{kind: KindJSON, s: `{"a":1}`, elems: -1, fields: -1, str: `{"a":1}`, key: `{"a":1}`}},
		{"struct", Struct(Int64(1), String("x")), want{kind: KindStruct, n: 2, elems: -1, fields: 2, str: `{1, "x"}`, key: `{1, "x"}`}},
		{"empty struct", Struct(), want{kind: KindStruct, elems: -1, fields: -1, str: "{}", key: "{}"}},
		{"list", List(Int64(1), Int64(2), Int64(3)), want{list: true, n: 3, elems: 3, fields: -1, str: "[1, 2, 3]", key: "[1, 2, 3]"}},
		{"list of structs", List(Struct(String("a"))), want{list: true, n: 1, elems: 1, fields: -1, str: `[{"a"}]`, key: `[{"a"}]`}},
		{"empty list", List(), want{list: true, elems: -1, fields: -1, str: "[]", key: "[]"}},
	}
	sliceLen := func(vs []Value) int {
		if vs == nil {
			return -1
		}
		return len(vs)
	}
	for _, c := range cases {
		v, w := c.v, c.want
		got := want{
			kind: v.Kind(), null: v.IsNull(), list: v.IsList(),
			i: v.AsInt64(), f: v.AsFloat64(), b: v.AsBool(), s: v.AsString(), bytes: v.AsBytes(),
			n: v.Len(), elems: sliceLen(v.Elems()), fields: sliceLen(v.Fields()),
			str: v.String(), key: v.Key(),
		}
		if got.kind != w.kind || got.null != w.null || got.list != w.list || got.i != w.i || got.f != w.f ||
			got.b != w.b || got.s != w.s || !bytes.Equal(got.bytes, w.bytes) || (got.bytes == nil) != (w.bytes == nil) ||
			got.n != w.n || got.elems != w.elems || got.fields != w.fields || got.str != w.str || got.key != w.key {
			t.Errorf("%s:\n got %+v\nwant %+v", c.name, got, w)
		}
		if v.AsDateDays() != w.i || v.AsNumericScaled() != w.i || v.AsTime().UnixNano() != w.i {
			t.Errorf("%s: AsDateDays/AsNumericScaled/AsTime = %d/%d/%d, want %d",
				c.name, v.AsDateDays(), v.AsNumericScaled(), v.AsTime().UnixNano(), w.i)
		}
		if !v.Equal(v) {
			t.Errorf("%s: not Equal to itself", c.name)
		}
	}
}

func TestBytesAreCopiedInAndOut(t *testing.T) {
	b := []byte("abc")
	v := Bytes(b)
	b[0] = 'X'
	if got := v.AsBytes(); string(got) != "abc" {
		t.Fatalf("Bytes kept the caller's slice: %q", got)
	}
	out := v.AsBytes()
	out[1] = 'Y'
	if got := v.AsBytes(); string(got) != "abc" {
		t.Fatalf("AsBytes returned the value's own bytes: %q", got)
	}
}

// An append to Elems or Fields cannot write into what lies past a
// value's elements in the array it was built from.
func TestElemsAndFieldsAreCapped(t *testing.T) {
	backing := []Value{Int64(1), Int64(2), Int64(3)}
	for _, v := range []Value{List(backing[:2]...), Struct(backing[:2]...)} {
		vs := v.Elems()
		if !v.IsList() {
			vs = v.Fields()
		}
		if len(vs) != 2 || cap(vs) != 2 {
			t.Fatalf("%v: len %d cap %d, want 2 and 2", v, len(vs), cap(vs))
		}
		_ = append(vs, Int64(99))
		if backing[2].AsInt64() != 3 {
			t.Fatalf("%v: an append overwrote the next element", v)
		}
	}
}

func TestEqualAndCompareEdges(t *testing.T) {
	nan := Float64(math.NaN())
	if !nan.Equal(Float64(math.NaN())) || nan.Equal(Float64(1)) {
		t.Error("NaN must Equal NaN and nothing else")
	}
	if nan.Compare(Float64(1)) != 0 || Float64(1).Compare(nan) != 0 {
		t.Error("Compare holds NaN equal to every float")
	}
	if !Null().Equal(Null()) || Null().Equal(Int64(0)) || Int64(0).Equal(Null()) {
		t.Error("NULL equals NULL only")
	}
	if String("").Equal(Null()) || Null().Equal(String("")) || String("").Equal(Bytes(nil)) || String("").Equal(RawJSON("")) {
		t.Error("an empty string equals only an empty string")
	}
	if Null().Compare(String("")) != -1 || String("").Compare(Null()) != 1 || String("").Compare(String("a")) != -1 {
		t.Error("NULL < \"\" < \"a\"")
	}
	if Bytes(nil).Compare(Bytes([]byte{0})) != -1 || Bytes([]byte{1}).Compare(Bytes([]byte{1})) != 0 {
		t.Error("bytes order as bytes.Compare does")
	}
	nested := func(last string) Value {
		return List(Struct(Int64(1), List(String("a"), String(last))), Struct(Null(), List()))
	}
	if !nested("b").Equal(nested("b")) || nested("b").Equal(nested("c")) {
		t.Error("nested lists of structs compare element by element")
	}
	if List(Int64(1)).Equal(Struct(Int64(1))) || List().Equal(Null()) || List().Equal(List(Int64(1))) {
		t.Error("a list equals only a list of equal elements")
	}
}

// The GC traces a Value's pointer: strings and elements built in
// buffers nothing else references survive collections intact.
func TestValuesKeepTheirDataAlive(t *testing.T) {
	build := func(i int) Value {
		var sb strings.Builder
		sb.WriteString(strings.Repeat("x", i))
		return List(String(sb.String()), Bytes([]byte(sb.String())), Struct(String(sb.String())))
	}
	vs := make([]Value, 200)
	for i := range vs {
		vs[i] = build(i)
	}
	runtime.GC()
	for i, v := range vs {
		want := strings.Repeat("x", i)
		if v.Index(0).AsString() != want || string(v.Index(1).AsBytes()) != want || v.Index(2).FieldValue(0).AsString() != want {
			t.Fatalf("value %d lost its data after a GC: %v", i, v)
		}
	}
}

// BenchmarkClusterSort stably sorts a permutation of 4 096 rows by a
// STRING and then an INT64 column with Compare, which takes both Values
// by value: the optimizer's clustering sort, on Sales-sized files.
func BenchmarkClusterSort(b *testing.B) {
	const rows = 4096
	rng := rand.New(rand.NewSource(1))
	keys, ints := make([]Value, rows), make([]Value, rows)
	for i := range keys {
		keys[i], ints[i] = RandomScalar(rng, KindString), RandomScalar(rng, KindInt64)
	}
	perm := make([]int32, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range perm {
			perm[j] = int32(j)
		}
		slices.SortStableFunc(perm, func(x, y int32) int {
			if c := keys[x].Compare(keys[y]); c != 0 {
				return c
			}
			return ints[x].Compare(ints[y])
		})
	}
}
