package schema

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unsafe"
)

// NumericScale is the fixed-point scale of KindNumeric values: NUMERIC is
// stored as an int64 count of 1e-9 units (a simplification of BigQuery's
// 38-digit NUMERIC that preserves its fixed-point comparison semantics).
const NumericScale = 1_000_000_000

// Value is one (possibly nested, possibly repeated) datum. The zero Value
// is NULL. Values are immutable by convention: accessors return copies of
// mutable internals where aliasing would be observable.
//
// A Value is three machine words. n holds the payload of the integer
// kinds (INT64, BOOL as 0/1, TIMESTAMP ns, DATE days, NUMERIC 1e-9
// units) or a FLOAT64's bits; p points at the data of a STRING, JSON or
// BYTES value, or at the first element of a list's or a struct's
// []Value, and n is then its length. The GC traces p, so a Value keeps
// its backing array alive as the string or slice header it came from
// did. Which of p and n means what depends on kind and rep alone, and
// every accessor checks them first: a view another kind does not have
// reads as zero, "", nil or no elements.
type Value struct {
	_    [0]func()      // not comparable with ==, as a struct of slices is not
	p    unsafe.Pointer // STRING/JSON/BYTES data, or a list's or struct's elements
	n    int64          // integer payload, FLOAT64 bits, or the length behind p
	kind uint8          // a Kind; KindInvalid for NULL and lists
	null bool
	rep  bool // a repeated list
}

// intKinds are the kinds whose payload is n itself.
const intKinds = 1<<KindInt64 | 1<<KindBool | 1<<KindTimestamp | 1<<KindDate | 1<<KindNumeric

// int is the integer payload; 0 for every other kind.
func (v Value) int() int64 {
	if intKinds>>v.kind&1 != 0 {
		return v.n
	}
	return 0
}

// str is the STRING or JSON payload; "" for every other kind.
func (v Value) str() string {
	if k := Kind(v.kind); k == KindString || k == KindJSON {
		return unsafe.String((*byte)(v.p), int(v.n))
	}
	return ""
}

// byt is the BYTES payload, not copied; nil for every other kind.
func (v Value) byt() []byte {
	if Kind(v.kind) == KindBytes {
		return unsafe.Slice((*byte)(v.p), int(v.n))
	}
	return nil
}

// elems is a list's elements; nil unless the value is a list.
func (v Value) elems() []Value {
	if v.rep {
		return unsafe.Slice((*Value)(v.p), int(v.n))
	}
	return nil
}

// fields is a struct's field values; nil unless the value is a struct.
func (v Value) fields() []Value {
	if Kind(v.kind) == KindStruct {
		return unsafe.Slice((*Value)(v.p), int(v.n))
	}
	return nil
}

func intValue(k Kind, i int64) Value { return Value{kind: uint8(k), n: i} }

func strValue(k Kind, s string) Value {
	return Value{kind: uint8(k), p: unsafe.Pointer(unsafe.StringData(s)), n: int64(len(s))}
}

// bytesValue wraps b without copying it: for callers that own b.
func bytesValue(b []byte) Value {
	return Value{kind: uint8(KindBytes), p: unsafe.Pointer(unsafe.SliceData(b)), n: int64(len(b))}
}

// IntOf returns the value of integer kind k — INT64, BOOL (n 0 or 1),
// TIMESTAMP, DATE or NUMERIC — whose payload is n: AsInt64's inverse,
// for a column that stores its kind once and its payloads unboxed. Any
// other kind panics.
func IntOf(k Kind, n int64) Value {
	if intKinds>>k&1 == 0 {
		panic("schema: IntOf of a kind without an integer payload")
	}
	return intValue(k, n)
}

// Null returns a NULL value (assignable to any nullable field).
func Null() Value { return Value{null: true} }

// Int64 returns an INTEGER value.
func Int64(v int64) Value { return intValue(KindInt64, v) }

// Float64 returns a FLOAT64 value.
func Float64(v float64) Value { return Value{kind: uint8(KindFloat64), n: int64(math.Float64bits(v))} }

// Bool returns a BOOL value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return intValue(KindBool, i)
}

// String returns a STRING value.
func String(v string) Value { return strValue(KindString, v) }

// Bytes returns a BYTES value (the slice is copied).
func Bytes(v []byte) Value { return bytesValue(append([]byte(nil), v...)) }

// Timestamp returns a TIMESTAMP value.
func Timestamp(t time.Time) Value { return intValue(KindTimestamp, t.UnixNano()) }

// TimestampNanos returns a TIMESTAMP value from epoch nanoseconds.
func TimestampNanos(ns int64) Value { return intValue(KindTimestamp, ns) }

// Date returns a DATE value from a time (its UTC calendar date).
func Date(t time.Time) Value {
	u := t.UTC()
	days := u.Unix() / 86400
	if u.Unix() < 0 && u.Unix()%86400 != 0 {
		days--
	}
	return intValue(KindDate, days)
}

// DateDays returns a DATE value from days since the Unix epoch.
func DateDays(days int64) Value { return intValue(KindDate, days) }

// Numeric returns a NUMERIC value from a scaled integer (1e-9 units).
func Numeric(scaled int64) Value { return intValue(KindNumeric, scaled) }

// NumericFromString parses a decimal literal like "123.456" into NUMERIC.
func NumericFromString(s string) (Value, error) {
	neg := false
	t := strings.TrimSpace(s)
	if strings.HasPrefix(t, "-") {
		neg = true
		t = t[1:]
	}
	intPart, fracPart := t, ""
	if dot := strings.IndexByte(t, '.'); dot >= 0 {
		intPart, fracPart = t[:dot], t[dot+1:]
	}
	if intPart == "" && fracPart == "" {
		return Value{}, fmt.Errorf("schema: invalid NUMERIC %q", s)
	}
	if intPart == "" {
		intPart = "0"
	}
	ip, err := strconv.ParseInt(intPart, 10, 64)
	if err != nil {
		return Value{}, fmt.Errorf("schema: invalid NUMERIC %q: %w", s, err)
	}
	if len(fracPart) > 9 {
		return Value{}, fmt.Errorf("schema: NUMERIC %q exceeds 1e-9 resolution", s)
	}
	fp := int64(0)
	if fracPart != "" {
		fp, err = strconv.ParseInt(fracPart+strings.Repeat("0", 9-len(fracPart)), 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("schema: invalid NUMERIC %q: %w", s, err)
		}
	}
	scaled := ip*NumericScale + fp
	if neg {
		scaled = -scaled
	}
	return Numeric(scaled), nil
}

// JSON returns a JSON value, canonicalizing the document. It returns an
// error if doc is not valid JSON.
func JSON(doc string) (Value, error) {
	var any interface{}
	if err := json.Unmarshal([]byte(doc), &any); err != nil {
		return Value{}, fmt.Errorf("schema: invalid JSON: %w", err)
	}
	canon, err := json.Marshal(any)
	if err != nil {
		return Value{}, fmt.Errorf("schema: canonicalize JSON: %w", err)
	}
	return strValue(KindJSON, string(canon)), nil
}

// RawJSON returns a JSON value without re-canonicalizing doc. It is for
// decoders reading documents that were canonicalized by JSON when first
// constructed; arbitrary user input must go through JSON instead.
func RawJSON(doc string) Value { return strValue(KindJSON, doc) }

// Struct returns a STRUCT value with the given field values (parallel to
// the schema's Field.Fields).
func Struct(fieldValues ...Value) Value {
	return Value{kind: uint8(KindStruct), p: unsafe.Pointer(unsafe.SliceData(fieldValues)), n: int64(len(fieldValues))}
}

// List returns a REPEATED value holding the given elements.
func List(elems ...Value) Value {
	return Value{rep: true, p: unsafe.Pointer(unsafe.SliceData(elems)), n: int64(len(elems))}
}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.null }

// IsList reports whether the value is a repeated list.
func (v Value) IsList() bool { return v.rep }

// Kind returns the value's kind (KindInvalid for NULL and lists).
func (v Value) Kind() Kind { return Kind(v.kind) }

// AsInt64 returns the INTEGER payload.
func (v Value) AsInt64() int64 { return v.int() }

// AsFloat64 returns the FLOAT64 payload; INTEGER and NUMERIC values are
// widened.
func (v Value) AsFloat64() float64 {
	switch Kind(v.kind) {
	case KindFloat64:
		return math.Float64frombits(uint64(v.n))
	case KindNumeric:
		return float64(v.n) / NumericScale
	default:
		return float64(v.int())
	}
}

// AsBool returns the BOOL payload.
func (v Value) AsBool() bool { return v.int() != 0 }

// AsString returns the STRING or JSON payload.
func (v Value) AsString() string { return v.str() }

// AsBytes returns a copy of the BYTES payload.
func (v Value) AsBytes() []byte { return append([]byte(nil), v.byt()...) }

// AsTime returns the TIMESTAMP payload as a time.Time (UTC).
func (v Value) AsTime() time.Time { return time.Unix(0, v.int()).UTC() }

// AsDateDays returns the DATE payload as days since the epoch.
func (v Value) AsDateDays() int64 { return v.int() }

// AsNumericScaled returns the NUMERIC payload in 1e-9 units.
func (v Value) AsNumericScaled() int64 { return v.int() }

// Len returns the number of elements of a repeated value, or the number
// of fields of a struct value.
func (v Value) Len() int {
	if v.rep || Kind(v.kind) == KindStruct {
		return int(v.n)
	}
	return 0
}

// Index returns element i of a repeated value.
func (v Value) Index(i int) Value { return v.elems()[i] }

// FieldValue returns field i of a struct value.
func (v Value) FieldValue(i int) Value { return v.fields()[i] }

// Elems returns the elements of a repeated value: the value's own
// slice, for walking them in place (Index copies one out). Read-only;
// its capacity is its length, so an append copies.
func (v Value) Elems() []Value { return v.elems() }

// Fields returns the field values of a struct value: like Elems, the
// value's own slice, read-only.
func (v Value) Fields() []Value { return v.fields() }

// Equal reports deep equality, including kind.
func (v Value) Equal(o Value) bool {
	if v.null || o.null {
		return v.null == o.null
	}
	if v.rep != o.rep {
		return false
	}
	if v.rep {
		return equalAll(v.elems(), o.elems())
	}
	if v.kind != o.kind {
		return false
	}
	switch Kind(v.kind) {
	case KindFloat64:
		a, b := v.AsFloat64(), o.AsFloat64()
		return a == b || (math.IsNaN(a) && math.IsNaN(b))
	case KindString, KindJSON:
		return v.str() == o.str()
	case KindBytes:
		return bytes.Equal(v.byt(), o.byt())
	case KindStruct:
		return equalAll(v.fields(), o.fields())
	default:
		return v.n == o.n
	}
}

func equalAll(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// Compare orders two scalar values of the same comparable kind:
// -1, 0 or +1. NULL sorts before every non-NULL value. Compare panics on
// kind mismatch or non-comparable kinds — callers validate first.
func (v Value) Compare(o Value) int {
	if v.null || o.null {
		switch {
		case v.null && o.null:
			return 0
		case v.null:
			return -1
		default:
			return 1
		}
	}
	if v.kind != o.kind {
		panic(fmt.Sprintf("schema: comparing %v with %v", v.Kind(), o.Kind()))
	}
	switch Kind(v.kind) {
	case KindInt64, KindBool, KindTimestamp, KindDate, KindNumeric:
		switch {
		case v.n < o.n:
			return -1
		case v.n > o.n:
			return 1
		}
		return 0
	case KindFloat64:
		a, b := v.AsFloat64(), o.AsFloat64()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case KindString, KindJSON:
		return strings.Compare(v.str(), o.str())
	case KindBytes:
		return bytes.Compare(v.byt(), o.byt())
	}
	panic(fmt.Sprintf("schema: kind %v is not comparable", v.Kind()))
}

// String renders the value for logs and query output.
func (v Value) String() string {
	if v.null {
		return "NULL"
	}
	if v.rep {
		return "[" + joinValues(v.elems()) + "]"
	}
	switch Kind(v.kind) {
	case KindInt64:
		return strconv.FormatInt(v.n, 10)
	case KindFloat64:
		return strconv.FormatFloat(v.AsFloat64(), 'g', -1, 64)
	case KindBool:
		if v.n != 0 {
			return "true"
		}
		return "false"
	case KindString:
		return strconv.Quote(v.str())
	case KindJSON:
		return v.str()
	case KindBytes:
		return fmt.Sprintf("b%q", v.byt())
	case KindTimestamp:
		return v.AsTime().Format(time.RFC3339Nano)
	case KindDate:
		return time.Unix(v.n*86400, 0).UTC().Format("2006-01-02")
	case KindNumeric:
		whole, frac := v.n/NumericScale, v.n%NumericScale
		if frac == 0 {
			return strconv.FormatInt(whole, 10)
		}
		neg := ""
		if v.n < 0 {
			neg = "-"
			whole, frac = -whole, -frac
		}
		return fmt.Sprintf("%s%d.%s", neg, whole, strings.TrimRight(fmt.Sprintf("%09d", frac), "0"))
	case KindStruct:
		return "{" + joinValues(v.fields()) + "}"
	}
	return "INVALID"
}

func joinValues(vs []Value) string {
	parts := make([]string, len(vs))
	for i, e := range vs {
		parts[i] = e.String()
	}
	return strings.Join(parts, ", ")
}

// Key renders the value as a canonical lookup key for bloom-filter
// membership: raw bytes for strings, String() for everything else. Using
// one convention on both the write path (fragment/ROS blooms) and the
// read path (partition elimination probes) is what makes the
// no-false-negative guarantee hold end to end.
func (v Value) Key() string {
	switch Kind(v.kind) {
	case KindString, KindJSON:
		return v.str()
	case KindBytes:
		return string(v.byt())
	default:
		return v.String()
	}
}

// Row is one table row: top-level values parallel to Schema.Fields, plus
// the `_CHANGE_TYPE` virtual column.
type Row struct {
	Values []Value
	Change ChangeType
}

// NewRow builds an INSERT row from values.
func NewRow(values ...Value) Row { return Row{Values: values} }

// WithChange returns a copy of the row with the given change type.
func (r Row) WithChange(c ChangeType) Row {
	r.Change = c
	return r
}

// Clone returns a deep-enough copy (Values share immutable internals).
func (r Row) Clone() Row {
	return Row{Values: append([]Value(nil), r.Values...), Change: r.Change}
}

// ValidateRow checks that the row conforms to the schema: arity, field
// kinds, modes (REQUIRED non-null, REPEATED lists), recursively. For
// schema evolution, rows may have fewer values than the schema has fields
// (trailing added fields read as NULL) but never more.
func (s *Schema) ValidateRow(r Row) error {
	if len(r.Values) > len(s.Fields) {
		return fmt.Errorf("schema: row has %d values, schema has %d fields", len(r.Values), len(s.Fields))
	}
	for i, v := range r.Values {
		if err := validateValue(s.Fields[i], v); err != nil {
			return err
		}
	}
	// Fields beyond the row's arity must tolerate NULL.
	for i := len(r.Values); i < len(s.Fields); i++ {
		if s.Fields[i].Mode == Required {
			return fmt.Errorf("schema: row missing REQUIRED field %q", s.Fields[i].Name)
		}
	}
	if r.Change != ChangeInsert && len(s.PrimaryKey) == 0 {
		return fmt.Errorf("schema: %v rows require a primary key on the table", r.Change)
	}
	return nil
}

func validateValue(f *Field, v Value) error {
	if v.IsNull() {
		if f.Mode == Required {
			return fmt.Errorf("schema: field %q is REQUIRED but value is NULL", f.Name)
		}
		return nil
	}
	if f.Mode == Repeated {
		if !v.IsList() {
			return fmt.Errorf("schema: field %q is REPEATED but value is %v", f.Name, v.Kind())
		}
		for i := 0; i < v.Len(); i++ {
			e := v.Index(i)
			if e.IsNull() {
				return fmt.Errorf("schema: field %q: repeated elements cannot be NULL", f.Name)
			}
			if err := validateScalarOrStruct(f, e); err != nil {
				return err
			}
		}
		return nil
	}
	if v.IsList() {
		return fmt.Errorf("schema: field %q is not REPEATED but value is a list", f.Name)
	}
	return validateScalarOrStruct(f, v)
}

func validateScalarOrStruct(f *Field, v Value) error {
	if v.Kind() != f.Kind {
		return fmt.Errorf("schema: field %q expects %v, got %v", f.Name, f.Kind, v.Kind())
	}
	if f.Kind == KindStruct {
		if v.Len() > len(f.Fields) {
			return fmt.Errorf("schema: struct %q has %d values for %d fields", f.Name, v.Len(), len(f.Fields))
		}
		for i := 0; i < v.Len(); i++ {
			if err := validateValue(f.Fields[i], v.FieldValue(i)); err != nil {
				return err
			}
		}
		for i := v.Len(); i < len(f.Fields); i++ {
			if f.Fields[i].Mode == Required {
				return fmt.Errorf("schema: struct %q missing REQUIRED field %q", f.Name, f.Fields[i].Name)
			}
		}
	}
	return nil
}

// PrimaryKeyOf extracts the row's primary key as a canonical string.
// It returns an error if any key column is NULL or missing.
func (s *Schema) PrimaryKeyOf(r Row) (string, error) {
	if len(s.PrimaryKey) == 0 {
		return "", fmt.Errorf("schema: table has no primary key")
	}
	var b strings.Builder
	for n, col := range s.PrimaryKey {
		i := s.FieldIndex(col)
		if i < 0 || i >= len(r.Values) || r.Values[i].IsNull() {
			return "", fmt.Errorf("schema: primary key column %q is NULL or missing", col)
		}
		if n > 0 {
			b.WriteByte(0)
		}
		b.WriteString(r.Values[i].String())
	}
	return b.String(), nil
}

// PartitionOf returns the row's partition id — the calendar date of the
// partition column as days since epoch — or (0, false) for unpartitioned
// tables or NULL partition values.
func (s *Schema) PartitionOf(r Row) (int64, bool) {
	if s.PartitionField == "" {
		return 0, false
	}
	i := s.FieldIndex(s.PartitionField)
	if i < 0 || i >= len(r.Values) {
		return 0, false
	}
	return PartitionOfValue(r.Values[i])
}

// PartitionOfValue is PartitionOf given the partition column's value:
// what a caller holding that column, not rows, partitions by.
func PartitionOfValue(v Value) (int64, bool) {
	if v.IsNull() {
		return 0, false
	}
	switch v.Kind() {
	case KindDate:
		return v.AsDateDays(), true
	case KindTimestamp:
		ns := v.AsInt64()
		days := ns / (86400 * int64(time.Second))
		if ns < 0 && ns%(86400*int64(time.Second)) != 0 {
			days--
		}
		return days, true
	}
	return 0, false
}

// ClusterKeyOf extracts the row's clustering key values (NULLs allowed),
// one per ClusterBy column, for range bookkeeping.
func (s *Schema) ClusterKeyOf(r Row) []Value {
	out := make([]Value, len(s.ClusterBy))
	for n, col := range s.ClusterBy {
		i := s.FieldIndex(col)
		if i >= 0 && i < len(r.Values) {
			out[n] = r.Values[i]
		} else {
			out[n] = Null()
		}
	}
	return out
}

// CompareClusterKeys orders two clustering key tuples lexicographically.
func CompareClusterKeys(a, b []Value) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}
