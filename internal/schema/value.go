package schema

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// NumericScale is the fixed-point scale of KindNumeric values: NUMERIC is
// stored as an int64 count of 1e-9 units (a simplification of BigQuery's
// 38-digit NUMERIC that preserves its fixed-point comparison semantics).
const NumericScale = 1_000_000_000

// Value is one (possibly nested, possibly repeated) datum. The zero Value
// is NULL. Values are immutable by convention: accessors return copies of
// mutable internals where aliasing would be observable.
type Value struct {
	kind   Kind
	null   bool
	i      int64   // Int64, Bool(0/1), Timestamp(ns), Date(days), Numeric(1e-9)
	f      float64 // Float64
	s      string  // String, JSON
	b      []byte  // Bytes
	list   []Value // Repeated elements (kind is the element kind)
	fields []Value // Struct field values, parallel to Field.Fields
	rep    bool    // true if this Value is a repeated list
}

// Null returns a NULL value (assignable to any nullable field).
func Null() Value { return Value{null: true} }

// Int64 returns an INTEGER value.
func Int64(v int64) Value { return Value{kind: KindInt64, i: v} }

// Float64 returns a FLOAT64 value.
func Float64(v float64) Value { return Value{kind: KindFloat64, f: v} }

// Bool returns a BOOL value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// String returns a STRING value.
func String(v string) Value { return Value{kind: KindString, s: v} }

// Bytes returns a BYTES value (the slice is copied).
func Bytes(v []byte) Value { return Value{kind: KindBytes, b: append([]byte(nil), v...)} }

// Timestamp returns a TIMESTAMP value.
func Timestamp(t time.Time) Value { return Value{kind: KindTimestamp, i: t.UnixNano()} }

// TimestampNanos returns a TIMESTAMP value from epoch nanoseconds.
func TimestampNanos(ns int64) Value { return Value{kind: KindTimestamp, i: ns} }

// Date returns a DATE value from a time (its UTC calendar date).
func Date(t time.Time) Value {
	u := t.UTC()
	days := u.Unix() / 86400
	if u.Unix() < 0 && u.Unix()%86400 != 0 {
		days--
	}
	return Value{kind: KindDate, i: days}
}

// DateDays returns a DATE value from days since the Unix epoch.
func DateDays(days int64) Value { return Value{kind: KindDate, i: days} }

// Numeric returns a NUMERIC value from a scaled integer (1e-9 units).
func Numeric(scaled int64) Value { return Value{kind: KindNumeric, i: scaled} }

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
	return Value{kind: KindJSON, s: string(canon)}, nil
}

// RawJSON returns a JSON value without re-canonicalizing doc. It is for
// decoders reading documents that were canonicalized by JSON when first
// constructed; arbitrary user input must go through JSON instead.
func RawJSON(doc string) Value { return Value{kind: KindJSON, s: doc} }

// Struct returns a STRUCT value with the given field values (parallel to
// the schema's Field.Fields).
func Struct(fieldValues ...Value) Value {
	return Value{kind: KindStruct, fields: fieldValues}
}

// List returns a REPEATED value holding the given elements.
func List(elems ...Value) Value {
	return Value{rep: true, list: elems}
}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.null }

// IsList reports whether the value is a repeated list.
func (v Value) IsList() bool { return v.rep }

// Kind returns the value's kind (KindInvalid for NULL and lists).
func (v Value) Kind() Kind { return v.kind }

// AsInt64 returns the INTEGER payload.
func (v Value) AsInt64() int64 { return v.i }

// AsFloat64 returns the FLOAT64 payload; INTEGER and NUMERIC values are
// widened.
func (v Value) AsFloat64() float64 {
	switch v.kind {
	case KindFloat64:
		return v.f
	case KindNumeric:
		return float64(v.i) / NumericScale
	default:
		return float64(v.i)
	}
}

// AsBool returns the BOOL payload.
func (v Value) AsBool() bool { return v.i != 0 }

// AsString returns the STRING or JSON payload.
func (v Value) AsString() string { return v.s }

// AsBytes returns a copy of the BYTES payload.
func (v Value) AsBytes() []byte { return append([]byte(nil), v.b...) }

// AsTime returns the TIMESTAMP payload as a time.Time (UTC).
func (v Value) AsTime() time.Time { return time.Unix(0, v.i).UTC() }

// AsDateDays returns the DATE payload as days since the epoch.
func (v Value) AsDateDays() int64 { return v.i }

// AsNumericScaled returns the NUMERIC payload in 1e-9 units.
func (v Value) AsNumericScaled() int64 { return v.i }

// Len returns the number of elements of a repeated value, or the number
// of fields of a struct value.
func (v Value) Len() int {
	if v.rep {
		return len(v.list)
	}
	return len(v.fields)
}

// Index returns element i of a repeated value.
func (v Value) Index(i int) Value { return v.list[i] }

// FieldValue returns field i of a struct value.
func (v Value) FieldValue(i int) Value { return v.fields[i] }

// Elems returns the elements of a repeated value: the value's own
// slice, for walking them in place (Index copies one out). Read-only.
func (v Value) Elems() []Value { return v.list }

// Fields returns the field values of a struct value: like Elems, the
// value's own slice, read-only.
func (v Value) Fields() []Value { return v.fields }

// Equal reports deep equality, including kind.
func (v Value) Equal(o Value) bool {
	if v.null || o.null {
		return v.null == o.null
	}
	if v.rep != o.rep {
		return false
	}
	if v.rep {
		if len(v.list) != len(o.list) {
			return false
		}
		for i := range v.list {
			if !v.list[i].Equal(o.list[i]) {
				return false
			}
		}
		return true
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindFloat64:
		return v.f == o.f || (math.IsNaN(v.f) && math.IsNaN(o.f))
	case KindString, KindJSON:
		return v.s == o.s
	case KindBytes:
		return bytes.Equal(v.b, o.b)
	case KindStruct:
		if len(v.fields) != len(o.fields) {
			return false
		}
		for i := range v.fields {
			if !v.fields[i].Equal(o.fields[i]) {
				return false
			}
		}
		return true
	default:
		return v.i == o.i
	}
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
		panic(fmt.Sprintf("schema: comparing %v with %v", v.kind, o.kind))
	}
	switch v.kind {
	case KindInt64, KindBool, KindTimestamp, KindDate, KindNumeric:
		switch {
		case v.i < o.i:
			return -1
		case v.i > o.i:
			return 1
		}
		return 0
	case KindFloat64:
		switch {
		case v.f < o.f:
			return -1
		case v.f > o.f:
			return 1
		}
		return 0
	case KindString, KindJSON:
		return strings.Compare(v.s, o.s)
	case KindBytes:
		return bytes.Compare(v.b, o.b)
	}
	panic(fmt.Sprintf("schema: kind %v is not comparable", v.kind))
}

// String renders the value for logs and query output.
func (v Value) String() string {
	if v.null {
		return "NULL"
	}
	if v.rep {
		parts := make([]string, len(v.list))
		for i, e := range v.list {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	}
	switch v.kind {
	case KindInt64:
		return strconv.FormatInt(v.i, 10)
	case KindFloat64:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindString:
		return strconv.Quote(v.s)
	case KindJSON:
		return v.s
	case KindBytes:
		return fmt.Sprintf("b%q", v.b)
	case KindTimestamp:
		return v.AsTime().Format(time.RFC3339Nano)
	case KindDate:
		return time.Unix(v.i*86400, 0).UTC().Format("2006-01-02")
	case KindNumeric:
		whole, frac := v.i/NumericScale, v.i%NumericScale
		if frac == 0 {
			return strconv.FormatInt(whole, 10)
		}
		neg := ""
		if v.i < 0 {
			neg = "-"
			whole, frac = -whole, -frac
		}
		return fmt.Sprintf("%s%d.%s", neg, whole, strings.TrimRight(fmt.Sprintf("%09d", frac), "0"))
	case KindStruct:
		parts := make([]string, len(v.fields))
		for i, f := range v.fields {
			parts[i] = f.String()
		}
		return "{" + strings.Join(parts, ", ") + "}"
	}
	return "INVALID"
}

// Key renders the value as a canonical lookup key for bloom-filter
// membership: raw bytes for strings, String() for everything else. Using
// one convention on both the write path (fragment/ROS blooms) and the
// read path (partition elimination probes) is what makes the
// no-false-negative guarantee hold end to end.
func (v Value) Key() string {
	switch v.kind {
	case KindString, KindJSON:
		return v.s
	case KindBytes:
		return string(v.b)
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
