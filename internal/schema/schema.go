// Package schema implements BigQuery's data model as used by Vortex
// (§3.1, §4): tables of semi-structured rows with nested (STRUCT) and
// repeated (ARRAY) fields, a rich scalar type set (TIMESTAMP, DATE,
// NUMERIC, JSON, BYTES, ...), unenforced primary keys, partitioning and
// clustering column specifications, the `_CHANGE_TYPE` virtual column
// used for mutations (§4.2.6), and additive schema evolution (§5.4.1).
package schema

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
)

// Kind enumerates the value types supported by the engine.
type Kind int

// The supported kinds. KindStruct fields carry sub-fields; all other
// kinds are scalars.
const (
	KindInvalid Kind = iota
	KindInt64
	KindFloat64
	KindBool
	KindString
	KindBytes
	KindTimestamp // nanoseconds since the Unix epoch
	KindDate      // days since the Unix epoch
	KindNumeric   // fixed-point decimal, 1e-9 resolution (simplified NUMERIC)
	KindJSON      // canonicalized JSON document stored as text
	KindStruct
)

var kindNames = map[Kind]string{
	KindInvalid:   "INVALID",
	KindInt64:     "INTEGER",
	KindFloat64:   "FLOAT64",
	KindBool:      "BOOL",
	KindString:    "STRING",
	KindBytes:     "BYTES",
	KindTimestamp: "TIMESTAMP",
	KindDate:      "DATE",
	KindNumeric:   "NUMERIC",
	KindJSON:      "JSON",
	KindStruct:    "STRUCT",
}

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Comparable reports whether values of this kind have a total order
// (required for clustering, partitioning and min/max column properties).
func (k Kind) Comparable() bool {
	switch k {
	case KindInt64, KindFloat64, KindBool, KindString, KindBytes, KindTimestamp, KindDate, KindNumeric:
		return true
	}
	return false
}

// Mode is the field cardinality, mirroring BigQuery's REQUIRED /
// NULLABLE / REPEATED field modes.
type Mode int

// Field modes.
const (
	Required Mode = iota
	Nullable
	Repeated
)

// String returns the BigQuery name of the mode.
func (m Mode) String() string {
	switch m {
	case Required:
		return "REQUIRED"
	case Nullable:
		return "NULLABLE"
	case Repeated:
		return "REPEATED"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Field describes one column (possibly nested).
type Field struct {
	Name   string   `json:"name"`
	Kind   Kind     `json:"kind"`
	Mode   Mode     `json:"mode"`
	Fields []*Field `json:"fields,omitempty"` // populated iff Kind == KindStruct
}

// Schema describes a table: its fields plus the physical-design
// annotations Vortex consumes (partitioning, clustering, primary key).
type Schema struct {
	Fields []*Field `json:"fields"`
	// PrimaryKey lists top-level scalar columns forming the unenforced
	// primary key (§4.2.6). Required for UPSERT/DELETE change types.
	PrimaryKey []string `json:"primary_key,omitempty"`
	// PartitionField names a top-level TIMESTAMP or DATE column; data is
	// partitioned by its date, as in `PARTITION BY DATE(orderTimestamp)`.
	PartitionField string `json:"partition_field,omitempty"`
	// ClusterBy lists top-level comparable columns defining the weak
	// sort order maintained by automatic reclustering (§6.1).
	ClusterBy []string `json:"cluster_by,omitempty"`
	// Version increments on every schema evolution (§5.4.1).
	Version int `json:"version"`
}

// ChangeType is the value of the `_CHANGE_TYPE` virtual column (§4.2.6).
type ChangeType int

// Change types for ingested rows.
const (
	ChangeInsert ChangeType = iota // append the row (default)
	ChangeUpsert                   // update by primary key, or insert
	ChangeDelete                   // delete all rows matching the primary key
)

// String returns the API name of the change type.
func (c ChangeType) String() string {
	switch c {
	case ChangeInsert:
		return "INSERT"
	case ChangeUpsert:
		return "UPSERT"
	case ChangeDelete:
		return "DELETE"
	}
	return fmt.Sprintf("ChangeType(%d)", int(c))
}

// Validate checks structural well-formedness: non-empty unique field
// names, struct kinds with sub-fields, scalar kinds without, and that the
// physical-design annotations reference existing, appropriate columns.
func (s *Schema) Validate() error {
	if len(s.Fields) == 0 {
		return errors.New("schema: no fields")
	}
	if err := validateFields(s.Fields, ""); err != nil {
		return err
	}
	top := s.topLevel()
	for _, pk := range s.PrimaryKey {
		f, ok := top[pk]
		if !ok {
			return fmt.Errorf("schema: primary key column %q does not exist", pk)
		}
		if !f.Kind.Comparable() || f.Mode == Repeated {
			return fmt.Errorf("schema: primary key column %q must be a non-repeated scalar", pk)
		}
	}
	if s.PartitionField != "" {
		f, ok := top[s.PartitionField]
		if !ok {
			return fmt.Errorf("schema: partition column %q does not exist", s.PartitionField)
		}
		if f.Kind != KindTimestamp && f.Kind != KindDate {
			return fmt.Errorf("schema: partition column %q must be TIMESTAMP or DATE, is %v", s.PartitionField, f.Kind)
		}
		if f.Mode == Repeated {
			return fmt.Errorf("schema: partition column %q cannot be repeated", s.PartitionField)
		}
	}
	for _, c := range s.ClusterBy {
		f, ok := top[c]
		if !ok {
			return fmt.Errorf("schema: clustering column %q does not exist", c)
		}
		if !f.Kind.Comparable() || f.Mode == Repeated {
			return fmt.Errorf("schema: clustering column %q must be a non-repeated scalar", c)
		}
	}
	return nil
}

func validateFields(fields []*Field, prefix string) error {
	seen := make(map[string]bool, len(fields))
	for _, f := range fields {
		if f.Name == "" {
			return fmt.Errorf("schema: empty field name under %q", prefix)
		}
		if strings.HasPrefix(f.Name, "_") && prefix == "" {
			return fmt.Errorf("schema: field %q: names starting with underscore are reserved for virtual columns", f.Name)
		}
		if seen[f.Name] {
			return fmt.Errorf("schema: duplicate field %q under %q", f.Name, prefix)
		}
		seen[f.Name] = true
		if f.Kind == KindStruct {
			if len(f.Fields) == 0 {
				return fmt.Errorf("schema: struct field %q has no sub-fields", path(prefix, f.Name))
			}
			if err := validateFields(f.Fields, path(prefix, f.Name)); err != nil {
				return err
			}
		} else {
			if len(f.Fields) != 0 {
				return fmt.Errorf("schema: scalar field %q has sub-fields", path(prefix, f.Name))
			}
			if f.Kind <= KindInvalid || f.Kind > KindJSON {
				return fmt.Errorf("schema: field %q has invalid kind %v", path(prefix, f.Name), f.Kind)
			}
		}
	}
	return nil
}

func path(prefix, name string) string {
	if prefix == "" {
		return name
	}
	return prefix + "." + name
}

func (s *Schema) topLevel() map[string]*Field {
	m := make(map[string]*Field, len(s.Fields))
	for _, f := range s.Fields {
		m[f.Name] = f
	}
	return m
}

// FieldIndex returns the index of the named top-level field, or -1.
func (s *Schema) FieldIndex(name string) int {
	for i, f := range s.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Field returns the named top-level field, or nil.
func (s *Schema) Field(name string) *Field {
	if i := s.FieldIndex(name); i >= 0 {
		return s.Fields[i]
	}
	return nil
}

// Fingerprint returns a stable hash of the schema's structure (fields and
// annotations, excluding Version). Fragments record the fingerprint of
// the schema they were written under.
func (s *Schema) Fingerprint() uint64 {
	h := fnv.New64a()
	var walk func(fields []*Field)
	walk = func(fields []*Field) {
		for _, f := range fields {
			fmt.Fprintf(h, "%s/%d/%d{", f.Name, f.Kind, f.Mode)
			walk(f.Fields)
			h.Write([]byte("}"))
		}
	}
	walk(s.Fields)
	fmt.Fprintf(h, "|pk=%s|part=%s|clus=%s", strings.Join(s.PrimaryKey, ","), s.PartitionField, strings.Join(s.ClusterBy, ","))
	return h.Sum64()
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	c := &Schema{
		Fields:         cloneFields(s.Fields),
		PrimaryKey:     append([]string(nil), s.PrimaryKey...),
		PartitionField: s.PartitionField,
		ClusterBy:      append([]string(nil), s.ClusterBy...),
		Version:        s.Version,
	}
	return c
}

func cloneFields(fields []*Field) []*Field {
	out := make([]*Field, len(fields))
	for i, f := range fields {
		cf := *f
		cf.Fields = cloneFields(f.Fields)
		out[i] = &cf
	}
	return out
}

// AddField evolves the schema by appending a new top-level field.
// BigQuery-style evolution is additive: the new field must be NULLABLE or
// REPEATED so rows written under the old schema remain valid. Returns the
// evolved schema with an incremented version; the receiver is unchanged.
func (s *Schema) AddField(f *Field) (*Schema, error) {
	if f.Mode == Required {
		return nil, fmt.Errorf("schema: cannot add REQUIRED field %q to an existing table", f.Name)
	}
	if s.Field(f.Name) != nil {
		return nil, fmt.Errorf("schema: field %q already exists", f.Name)
	}
	c := s.Clone()
	cf := *f
	cf.Fields = cloneFields(f.Fields)
	c.Fields = append(c.Fields, &cf)
	c.Version++
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// CanReadWith reports whether rows written under old can be read with s:
// s must contain every old field unchanged, in order, as a prefix.
func (s *Schema) CanReadWith(old *Schema) bool {
	if len(old.Fields) > len(s.Fields) {
		return false
	}
	for i, f := range old.Fields {
		if !f.Equal(s.Fields[i]) {
			return false
		}
	}
	return true
}

// Equal reports whether f and g are the same field: name, kind, mode
// and nested fields.
func (f *Field) Equal(g *Field) bool {
	if f.Name != g.Name || f.Kind != g.Kind || f.Mode != g.Mode || len(f.Fields) != len(g.Fields) {
		return false
	}
	for i := range f.Fields {
		if !f.Fields[i].Equal(g.Fields[i]) {
			return false
		}
	}
	return true
}

// Marshal serializes the schema as JSON (the SMS stores it in Spanner).
func (s *Schema) Marshal() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// A Schema contains only marshalable primitives.
		panic(fmt.Sprintf("schema: marshal: %v", err))
	}
	return b
}

// Unmarshal parses a schema serialized by Marshal and validates it.
func Unmarshal(data []byte) (*Schema, error) {
	var s Schema
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("schema: unmarshal: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// String renders the schema in a compact DDL-like form for logs.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	var render func(fields []*Field)
	render = func(fields []*Field) {
		for i, f := range fields {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(f.Name)
			b.WriteByte(' ')
			if f.Mode == Repeated {
				b.WriteString("ARRAY<")
			}
			if f.Kind == KindStruct {
				b.WriteString("STRUCT<")
				render(f.Fields)
				b.WriteByte('>')
			} else {
				b.WriteString(f.Kind.String())
			}
			if f.Mode == Repeated {
				b.WriteByte('>')
			}
		}
	}
	render(s.Fields)
	b.WriteByte(')')
	if s.PartitionField != "" {
		fmt.Fprintf(&b, " PARTITION BY DATE(%s)", s.PartitionField)
	}
	if len(s.ClusterBy) > 0 {
		fmt.Fprintf(&b, " CLUSTER BY %s", strings.Join(s.ClusterBy, ", "))
	}
	return b.String()
}

// LeafColumn is one scalar leaf of the (possibly nested) schema, with the
// Dremel repetition/definition levels the ROS format stripes by.
type LeafColumn struct {
	// Path is the dotted field path, e.g. "salesOrderLines.quantity".
	Path string
	// Kind is the scalar kind at the leaf.
	Kind Kind
	// MaxDef is the definition level when the value is fully present.
	MaxDef int
	// MaxRep is the repetition level of the innermost enclosing repeated
	// field (0 for non-repeated paths).
	MaxRep int
	// FieldIndexes locates the leaf: indexes into Fields at each level.
	FieldIndexes []int
}

// Leaves enumerates the scalar leaf columns of the schema in depth-first
// field order — the column set the ROS format stores.
func (s *Schema) Leaves() []LeafColumn {
	var out []LeafColumn
	var walk func(fields []*Field, prefix string, def, rep int, idx []int)
	walk = func(fields []*Field, prefix string, def, rep int, idx []int) {
		for i, f := range fields {
			d, r := def, rep
			switch f.Mode {
			case Nullable:
				d++
			case Repeated:
				d++
				r++
			}
			p := path(prefix, f.Name)
			childIdx := append(append([]int(nil), idx...), i)
			if f.Kind == KindStruct {
				walk(f.Fields, p, d, r, childIdx)
			} else {
				out = append(out, LeafColumn{Path: p, Kind: f.Kind, MaxDef: d, MaxRep: r, FieldIndexes: childIdx})
			}
		}
	}
	walk(s.Fields, "", 0, 0, nil)
	return out
}
