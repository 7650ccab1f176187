// Package ros implements the read-optimized storage format (§5.1, §6.1)
// — the stand-in for Capacitor/Parquet. Rows are shredded into columns
// using Dremel repetition/definition levels (BigQuery's native model for
// nested and repeated data); each column's levels are stored as runs or
// bit-packed, whichever is smaller, and its values as one PLAIN,
// dictionary or run-length page, Snappy-compressed where that pays, with
// per-column statistics (min/max, null counts) and a bloom filter over
// the file's clustering values, sized from the keys the file holds,
// that Big Metadata uses for partition elimination (§7.2). DESIGN.md §3
// has the layout byte by byte.
//
// The Writer takes rows as columns, one wire.Vector per top-level
// field, and keeps them typed from vector to page: a flat field's typed
// vector is striped buffer to buffer, its definition levels read off
// the validity bitmap, and a nested or untyped field's values are
// walked, their scalar leaves landing in the same typed buffers
// (wire.Scalars). A value page is byte for byte a record-batch column's
// payload, and this package neither reads nor writes those bytes:
// internal/wire's column codec does (Scalars.Layout and AppendPayload
// on the way in, DecodeColumn on the way out). What ros keeps is the
// policy — encodeValues decides which encoding pays from the sizes
// Layout counts, and builds only that page — and everything around the
// page: the file header, row metadata, levels, stats, page compression.
package ros

import (
	"fmt"
	"slices"

	"vortex/internal/schema"
	"vortex/internal/wire"
)

// columnData is one leaf column as the assembler reads it back: levels
// and the values of its defined entries.
type columnData struct {
	leaf   schema.LeafColumn
	reps   []uint8
	defs   []uint8
	values []schema.Value // len == number of entries with def == MaxDef
}

// leafData is one leaf column as the Writer stripes it: levels, and the
// values of its defined entries unboxed in the one typed buffer their
// kind uses.
type leafData struct {
	leaf schema.LeafColumn
	reps []uint8
	defs []uint8
	vals wire.Scalars // Len() == number of entries with def == MaxDef
}

// grow makes room for n more entries.
func (c *leafData) grow(n int) {
	c.reps = slices.Grow(c.reps, n)
	c.defs = slices.Grow(c.defs, n)
	if c.vals.Kind == schema.KindString || c.vals.Kind == schema.KindJSON || c.vals.Kind == schema.KindBytes {
		c.vals.Ends = slices.Grow(c.vals.Ends, n)
	} else {
		c.vals.Ints = slices.Grow(c.vals.Ints, n)
	}
}

// striper shreds columns of top-level values into (rep, def, value)
// triples, checking each value against its field on the way: the walk
// that finds a value's leaves is the walk schema.ValidateRow makes, so a
// value is visited once for both. A flat field's typed vector is not
// walked at all.
type striper struct {
	roots []*fieldNode // one per top-level field
	cols  []*leafData  // every leaf, in schema.Leaves order
}

// fieldNode is one field of the schema placed in the striper: a scalar
// field holds its column, a struct its sub-fields, and both the leaves
// beneath them. The tree is resolved once per file, so striping a value
// looks nothing up by path.
type fieldNode struct {
	f      *schema.Field
	col    *leafData    // scalar fields
	kids   []*fieldNode // struct fields
	leaves []*leafData  // every leaf at or under this field
}

func newStriper(s *schema.Schema) *striper {
	st := &striper{}
	for _, l := range s.Leaves() {
		st.cols = append(st.cols, &leafData{leaf: l, vals: wire.Scalars{Kind: l.Kind}})
	}
	next := 0 // Leaves enumerates depth first in field order, as place does
	var place func(fields []*schema.Field) []*fieldNode
	place = func(fields []*schema.Field) []*fieldNode {
		nodes := make([]*fieldNode, len(fields))
		for i, f := range fields {
			n := &fieldNode{f: f}
			first := next
			if f.Kind == schema.KindStruct {
				n.kids = place(f.Fields)
			} else {
				n.col = st.cols[next]
				next++
			}
			n.leaves = st.cols[first:next]
			nodes[i] = n
		}
		return nodes
	}
	st.roots = place(s.Fields)
	return st
}

// stripeColumn stripes rows perm[0], perm[1], … of one top-level
// field's column. A nil col is a field none of the rows was written
// with (schema evolution): every row reads NULL. A flat field's typed
// vector of the field's kind is striped by stripeTyped; any other
// column value by value.
func (n *fieldNode) stripeColumn(col *wire.Vector, perm []int32) error {
	if col == nil {
		if n.f.Mode == schema.Required {
			return fmt.Errorf("schema: row missing REQUIRED field %q", n.f.Name)
		}
		for range perm {
			n.emitNull(0, 0)
		}
		return nil
	}
	if n.col != nil && n.f.Mode != schema.Repeated && col.Enc == wire.BatchEncPlain && col.Kind == n.f.Kind {
		return n.stripeTyped(col, perm)
	}
	// Size the leaves for the entries to come — one per row, or for a
	// repeated field what a pass over the lists' lengths predicts (exact
	// unless lists nest) — then stripe value by value.
	vals := col.Gather(nil)
	entries := len(perm)
	if n.f.Mode == schema.Repeated {
		for _, i := range perm {
			entries += max(len(vals[i].Elems()), 1) - 1
		}
	}
	for _, c := range n.leaves {
		c.grow(entries)
	}
	for _, i := range perm {
		if err := n.stripe(&vals[i], 0, 0, 0); err != nil {
			return err
		}
	}
	return nil
}

// stripeTyped stripes a flat top-level field from a typed vector of its
// kind: the REQUIRED check is made once for the column, every entry's
// levels are 0 but a NULL's definition level, and the values are
// copied buffer to buffer.
func (n *fieldNode) stripeTyped(col *wire.Vector, perm []int32) error {
	c := n.col
	if col.Valid != nil && n.f.Mode == schema.Required {
		for _, i := range perm {
			if !col.Valid.Has(int(i)) {
				return fmt.Errorf("schema: field %q is REQUIRED but value is NULL", n.f.Name)
			}
		}
	}
	c.grow(len(perm))
	at := len(c.reps)
	c.reps = c.reps[:at+len(perm)]
	clear(c.reps[at:])
	c.defs = c.defs[:at+len(perm)]
	defs, def := c.defs[at:], uint8(c.leaf.MaxDef)
	for k, i := range perm {
		if col.Valid.Has(int(i)) {
			defs[k] = def
		} else {
			defs[k] = 0
		}
	}
	c.vals.AppendRows(col, perm)
	return nil
}

// check refuses a present value a non-repeated field cannot hold.
func (n *fieldNode) check(v *schema.Value) error {
	if v.IsList() {
		return fmt.Errorf("schema: field %q is not REPEATED but value is a list", n.f.Name)
	}
	return n.checkKind(v)
}

// checkKind refuses a present value, or an element of a repeated one,
// of another kind than the field's.
func (n *fieldNode) checkKind(v *schema.Value) error {
	if v.Kind() != n.f.Kind {
		return fmt.Errorf("schema: field %q expects %v, got %v", n.f.Name, n.f.Kind, v.Kind())
	}
	return nil
}

// stripe emits the entries of value v of this field and its subtree.
// rep is the repetition level for the first atom emitted; def is the
// definition level accumulated so far; repDepth is the repetition depth
// of the enclosing context.
func (n *fieldNode) stripe(v *schema.Value, rep, def, repDepth uint8) error {
	f := n.f
	if v.IsNull() {
		if f.Mode == schema.Required {
			return fmt.Errorf("schema: field %q is REQUIRED but value is NULL", f.Name)
		}
		n.emitNull(rep, def)
		return nil
	}
	switch f.Mode {
	case schema.Repeated:
		if !v.IsList() {
			return fmt.Errorf("schema: field %q is REPEATED but value is %v", f.Name, v.Kind())
		}
		elems := v.Elems()
		if len(elems) == 0 {
			n.emitNull(rep, def)
			return nil
		}
		for i := range elems {
			e := &elems[i]
			if e.IsNull() {
				return fmt.Errorf("schema: field %q: repeated elements cannot be NULL", f.Name)
			}
			if err := n.checkKind(e); err != nil {
				return err
			}
			if err := n.stripeContent(e, rep, def+1, repDepth+1); err != nil {
				return err
			}
			rep = repDepth + 1
		}
		return nil
	case schema.Nullable:
		def++
	}
	if err := n.check(v); err != nil {
		return err
	}
	return n.stripeContent(v, rep, def, repDepth)
}

// stripeContent emits the content of a present (non-null) value of the
// field's kind.
func (n *fieldNode) stripeContent(v *schema.Value, rep, def, repDepth uint8) error {
	f := n.f
	if c := n.col; c != nil {
		c.reps = append(c.reps, rep)
		c.defs = append(c.defs, def)
		c.vals.Append(*v)
		return nil
	}
	fields := v.Fields()
	if len(fields) > len(n.kids) {
		return fmt.Errorf("schema: struct %q has %d values for %d fields", f.Name, len(fields), len(n.kids))
	}
	for j, kid := range n.kids {
		if j < len(fields) {
			if err := kid.stripe(&fields[j], rep, def, repDepth); err != nil {
				return err
			}
		} else if kid.f.Mode == schema.Required {
			return fmt.Errorf("schema: struct %q missing REQUIRED field %q", f.Name, kid.f.Name)
		} else {
			kid.emitNull(rep, def)
		}
	}
	return nil
}

// emitNull emits one (rep, def) entry — with no value — for every leaf
// at or under the field, recording that the path is undefined from
// level def on.
func (n *fieldNode) emitNull(rep, def uint8) {
	for _, c := range n.leaves {
		c.reps = append(c.reps, rep)
		c.defs = append(c.defs, def)
	}
}

// assembler reconstructs rows from striped columns.
type assembler struct {
	schema  *schema.Schema
	byPath  map[string]*columnCursor
	ordered []*columnCursor
}

type columnCursor struct {
	col *columnData
	pos int // entry index
	vi  int // value index (entries with def == MaxDef consumed so far)
}

// peekRep returns the repetition level of the cursor's current entry, or
// -1 when exhausted.
func (c *columnCursor) peekRep() int {
	if c.pos >= len(c.col.reps) {
		return -1
	}
	return int(c.col.reps[c.pos])
}

func (c *columnCursor) peekDef() int {
	return int(c.col.defs[c.pos])
}

// take consumes the current entry, returning (def, value or Null).
func (c *columnCursor) take() (int, schema.Value) {
	def := int(c.col.defs[c.pos])
	var v schema.Value
	if def == c.col.leaf.MaxDef {
		v = c.col.values[c.vi]
		c.vi++
	} else {
		v = schema.Null()
	}
	c.pos++
	return def, v
}

func newAssembler(s *schema.Schema, cols []*columnData) *assembler {
	a := &assembler{schema: s, byPath: make(map[string]*columnCursor, len(cols))}
	for _, c := range cols {
		cur := &columnCursor{col: c}
		a.byPath[c.leaf.Path] = cur
		a.ordered = append(a.ordered, cur)
	}
	return a
}

func (a *assembler) exhausted() bool {
	for _, c := range a.ordered {
		if c.pos < len(c.col.reps) {
			return false
		}
	}
	return true
}

// nextRow assembles the next row, or ok=false when all columns are done.
func (a *assembler) nextRow() (schema.Row, bool, error) {
	if a.exhausted() {
		return schema.Row{}, false, nil
	}
	values := make([]schema.Value, len(a.schema.Fields))
	for i, f := range a.schema.Fields {
		v, err := a.assembleField(f, f.Name, 0, 0)
		if err != nil {
			return schema.Row{}, false, err
		}
		values[i] = v
	}
	return schema.Row{Values: values}, true, nil
}

// firstLeaf returns the cursor of the first leaf under (f, path).
func (a *assembler) firstLeaf(f *schema.Field, path string) (*columnCursor, error) {
	if f.Kind != schema.KindStruct {
		c, ok := a.byPath[path]
		if !ok {
			return nil, fmt.Errorf("ros: missing column %q", path)
		}
		return c, nil
	}
	return a.firstLeaf(f.Fields[0], path+"."+f.Fields[0].Name)
}

// assembleField reconstructs the value of field f in the current record
// context. def is the definition level accumulated by present ancestors;
// repDepth is the repetition depth of the enclosing context.
func (a *assembler) assembleField(f *schema.Field, path string, def, repDepth int) (schema.Value, error) {
	switch f.Mode {
	case schema.Required:
		return a.assembleContent(f, path, def, repDepth)
	case schema.Nullable:
		lead, err := a.firstLeaf(f, path)
		if err != nil {
			return schema.Value{}, err
		}
		if lead.pos >= len(lead.col.defs) {
			return schema.Value{}, fmt.Errorf("ros: column %q exhausted mid-row", lead.col.leaf.Path)
		}
		if lead.peekDef() <= def {
			// Undefined at this level: consume the null subtree entries.
			return schema.Null(), a.consumeNullSubtree(f, path)
		}
		return a.assembleContent(f, path, def+1, repDepth)
	case schema.Repeated:
		lead, err := a.firstLeaf(f, path)
		if err != nil {
			return schema.Value{}, err
		}
		if lead.pos >= len(lead.col.defs) {
			return schema.Value{}, fmt.Errorf("ros: column %q exhausted mid-row", lead.col.leaf.Path)
		}
		if lead.peekDef() <= def {
			return schema.List(), a.consumeNullSubtree(f, path)
		}
		childRep := repDepth + 1
		var elems []schema.Value
		for {
			e, err := a.assembleContent(f, path, def+1, childRep)
			if err != nil {
				return schema.Value{}, err
			}
			elems = append(elems, e)
			if lead.peekRep() != childRep {
				break
			}
		}
		return schema.List(elems...), nil
	}
	return schema.Value{}, fmt.Errorf("ros: field %q has invalid mode", path)
}

func (a *assembler) assembleContent(f *schema.Field, path string, def, repDepth int) (schema.Value, error) {
	if f.Kind == schema.KindStruct {
		fields := make([]schema.Value, len(f.Fields))
		for j, sub := range f.Fields {
			v, err := a.assembleField(sub, path+"."+sub.Name, def, repDepth)
			if err != nil {
				return schema.Value{}, err
			}
			fields[j] = v
		}
		return schema.Struct(fields...), nil
	}
	c := a.byPath[path]
	if c.pos >= len(c.col.defs) {
		return schema.Value{}, fmt.Errorf("ros: column %q exhausted mid-row", path)
	}
	d, v := c.take()
	if d < def {
		return schema.Value{}, fmt.Errorf("ros: column %q def %d below context %d (corrupt levels)", path, d, def)
	}
	return v, nil
}

// consumeNullSubtree advances one entry on every leaf under f.
func (a *assembler) consumeNullSubtree(f *schema.Field, path string) error {
	if f.Kind == schema.KindStruct {
		for _, sub := range f.Fields {
			if err := a.consumeNullSubtree(sub, path+"."+sub.Name); err != nil {
				return err
			}
		}
		return nil
	}
	c := a.byPath[path]
	if c.pos >= len(c.col.defs) {
		return fmt.Errorf("ros: column %q exhausted mid-row", path)
	}
	c.take()
	return nil
}
