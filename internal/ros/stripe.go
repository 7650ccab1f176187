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
// A value page is byte for byte a record-batch column's payload, and
// this package neither reads nor writes those bytes: internal/wire's
// column codec does (ColumnPayload, DecodeColumn, BuildDict, BuildRuns).
// What ros keeps is the policy — encodeValues decides which encoding
// pays — and everything around the page: the file header, row metadata,
// levels, stats, page compression.
package ros

import (
	"fmt"

	"vortex/internal/schema"
)

// columnData is the in-memory striped representation of one leaf column.
type columnData struct {
	leaf   schema.LeafColumn
	reps   []uint8
	defs   []uint8
	values []schema.Value // len == number of entries with def == MaxDef
}

// striper shreds rows into columnar (rep, def, value) triples.
type striper struct {
	schema *schema.Schema
	cols   []*columnData
	// index maps a field-path position to its column; built once.
	byPath map[string]*columnData
}

func newStriper(s *schema.Schema) *striper {
	leaves := s.Leaves()
	st := &striper{schema: s, byPath: make(map[string]*columnData, len(leaves))}
	for _, l := range leaves {
		c := &columnData{leaf: l}
		st.cols = append(st.cols, c)
		st.byPath[l.Path] = c
	}
	return st
}

// addRow stripes one row. The row must already be schema-valid.
func (st *striper) addRow(r schema.Row) {
	for i, f := range st.schema.Fields {
		var v schema.Value
		if i < len(r.Values) {
			v = r.Values[i]
		} else {
			v = schema.Null() // evolved-schema row: trailing fields read NULL
		}
		st.stripeField(f, f.Name, v, 0, 0, 0)
	}
}

// stripeField emits entries for field (and its subtree) given value v.
// rep is the repetition level for the first atom emitted; def is the
// definition level accumulated so far; repDepth is the repetition depth
// of the enclosing context.
func (st *striper) stripeField(f *schema.Field, path string, v schema.Value, rep, def, repDepth int) {
	switch f.Mode {
	case schema.Required:
		st.stripeContent(f, path, v, rep, def, repDepth)
	case schema.Nullable:
		if v.IsNull() {
			st.emitNullSubtree(f, path, rep, def)
			return
		}
		st.stripeContent(f, path, v, rep, def+1, repDepth)
	case schema.Repeated:
		if v.IsNull() || v.Len() == 0 {
			st.emitNullSubtree(f, path, rep, def)
			return
		}
		childRep := repDepth + 1
		for i := 0; i < v.Len(); i++ {
			r := rep
			if i > 0 {
				r = childRep
			}
			st.stripeContent(f, path, v.Index(i), r, def+1, childRep)
		}
	}
}

// stripeContent emits the content of a present (non-null) value.
func (st *striper) stripeContent(f *schema.Field, path string, v schema.Value, rep, def, repDepth int) {
	if f.Kind == schema.KindStruct {
		for j, sub := range f.Fields {
			var sv schema.Value
			if j < v.Len() {
				sv = v.FieldValue(j)
			} else {
				sv = schema.Null()
			}
			st.stripeField(sub, path+"."+sub.Name, sv, rep, def, repDepth)
		}
		return
	}
	c := st.byPath[path]
	c.reps = append(c.reps, uint8(rep))
	c.defs = append(c.defs, uint8(def))
	c.values = append(c.values, v)
}

// emitNullSubtree emits one (rep, def) entry — with no value — for every
// leaf under f, recording that the path is undefined from level def on.
func (st *striper) emitNullSubtree(f *schema.Field, path string, rep, def int) {
	if f.Kind == schema.KindStruct {
		for _, sub := range f.Fields {
			st.emitNullSubtree(sub, path+"."+sub.Name, rep, def)
		}
		return
	}
	c := st.byPath[path]
	c.reps = append(c.reps, uint8(rep))
	c.defs = append(c.defs, uint8(def))
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
