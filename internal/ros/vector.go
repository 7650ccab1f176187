package ros

import (
	"fmt"

	"vortex/internal/schema"
	"vortex/internal/wire"
)

// Vectors returns the projected top-level columns of the file as wire
// vectors — the handoff from the read cache to every scan. A flat
// column preserves the file's physical encoding: a dictionary column
// comes back as dict+codes and a run-length column as its runs, without
// expansion, so predicates evaluate once per distinct value or run; a
// PLAIN column of one scalar kind comes back typed, its NULLs in a
// validity bitmap. A struct or repeated field comes back as a PLAIN
// vector of its assembled values. Unprojected columns are never
// decoded at all. idxs holds each vector's top-level field index in s;
// ok is always true. The returned vectors are memoized on the reader
// and shared across scans — read-only, like everything else a cached
// Reader hands out.
func (r *Reader) Vectors(s *schema.Schema, projection map[string]bool) (vecs []wire.Vector, idxs []int, ok bool, err error) {
	for fi, f := range s.Fields {
		if projection != nil && !projection[f.Name] {
			continue
		}
		var v *wire.Vector
		if f.Kind == schema.KindStruct || f.Mode == schema.Repeated {
			v, err = r.nestedVector(f)
		} else if col := r.columns[f.Name]; col != nil {
			v, err = col.vector()
		} else {
			v = r.nullVector(f.Name)
		}
		if err != nil {
			return nil, nil, false, err
		}
		vecs = append(vecs, *v)
		idxs = append(idxs, fi)
	}
	return vecs, idxs, true, nil
}

// nullVector is the vector of a field added by schema evolution after
// this file was written: every row reads as NULL.
func (r *Reader) nullVector(name string) *wire.Vector {
	v := wire.ConstVector(name, schema.Null(), int(r.rowCount))
	return &v
}

// nestedVector assembles (and memoizes) one struct or repeated
// top-level field from its leaf columns, one value per row.
func (r *Reader) nestedVector(f *schema.Field) (*wire.Vector, error) {
	r.nestedMu.Lock()
	defer r.nestedMu.Unlock()
	if v, ok := r.nested[f.Name]; ok {
		return v, nil
	}
	v, err := r.assembleField(f)
	if err != nil {
		return nil, err
	}
	if r.nested == nil {
		r.nested = make(map[string]*wire.Vector)
	}
	r.nested[f.Name] = v
	return v, nil
}

func (r *Reader) assembleField(f *schema.Field) (*wire.Vector, error) {
	one := &schema.Schema{Fields: []*schema.Field{f}}
	var cols []*columnData
	leaves := one.Leaves()
	for _, l := range leaves {
		c := r.columns[l.Path]
		if c == nil {
			continue
		}
		cd, err := c.data()
		if err != nil {
			return nil, err
		}
		cols = append(cols, cd)
	}
	if len(cols) == 0 {
		return r.nullVector(f.Name), nil
	}
	if len(cols) != len(leaves) {
		return nil, fmt.Errorf("%w: field %q partially present", ErrSchemaMismatch, f.Name)
	}
	a := newAssembler(one, cols)
	vals := make([]schema.Value, r.rowCount)
	for i := range vals {
		row, ok, err := a.nextRow()
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("%w: field %q exhausted at row %d of %d", ErrCorrupt, f.Name, i, r.rowCount)
		}
		vals[i] = row.Values[0]
	}
	if !a.exhausted() {
		return nil, fmt.Errorf("%w: field %q has entries after %d rows", ErrCorrupt, f.Name, r.rowCount)
	}
	v := wire.PlainVector(f.Name, vals)
	return &v, nil
}

// Seqs returns the per-row storage sequence numbers. The slice is the
// reader's own and must not be mutated.
func (r *Reader) Seqs() []int64 { return r.seqs }

// Changes returns the per-row change types. Read-only, like Seqs.
func (r *Reader) Changes() []byte { return r.changes }

// ChangeRuns returns the change types as a column of INT64 runs, built
// once when the file was opened. Read-only, like Seqs.
func (r *Reader) ChangeRuns() wire.Vector { return r.changeRuns }

// vector lazily builds (and memoizes) the column's encoded vector.
// Unlike materialize, a null-free column skips level decoding entirely,
// a dictionary column keeps its codes and a typed page its unboxed
// payloads — nothing is expanded to values.
func (c *Column) vector() (*wire.Vector, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.vecDone {
		return c.vec, c.vecErr
	}
	c.vec, c.vecErr = c.buildVector()
	c.vecDone = true
	return c.vec, c.vecErr
}

func (c *Column) buildVector() (*wire.Vector, error) {
	if c.Leaf.MaxRep != 0 {
		return nil, fmt.Errorf("%w: column %q is not flat", ErrCorrupt, c.Leaf.Path)
	}
	page, err := c.page()
	if err != nil {
		return nil, err
	}
	if c.Stats.NullCount == 0 {
		return &page, nil
	}
	defs, err := c.defLevels()
	if err != nil {
		return nil, err
	}
	if page.Enc == wire.BatchEncDict {
		// Nulls become one extra dictionary entry, so code-space
		// predicates see NULL like any other distinct value.
		v := wire.DictVector(page.Name, append(page.Dict, schema.Null()),
			spread(defs, c.Leaf.MaxDef, page.Codes, uint32(len(page.Dict))))
		return &v, nil
	}
	if page.Typed() {
		// The page holds the defined entries; the bitmap places them.
		valid := wire.AllValid(len(defs))
		for i, d := range defs {
			if int(d) != c.Leaf.MaxDef {
				valid.SetNull(i)
			}
		}
		v := page.Spread(len(defs), valid)
		return &v, nil
	}
	v := wire.PlainVector(page.Name, spread(defs, c.Leaf.MaxDef, page.Gather(nil), schema.Null()))
	return &v, nil
}

// spread lays a value page out over the column's entries: the k-th
// entry defs marks defined gets vals[k], every other entry null.
// defLevels has checked that the defined entries number len(vals).
func spread[T any](defs []uint8, maxDef int, vals []T, null T) []T {
	full := make([]T, len(defs))
	vi := 0
	for i, d := range defs {
		if int(d) == maxDef {
			full[i] = vals[vi]
			vi++
		} else {
			full[i] = null
		}
	}
	return full
}
