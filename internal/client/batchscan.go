package client

import (
	"context"
	"sort"
	"strings"
	"time"

	"vortex/internal/meta"
	"vortex/internal/rowenc"
	"vortex/internal/schema"
	"vortex/internal/wire"
)

// ColBatch is one assignment's scan result — the only thing a leaf
// scan hands the query engine and the read-session server. Its
// physical layout is chosen by the data and hidden from consumers: ROS
// fragments with flat projected columns keep the read cache's encoded
// vectors (zero-copy, read-only), everything else (WOS files, nested
// projections) keeps decoded rows. Consumers address rows by physical
// index through a wire.Selection and use three operations: Narrow a
// selection by a predicate, walk selected rows with a Cursor, and emit
// selected rows as Vectors.
type ColBatch struct {
	// FragID identifies the source fragment.
	FragID meta.FragmentID
	// NumRows is the physical row count selections index into.
	NumRows int
	// Sel selects the visible physical rows (deletion mask applied);
	// nil selects all. Every selection a consumer derives starts here.
	Sel wire.Selection
	// ColIdx is the top-level field index of each projected column, in
	// the order Vectors returns them.
	ColIdx []int

	sc *schema.Schema

	encoded  bool
	cols     []wire.Vector   // encoded layout: one vector per ColIdx entry
	seqs     []int64         // encoded layout: per physical row, shared with the reader
	changes  []byte          // encoded layout: per physical row, shared with the reader
	identity *[3]wire.Vector // encoded layout: IdentityVectors memo

	rows []PosRow // row layout: visibility-filtered, with provenance
}

// Columnar reports whether the batch holds encoded vectors. Only tests
// ask: production code never branches on the layout.
func (b *ColBatch) Columnar() bool { return b.encoded }

// NumVisible returns the number of mask-visible rows.
func (b *ColBatch) NumVisible() int { return b.Sel.Count(b.NumRows) }

// Seq returns the storage sequence of physical row i.
func (b *ColBatch) Seq(i int32) int64 {
	if b.encoded {
		return b.seqs[i]
	}
	return b.rows[i].Stamped.Seq
}

// Conjunct is one AND-term of a predicate handed to Narrow.
type Conjunct struct {
	// Field is the top-level field index when the term reads exactly
	// that one flat column, else -1.
	Field int
	// Keep decides one row. A single-field term may be handed a row in
	// which only Values[Field] is populated.
	Keep func(schema.Row) (bool, error)
}

// Narrow returns the rows of sel that satisfy every term. On the
// encoded layout a single-field term is decided in code space — once
// per dictionary entry, once per run — and the rows it drops are
// counted in PrunedByCode without materializing a value; the remaining
// terms are evaluated together in one cursor pass over the survivors.
func (b *ColBatch) Narrow(sel wire.Selection, terms []Conjunct) (wire.Selection, wire.FilterStats, error) {
	var fs wire.FilterStats
	rest := terms
	if b.encoded {
		rest = nil
		probe := schema.Row{Values: nullValues(len(b.sc.Fields))}
		for _, t := range terms {
			vec := b.vectorOf(t.Field)
			if vec == nil {
				rest = append(rest, t)
				continue
			}
			nsel, st, err := vec.Filter(sel, func(v schema.Value) (bool, error) {
				probe.Values[t.Field] = v
				return t.Keep(probe)
			})
			if err != nil {
				return nil, fs, err
			}
			sel = nsel
			fs.PrunedByCode += st.PrunedByCode
			fs.Evaluated += st.Evaluated
		}
	}
	if len(rest) == 0 {
		return sel, fs, nil
	}
	out := make(wire.Selection, 0, sel.Count(b.NumRows))
rows:
	for cur := b.Cursor(sel); cur.Next(); {
		fs.Evaluated++
		row := cur.Row()
		for _, t := range rest {
			ok, err := t.Keep(row)
			if err != nil {
				return nil, fs, err
			}
			if !ok {
				continue rows
			}
		}
		out = append(out, cur.Index())
	}
	return out, fs, nil
}

func (b *ColBatch) vectorOf(field int) *wire.Vector {
	for k, fi := range b.ColIdx {
		if fi == field {
			return &b.cols[k]
		}
	}
	return nil
}

func nullValues(n int) []schema.Value {
	vals := make([]schema.Value, n)
	for i := range vals {
		vals[i] = schema.Null()
	}
	return vals
}

// RowCursor walks the selected rows of a batch in order. On the
// encoded layout it decodes each row into one reused scratch row,
// advancing a run cursor per RLE column instead of searching the runs
// per row.
type RowCursor struct {
	b   *ColBatch
	sel wire.Selection
	n   int   // rows to visit
	k   int   // rows visited
	i   int32 // current physical row

	scratch  []schema.Value
	run      []int   // per column: current RLE run, -1 before the first
	runStart []int32 // per column: first physical row of the run after it
}

// Cursor returns a cursor over sel (nil: every physical row),
// positioned before the first row.
func (b *ColBatch) Cursor(sel wire.Selection) *RowCursor {
	c := &RowCursor{b: b, sel: sel, n: sel.Count(b.NumRows)}
	if b.encoded {
		c.scratch = nullValues(len(b.sc.Fields))
		c.run = make([]int, len(b.cols))
		c.runStart = make([]int32, len(b.cols))
		for k := range c.run {
			c.run[k] = -1
		}
	}
	return c
}

// Next advances to the next selected row; false once exhausted.
func (c *RowCursor) Next() bool {
	if c.k >= c.n {
		return false
	}
	if c.sel == nil {
		c.i = int32(c.k)
	} else {
		c.i = c.sel[c.k]
	}
	c.k++
	if !c.b.encoded {
		return true
	}
	for k := range c.b.cols {
		v := &c.b.cols[k]
		switch v.Enc {
		case wire.BatchEncPlain:
			c.scratch[c.b.ColIdx[k]] = v.Values[c.i]
		case wire.BatchEncDict:
			c.scratch[c.b.ColIdx[k]] = v.Dict[v.Codes[c.i]]
		case wire.BatchEncRLE:
			// Selections ascend, so runs only move forward; the scratch
			// slot is rewritten only when the run changes.
			moved := false
			for c.run[k]+1 < len(v.Runs) && c.i >= c.runStart[k] {
				c.run[k]++
				c.runStart[k] += v.Runs[c.run[k]].Len
				moved = true
			}
			if moved {
				c.scratch[c.b.ColIdx[k]] = v.Runs[c.run[k]].Value
			}
		}
	}
	return true
}

// Index returns the current row's physical index.
func (c *RowCursor) Index() int32 { return c.i }

// Seq returns the current row's storage sequence.
func (c *RowCursor) Seq() int64 { return c.b.Seq(c.i) }

// Row returns the current row. It is valid only until the next call to
// Next (the encoded layout reuses one scratch row); use Retain to keep
// it. Row-layout rows keep the arity they were written with, which
// after schema evolution can be shorter than the schema.
func (c *RowCursor) Row() schema.Row {
	if !c.b.encoded {
		return c.b.rows[c.i].Stamped.Row
	}
	return schema.Row{Values: c.scratch, Change: schema.ChangeType(c.b.changes[c.i])}
}

// Retain returns the current row in a form that stays valid after
// Next. The result is read-only: it may share memory with the cache.
func (c *RowCursor) Retain() schema.Row {
	row := c.Row()
	if c.b.encoded {
		row.Values = append([]schema.Value(nil), row.Values...)
	}
	return row
}

// PosRows materializes the batch's visible rows with provenance,
// matching ScanDetailed's output for the same assignment.
func (b *ColBatch) PosRows() []PosRow {
	if !b.encoded && b.Sel == nil {
		return b.rows
	}
	out := make([]PosRow, 0, b.NumVisible())
	if !b.encoded {
		for _, i := range b.Sel {
			out = append(out, b.rows[i])
		}
		return out
	}
	for cur := b.Cursor(b.Sel); cur.Next(); {
		out = append(out, PosRow{
			Stamped:      rowenc.Stamped{Row: cur.Retain(), Seq: cur.Seq()},
			FragID:       b.FragID,
			FragLocal:    int64(cur.Index()),
			StreamOffset: -1,
		})
	}
	return out
}

// Vectors emits the rows of sel as one vector per projected column
// (named by schema field, ordered like ColIdx) plus the selection that
// picks those rows out of the vectors, ready for wire.EncodeVectors or
// Vector.Gather. The encoded layout returns its cached vectors with
// sel itself; the row layout transposes just the selected rows to
// PLAIN vectors and returns a nil selection, so callers that emit in
// chunks should pass one chunk's rows at a time.
func (b *ColBatch) Vectors(sel wire.Selection) ([]wire.Vector, wire.Selection) {
	if b.encoded {
		return b.cols, sel
	}
	n := sel.Count(b.NumRows)
	vals := make([][]schema.Value, len(b.ColIdx))
	for k := range vals {
		vals[k] = make([]schema.Value, 0, n)
	}
	for cur := b.Cursor(sel); cur.Next(); {
		row := cur.Row()
		for k, fi := range b.ColIdx {
			if fi < len(row.Values) {
				vals[k] = append(vals[k], row.Values[fi])
			} else {
				vals[k] = append(vals[k], schema.Null())
			}
		}
	}
	cols := make([]wire.Vector, len(vals))
	for k := range vals {
		cols[k] = wire.PlainVector(b.sc.Fields[b.ColIdx[k]].Name, vals[k])
	}
	return cols, nil
}

// IdentityVectors emits, for the same sel and aligned with the vectors
// and selection Vectors returns for it, the three unnamed row-identity
// columns: storage sequence, the value arity the row was written with,
// and change type.
func (b *ColBatch) IdentityVectors(sel wire.Selection) [3]wire.Vector {
	if !b.encoded {
		n := sel.Count(b.NumRows)
		at := func(k int) *rowenc.Stamped {
			if sel == nil {
				return &b.rows[k].Stamped
			}
			return &b.rows[sel[k]].Stamped
		}
		seqs := make([]schema.Value, n)
		for k := range seqs {
			seqs[k] = schema.Int64(at(k).Seq)
		}
		return [3]wire.Vector{
			wire.PlainVector("", seqs),
			runVector(n, func(k int) int64 { return int64(len(at(k).Row.Values)) }),
			runVector(n, func(k int) int64 { return int64(at(k).Row.Change) }),
		}
	}
	if b.identity == nil {
		seqs := make([]schema.Value, b.NumRows)
		for i, q := range b.seqs {
			seqs[i] = schema.Int64(q)
		}
		b.identity = &[3]wire.Vector{
			wire.PlainVector("", seqs),
			wire.ConstVector("", schema.Int64(int64(len(b.sc.Fields))), b.NumRows),
			runVector(b.NumRows, func(i int) int64 { return int64(b.changes[i]) }),
		}
	}
	return *b.identity
}

// runVector run-length encodes n small integers.
func runVector(n int, at func(i int) int64) wire.Vector {
	var runs []wire.Run
	for i := 0; i < n; i++ {
		v := at(i)
		if k := len(runs); k > 0 && runs[k-1].Value.AsInt64() == v {
			runs[k-1].Len++
			continue
		}
		runs = append(runs, wire.Run{Len: 1, Value: schema.Int64(v)})
	}
	return wire.RLEVector("", runs)
}

// ScanBatch reads one assignment in batch form. Immutable ROS
// fragments whose projected columns are all flat return the cached
// reader's encoded vectors without materializing a single row; WOS
// files and nested projections carry ScanDetailed's rows.
func (c *Client) ScanBatch(ctx context.Context, plan *ScanPlan, a Assignment) (*ColBatch, error) {
	if a.Frag.Format == meta.ROS && !a.Live {
		start := time.Now()
		rd, err := c.rosReader(a)
		if err != nil {
			return nil, err
		}
		vecs, idxs, ok, err := rd.Vectors(plan.Schema, plan.Projection)
		if err != nil {
			return nil, err
		}
		if ok {
			b := &ColBatch{
				FragID:  a.Frag.ID,
				NumRows: int(rd.RowCount()),
				ColIdx:  idxs,
				sc:      plan.Schema,
				encoded: true,
				cols:    vecs,
				seqs:    rd.Seqs(),
				changes: rd.Changes(),
			}
			if !a.Mask.Empty() {
				sel := make(wire.Selection, 0, b.NumRows)
				for i := 0; i < b.NumRows; i++ {
					if !a.Mask.Deleted(int64(i)) {
						sel = append(sel, int32(i))
					}
				}
				b.Sel = sel
			}
			c.scanLatency.Record(time.Since(start))
			return b, nil
		}
	}
	rows, err := c.ScanDetailed(ctx, plan, a)
	if err != nil {
		return nil, err
	}
	b := &ColBatch{FragID: a.Frag.ID, NumRows: len(rows), sc: plan.Schema, rows: rows}
	for fi, f := range plan.Schema.Fields {
		if plan.Projection == nil || plan.Projection[f.Name] {
			b.ColIdx = append(b.ColIdx, fi)
		}
	}
	return b, nil
}

// projectionKey renders a canonical memo key for a projection set.
func projectionKey(projection map[string]bool) string {
	if projection == nil {
		return "*"
	}
	cols := make([]string, 0, len(projection))
	for c := range projection {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	return strings.Join(cols, ",")
}
