// Vectorized column access: the encoded-form counterpart of the
// materialized RecordBatch. A Vector keeps one column in whichever
// encoding it was stored under — PLAIN (unboxed when the column is of
// one scalar kind), DICT dictionary+codes, or RLE runs — so predicates can be evaluated in code space (once per
// dictionary entry, once per run) and only surviving rows ever decode
// to values. A Selection names the surviving row indexes; nil means
// every row. EncodeVectors re-emits selected rows straight into a
// record-batch frame without the content-scanning encoding chooser, a
// typed vector as its TYPED buffers. A
// Vector is also what the column codec (column.go) decodes a payload
// into and encodes one from: the in-memory form of the one byte format
// ROS value pages and record-batch columns share.
package wire

import (
	"encoding/binary"
	"fmt"
	"slices"

	"vortex/internal/schema"
)

// Selection is a sorted list of selected row indexes into a batch.
// A nil Selection selects every row.
type Selection []int32

// SelectAll materializes the identity selection for n rows. Most
// callers should keep nil instead; this exists for code that must
// slice a selection by position.
func SelectAll(n int) Selection {
	sel := make(Selection, n)
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}

// Run is one run-length-encoded stretch of equal values.
type Run struct {
	Len   int32
	Value schema.Value
}

// Vector is one column in encoded form. Enc says which fields hold it:
//
//	PLAIN, typed  Kind, Valid, and Ints, Floats or Str+Offs by kind
//	PLAIN         Values
//	DICT          Dict+Codes
//	RLE           Runs
//
// A PLAIN column whose rows are all NULL or of one kind among INT64,
// TIMESTAMP, DATE, NUMERIC, BOOL, FLOAT64, STRING and JSON is typed: its
// payloads sit unboxed and a schema.Value is built only when ValueAt,
// Gather or Filter hands one out. DecodeColumn types every such column;
// a nested, BYTES or mixed-kind column keeps Values. Vectors handed out
// by readers are shared across scans and must be treated as read-only.
type Vector struct {
	Name string
	Enc  byte

	Kind   schema.Kind // typed PLAIN: the column's kind; KindInvalid otherwise
	Ints   []int64     // typed INT64, TIMESTAMP, DATE, NUMERIC, BOOL (0 or 1); 0 at NULLs
	Floats []float64   // typed FLOAT64; 0 at NULLs
	Str    string      // typed STRING, JSON: every row's bytes back to back
	Offs   []int32     // typed STRING, JSON: row i is Str[Offs[i]:Offs[i+1]]; empty at NULLs
	Valid  Bitmap      // typed: the rows that are not NULL; nil when all are

	Values []schema.Value // untyped PLAIN: one value per row
	Dict   []schema.Value // DICT: distinct values; may include NULL
	Codes  []uint32       // DICT: per-row dictionary index
	Runs   []Run          // RLE: runs covering all rows in order
}

// Bitmap marks the rows of a typed column that are not NULL: bit i%64
// of word i/64 for row i. A nil Bitmap marks every row.
type Bitmap []uint64

// AllValid returns a Bitmap of n rows that marks every one; SetNull
// unmarks a row.
func AllValid(n int) Bitmap {
	b := make(Bitmap, (n+63)/64)
	for i := range b {
		b[i] = ^uint64(0)
	}
	return b
}

// Has reports whether row i is not NULL.
func (b Bitmap) Has(i int) bool { return b == nil || b[i>>6]&(1<<(i&63)) != 0 }

// SetNull marks row i NULL.
func (b Bitmap) SetNull(i int) { b[i>>6] &^= 1 << (i & 63) }

// PlainVector wraps per-row values.
func PlainVector(name string, vals []schema.Value) Vector {
	return Vector{Name: name, Enc: BatchEncPlain, Values: vals}
}

// IntVector wraps a typed column of integer kind k (INT64, TIMESTAMP,
// DATE, NUMERIC, or BOOL as 0 and 1) with no NULLs, sharing ints.
func IntVector(name string, k schema.Kind, ints []int64) Vector {
	return Vector{Name: name, Enc: BatchEncPlain, Kind: k, Ints: ints}
}

// DictVector wraps a dictionary column.
func DictVector(name string, dict []schema.Value, codes []uint32) Vector {
	return Vector{Name: name, Enc: BatchEncDict, Dict: dict, Codes: codes}
}

// RLEVector wraps a run-length column.
func RLEVector(name string, runs []Run) Vector {
	return Vector{Name: name, Enc: BatchEncRLE, Runs: runs}
}

// ConstVector is a single-run RLE column of n copies of v.
func ConstVector(name string, v schema.Value, n int) Vector {
	if n == 0 {
		return Vector{Name: name, Enc: BatchEncRLE}
	}
	return RLEVector(name, []Run{{Len: int32(n), Value: v}})
}

// IntRuns run-length encodes small integers, such as a fragment's
// per-row change types, as a column of INT64 runs.
func IntRuns[T int32 | byte](name string, vals []T) Vector {
	var runs []Run
	for i, x := range vals {
		if k := len(runs); i > 0 && vals[i-1] == x {
			runs[k-1].Len++
			continue
		}
		runs = append(runs, Run{Len: 1, Value: schema.Int64(int64(x))})
	}
	return RLEVector(name, runs)
}

// Typed reports whether v is a typed PLAIN column.
func (v *Vector) Typed() bool { return v.Kind != schema.KindInvalid }

// typedKind reports whether a PLAIN column of kind k is typed.
func typedKind(k schema.Kind) bool {
	switch k {
	case schema.KindInt64, schema.KindTimestamp, schema.KindDate, schema.KindNumeric, schema.KindBool,
		schema.KindFloat64, schema.KindString, schema.KindJSON:
		return true
	}
	return false
}

// Len returns the row count the vector covers.
func (v *Vector) Len() int {
	switch v.Enc {
	case BatchEncPlain:
		switch v.Kind {
		case schema.KindInvalid:
			return len(v.Values)
		case schema.KindFloat64:
			return len(v.Floats)
		case schema.KindString, schema.KindJSON:
			return len(v.Offs) - 1
		}
		return len(v.Ints)
	case BatchEncDict:
		return len(v.Codes)
	case BatchEncRLE:
		n := 0
		for _, r := range v.Runs {
			n += int(r.Len)
		}
		return n
	}
	return 0
}

// ValueAt decodes the value at row i. For RLE vectors this walks the
// runs; batch-oriented callers should iterate via Gather, LoadValues or
// Filter instead of calling ValueAt in a hot loop. It inlines to an
// index for an untyped PLAIN vector.
func (v *Vector) ValueAt(i int) schema.Value {
	if v.Enc == BatchEncPlain && !v.Typed() {
		return v.Values[i]
	}
	return v.valueAt(i)
}

// valueAt is ValueAt past its inlined case. A typed string row is a
// substring of Str: nothing is copied.
func (v *Vector) valueAt(i int) schema.Value {
	switch v.Enc {
	case BatchEncPlain:
		if !v.Valid.Has(i) {
			return schema.Null()
		}
		switch v.Kind {
		case schema.KindFloat64:
			return schema.Float64(v.Floats[i])
		case schema.KindString:
			return schema.String(v.Str[v.Offs[i]:v.Offs[i+1]])
		case schema.KindJSON:
			return schema.RawJSON(v.Str[v.Offs[i]:v.Offs[i+1]])
		}
		return schema.IntOf(v.Kind, v.Ints[i])
	case BatchEncDict:
		return v.Dict[v.Codes[i]]
	case BatchEncRLE:
		for _, r := range v.Runs {
			if i < int(r.Len) {
				return r.Value
			}
			i -= int(r.Len)
		}
	}
	return schema.Null()
}

// Gather materializes the selected rows (late materialization: only
// called on predicate survivors). A nil selection materializes every
// row; for an untyped PLAIN vector that case returns the backing slice
// without copying, so callers must not mutate the result.
func (v *Vector) Gather(sel Selection) []schema.Value {
	if sel == nil && v.Enc == BatchEncPlain && !v.Typed() {
		return v.Values
	}
	return v.AppendValues(nil, sel)
}

// AppendValues appends the selected rows' values to dst (nil sel: every
// row) and returns the extended slice.
func (v *Vector) AppendValues(dst []schema.Value, sel Selection) []schema.Value {
	n := sel.Count(v.Len())
	at := len(dst)
	dst = slices.Grow(dst, n)[:at+n]
	v.LoadValues(dst[at:], 1, sel)
	return dst
}

// LoadValues stores the selected rows' values (nil sel: every row) at
// dst[0], dst[stride], dst[2*stride], …: Gather into memory the caller
// lays out, such as a block of row-major cursor rows. A typed column is
// built in one loop per kind, with its NULLs laid over it after.
func (v *Vector) LoadValues(dst []schema.Value, stride int, sel Selection) {
	n := sel.Count(v.Len())
	switch {
	case v.Enc == BatchEncPlain && !v.Typed():
		for o := 0; o < n; o++ {
			dst[o*stride] = v.Values[selRow(sel, o)]
		}
	case v.Enc == BatchEncDict:
		for o := 0; o < n; o++ {
			dst[o*stride] = v.Dict[v.Codes[selRow(sel, o)]]
		}
	case v.Enc == BatchEncRLE && sel == nil:
		o := 0
		for _, r := range v.Runs {
			for k := int32(0); k < r.Len; k++ {
				dst[o*stride] = r.Value
				o++
			}
		}
	case v.Enc == BatchEncRLE:
		// Selections ascend, so one forward walk over the runs covers
		// every selected row.
		ri, start := 0, int32(0)
		for o := 0; o < n; o++ {
			i := int32(selRow(sel, o))
			for ri < len(v.Runs) && i >= start+v.Runs[ri].Len {
				start += v.Runs[ri].Len
				ri++
			}
			if ri < len(v.Runs) {
				dst[o*stride] = v.Runs[ri].Value
			} else {
				dst[o*stride] = schema.Null()
			}
		}
	case v.Kind == schema.KindFloat64:
		for o, floats := 0, v.Floats; o < n; o++ {
			dst[o*stride] = schema.Float64(floats[selRow(sel, o)])
		}
	case v.Kind == schema.KindString:
		for o, str, offs := 0, v.Str, v.Offs; o < n; o++ {
			i := selRow(sel, o)
			dst[o*stride] = schema.String(str[offs[i]:offs[i+1]])
		}
	case v.Kind == schema.KindJSON:
		for o, str, offs := 0, v.Str, v.Offs; o < n; o++ {
			i := selRow(sel, o)
			dst[o*stride] = schema.RawJSON(str[offs[i]:offs[i+1]])
		}
	default:
		for o, k, ints := 0, v.Kind, v.Ints; o < n; o++ {
			dst[o*stride] = schema.IntOf(k, ints[selRow(sel, o)])
		}
	}
	if v.Typed() && v.Valid != nil {
		for o := 0; o < n; o++ {
			if !v.Valid.Has(selRow(sel, o)) {
				dst[o*stride] = schema.Null()
			}
		}
	}
}

// Spread lays a typed column out over n rows: row i takes the next of
// v's rows where valid (not nil; Spread keeps it) marks it, and is NULL
// where it does not. It is how a ROS value page, which holds only the
// defined entries, becomes its column; Str is shared, not copied.
func (v *Vector) Spread(n int, valid Bitmap) Vector {
	out := Vector{Name: v.Name, Enc: BatchEncPlain, Kind: v.Kind, Valid: valid}
	switch v.Kind {
	case schema.KindFloat64:
		out.Floats = spreadRows(v, n, valid, v.Floats)
	case schema.KindString, schema.KindJSON:
		// Row i ends where the last of v's rows placed so far ends.
		out.Str, out.Offs = v.Str, make([]int32, n+1)
		k := 0
		for i := 0; i < n; i++ {
			if valid.Has(i) {
				if !v.Valid.Has(k) {
					valid.SetNull(i)
				}
				k++
			}
			out.Offs[i+1] = v.Offs[k]
		}
	default:
		out.Ints = spreadRows(v, n, valid, v.Ints)
	}
	return out
}

// spreadRows is Spread for one payload slice; a row v holds as NULL
// stays NULL.
func spreadRows[T any](v *Vector, n int, valid Bitmap, rows []T) []T {
	out := make([]T, n)
	k := 0
	for i := range out {
		if valid.Has(i) {
			if !v.Valid.Has(k) {
				valid.SetNull(i)
			}
			out[i] = rows[k]
			k++
		}
	}
	return out
}

// FilterStats reports how a Filter call disposed of rows.
type FilterStats struct {
	// PrunedByCode counts rows eliminated in encoded space — by a
	// dictionary-code or whole-run decision — without a per-row
	// predicate evaluation.
	PrunedByCode int64
	// Evaluated counts predicate evaluations actually performed: one
	// per selected row for PLAIN, one per dictionary entry for DICT,
	// one per run for RLE.
	Evaluated int64
}

// Filter narrows a selection by a single-column predicate. The
// predicate runs once per distinct code for DICT vectors and once per
// run for RLE vectors — rows are then kept or dropped wholesale by
// code, which is the code-space evaluation the vectorized read path
// exists for. sel nil means all rows.
func (v *Vector) Filter(sel Selection, keep func(schema.Value) (bool, error)) (Selection, FilterStats, error) {
	var st FilterStats
	switch v.Enc {
	case BatchEncPlain:
		if v.Typed() {
			return v.filterTyped(sel, keep)
		}
		n := sel.Count(len(v.Values))
		out := make(Selection, 0, n)
		for k := 0; k < n; k++ {
			i := int32(k)
			if sel != nil {
				i = sel[k]
			}
			st.Evaluated++
			ok, err := keep(v.Values[i])
			if err != nil {
				return out, st, err
			}
			if ok {
				out = append(out, i)
			}
		}
		return out, st, nil
	case BatchEncDict:
		keepCode := make([]bool, len(v.Dict))
		for c, dv := range v.Dict {
			st.Evaluated++
			ok, err := keep(dv)
			if err != nil {
				return nil, st, err
			}
			keepCode[c] = ok
		}
		out := make(Selection, 0, sel.Count(len(v.Codes)))
		for k, n := 0, sel.Count(len(v.Codes)); k < n; k++ {
			i := int32(k)
			if sel != nil {
				i = sel[k]
			}
			if keepCode[v.Codes[i]] {
				out = append(out, i)
			}
		}
		st.PrunedByCode = int64(sel.Count(len(v.Codes)) - len(out))
		return out, st, nil
	case BatchEncRLE:
		// Decide each run once, then keep or skip its rows wholesale.
		keepRun := make([]int8, len(v.Runs)) // 0 undecided, 1 keep, -1 drop
		decide := func(ri int) (bool, error) {
			if keepRun[ri] == 0 {
				st.Evaluated++
				ok, err := keep(v.Runs[ri].Value)
				if err != nil {
					return false, err
				}
				if ok {
					keepRun[ri] = 1
				} else {
					keepRun[ri] = -1
				}
			}
			return keepRun[ri] == 1, nil
		}
		n := v.Len()
		out := make(Selection, 0, sel.Count(n))
		if sel == nil {
			i := int32(0)
			for ri, r := range v.Runs {
				ok, err := decide(ri)
				if err != nil {
					return nil, st, err
				}
				if ok {
					for k := int32(0); k < r.Len; k++ {
						out = append(out, i+k)
					}
				} else {
					st.PrunedByCode += int64(r.Len)
				}
				i += r.Len
			}
			return out, st, nil
		}
		ri, start := 0, int32(0)
		for _, i := range sel {
			for ri < len(v.Runs) && i >= start+v.Runs[ri].Len {
				start += v.Runs[ri].Len
				ri++
			}
			if ri >= len(v.Runs) {
				st.PrunedByCode++
				continue
			}
			ok, err := decide(ri)
			if err != nil {
				return nil, st, err
			}
			if ok {
				out = append(out, i)
			} else {
				st.PrunedByCode++
			}
		}
		return out, st, nil
	}
	return nil, st, fmt.Errorf("wire: filter on encoding 0x%02x", v.Enc)
}

// filterTyped is Filter on a typed vector: each row's value is built
// where keep is called, in one loop per kind.
func (v *Vector) filterTyped(sel Selection, keep func(schema.Value) (bool, error)) (Selection, FilterStats, error) {
	var st FilterStats
	n := sel.Count(v.Len())
	out := make(Selection, 0, n)
	row := func(o int) int32 {
		if sel == nil {
			return int32(o)
		}
		return sel[o]
	}
	test := func(i int32, val schema.Value) error {
		st.Evaluated++
		if !v.Valid.Has(int(i)) {
			val = schema.Null()
		}
		ok, err := keep(val)
		if ok && err == nil {
			out = append(out, i)
		}
		return err
	}
	var err error
	switch k, str, offs := v.Kind, v.Str, v.Offs; k {
	case schema.KindFloat64:
		for o := 0; o < n && err == nil; o++ {
			i := row(o)
			err = test(i, schema.Float64(v.Floats[i]))
		}
	case schema.KindString:
		for o := 0; o < n && err == nil; o++ {
			i := row(o)
			err = test(i, schema.String(str[offs[i]:offs[i+1]]))
		}
	case schema.KindJSON:
		for o := 0; o < n && err == nil; o++ {
			i := row(o)
			err = test(i, schema.RawJSON(str[offs[i]:offs[i+1]]))
		}
	default:
		for o := 0; o < n && err == nil; o++ {
			i := row(o)
			err = test(i, schema.IntOf(k, v.Ints[i]))
		}
	}
	return out, st, err
}

// Count returns how many of n rows the selection picks.
func (sel Selection) Count(n int) int {
	if sel == nil {
		return n
	}
	return len(sel)
}

// EncodeVectors serializes the selected rows of the given columns into
// one record-batch frame, preserving each vector's encoding instead of
// re-scanning content like EncodeRecordBatch (AppendColumn: DICT columns
// emit a compacted dictionary plus selected codes, RLE columns emit runs
// intersected with the selection, typed columns their TYPED buffers).
// The output decodes with DecodeVectors or DecodeRecordBatch like any
// other frame. It panics when a vector's
// length disagrees with the others (a programming error).
func EncodeVectors(cols []Vector, sel Selection) []byte {
	nRows := -1
	for i := range cols {
		n := cols[i].Len()
		if nRows >= 0 && n != nRows {
			panic(fmt.Sprintf("wire: vector %q has %d rows, batch has %d", cols[i].Name, n, nRows))
		}
		nRows = n
	}
	if nRows < 0 {
		nRows = 0
	}
	nSel := sel.Count(nRows)

	// Size every column, then write the frame into one buffer of the
	// frame's length.
	framed := make([]framedColumn, len(cols))
	size := batchHeaderMax + 4
	for i := range cols {
		framed[i] = frameColumn(&cols[i], sel)
		size += uvarintLen(len(cols[i].Name)) + len(cols[i].Name) + framed[i].len()
	}
	dst := appendBatchHeader(make([]byte, 0, size), nSel, len(cols))
	for i := range cols {
		dst = binary.AppendUvarint(dst, uint64(len(cols[i].Name)))
		dst = append(dst, cols[i].Name...)
		dst = framed[i].append(dst, &cols[i], sel)
	}
	return appendBatchCRC(dst)
}
