// Vectorized column access: the encoded-form counterpart of the
// materialized RecordBatch. A Vector keeps one column in whichever
// encoding it was stored under — PLAIN values, DICT dictionary+codes,
// or RLE runs — so predicates can be evaluated in code space (once per
// dictionary entry, once per run) and only surviving rows ever decode
// to values. A Selection names the surviving row indexes; nil means
// every row. EncodeVectors re-emits selected rows straight into a
// record-batch frame without the content-scanning encoding chooser. A
// Vector is also what the column codec (column.go) decodes a payload
// into and encodes one from: the in-memory form of the one byte format
// ROS value pages and record-batch columns share.
package wire

import (
	"fmt"

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

// Vector is one column in encoded form. Exactly one of Values
// (BatchEncPlain), Dict+Codes (BatchEncDict) or Runs (BatchEncRLE) is
// populated, per Enc. Vectors handed out by readers are shared across
// scans and must be treated as read-only.
type Vector struct {
	Name string
	Enc  byte

	Values []schema.Value // PLAIN: one value per row
	Dict   []schema.Value // DICT: distinct values; may include NULL
	Codes  []uint32       // DICT: per-row dictionary index
	Runs   []Run          // RLE: runs covering all rows in order
}

// PlainVector wraps per-row values.
func PlainVector(name string, vals []schema.Value) Vector {
	return Vector{Name: name, Enc: BatchEncPlain, Values: vals}
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

// Len returns the row count the vector covers.
func (v *Vector) Len() int {
	switch v.Enc {
	case BatchEncPlain:
		return len(v.Values)
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
// runs; batch-oriented callers should iterate via Gather or Filter
// instead of calling ValueAt in a hot loop.
func (v *Vector) ValueAt(i int) schema.Value {
	switch v.Enc {
	case BatchEncPlain:
		return v.Values[i]
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
// row; for PLAIN vectors that case returns the backing slice without
// copying, so callers must not mutate the result.
func (v *Vector) Gather(sel Selection) []schema.Value {
	if sel == nil {
		if v.Enc == BatchEncPlain {
			return v.Values
		}
		n := v.Len()
		out := make([]schema.Value, n)
		switch v.Enc {
		case BatchEncDict:
			for i, c := range v.Codes {
				out[i] = v.Dict[c]
			}
		case BatchEncRLE:
			i := 0
			for _, r := range v.Runs {
				for k := int32(0); k < r.Len; k++ {
					out[i] = r.Value
					i++
				}
			}
		}
		return out
	}
	out := make([]schema.Value, len(sel))
	switch v.Enc {
	case BatchEncPlain:
		for k, i := range sel {
			out[k] = v.Values[i]
		}
	case BatchEncDict:
		for k, i := range sel {
			out[k] = v.Dict[v.Codes[i]]
		}
	case BatchEncRLE:
		// Selections are sorted, so one forward walk over the runs covers
		// every selected row.
		ri, start := 0, int32(0)
		for k, i := range sel {
			for ri < len(v.Runs) && i >= start+v.Runs[ri].Len {
				start += v.Runs[ri].Len
				ri++
			}
			if ri < len(v.Runs) {
				out[k] = v.Runs[ri].Value
			} else {
				out[k] = schema.Null()
			}
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
		out := make(Selection, 0, sel.Count(len(v.Values)))
		err := forEachSel(sel, len(v.Values), func(i int32) error {
			st.Evaluated++
			ok, err := keep(v.Values[i])
			if err != nil {
				return err
			}
			if ok {
				out = append(out, i)
			}
			return nil
		})
		return out, st, err
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
		err := forEachSel(sel, len(v.Codes), func(i int32) error {
			if keepCode[v.Codes[i]] {
				out = append(out, i)
			} else {
				st.PrunedByCode++
			}
			return nil
		})
		return out, st, err
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

// Count returns how many of n rows the selection picks.
func (sel Selection) Count(n int) int {
	if sel == nil {
		return n
	}
	return len(sel)
}

func forEachSel(sel Selection, n int, f func(int32) error) error {
	if sel == nil {
		for i := 0; i < n; i++ {
			if err := f(int32(i)); err != nil {
				return err
			}
		}
		return nil
	}
	for _, i := range sel {
		if err := f(i); err != nil {
			return err
		}
	}
	return nil
}

// EncodeVectors serializes the selected rows of the given columns into
// one record-batch frame, preserving each vector's encoding instead of
// re-scanning content like EncodeRecordBatch (AppendColumn: DICT columns
// emit a compacted dictionary plus selected codes, RLE columns emit runs
// intersected with the selection). The output decodes with
// DecodeRecordBatch like any other frame. It panics when a vector's
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

	var dst []byte
	dst = appendBatchHeader(dst, nSel, len(cols))
	for i := range cols {
		dst = appendBatchColumn(dst, &cols[i], sel)
	}
	return appendBatchCRC(dst)
}
