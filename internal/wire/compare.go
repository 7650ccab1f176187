package wire

import (
	"cmp"
	"strings"

	"vortex/internal/schema"
)

// CmpOp is the operator of a Comparison.
type CmpOp byte

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// Comparison is the predicate `row <Op> Lit` on one column, with Lit
// not NULL. It holds where the three-way comparison of the row's value
// with Lit — schema.Value.Compare, so a FLOAT64 NaN compares equal to
// everything — satisfies Op; a NULL row never holds.
type Comparison struct {
	Op  CmpOp
	Lit schema.Value
}

// outcomes is which three-way results, -1, 0 and 1 at indexes 0, 1 and
// 2, satisfy op.
func (op CmpOp) outcomes() [3]bool {
	switch op {
	case CmpEq:
		return [3]bool{false, true, false}
	case CmpNe:
		return [3]bool{true, false, true}
	case CmpLt:
		return [3]bool{true, false, false}
	case CmpLe:
		return [3]bool{true, true, false}
	case CmpGt:
		return [3]bool{false, false, true}
	}
	return [3]bool{false, true, true}
}

// FilterCompare is Filter for a predicate that keep decides and that,
// when cmp is not nil, is the comparison cmp. On a typed PLAIN vector
// of the literal's kind, a kind whose values compare (every typed kind
// but JSON), it decides each row in one loop over Ints, Floats or Str
// without building a value or calling keep, and counts what Filter
// counts: one evaluation per selected row. Every other vector — DICT,
// RLE, untyped, or of another kind — goes through Filter with keep.
func (v *Vector) FilterCompare(sel Selection, cmp *Comparison, keep func(schema.Value) (bool, error)) (Selection, FilterStats, error) {
	if cmp == nil || v.Enc != BatchEncPlain || !v.Typed() || v.Kind != cmp.Lit.Kind() || cmp.Lit.IsNull() || v.Kind == schema.KindJSON {
		return v.Filter(sel, keep)
	}
	want := cmp.Op.outcomes()
	n := sel.Count(v.Len())
	out := make(Selection, 0, n)
	switch v.Kind {
	case schema.KindFloat64:
		out = compareRows(out, sel, n, v.Valid, v.Floats, cmp.Lit.AsFloat64(), &want)
	case schema.KindString:
		lit, str, offs := cmp.Lit.AsString(), v.Str, v.Offs
		for k := 0; k < n; k++ {
			i := int32(k)
			if sel != nil {
				i = sel[k]
			}
			if want[three(str[offs[i]:offs[i+1]], lit)+1] && v.Valid.Has(int(i)) {
				out = append(out, i)
			}
		}
	default:
		out = compareRows(out, sel, n, v.Valid, v.Ints, cmp.Lit.AsInt64(), &want)
	}
	return out, FilterStats{Evaluated: int64(n)}, nil
}

// compareRows appends to out the selected rows (n of them; nil sel:
// every row) that are valid and whose three-way comparison with lit is
// one want marks.
func compareRows[T int64 | float64](out, sel Selection, n int, valid Bitmap, rows []T, lit T, want *[3]bool) Selection {
	if sel == nil {
		for i, x := range rows[:n] {
			if want[three(x, lit)+1] && valid.Has(i) {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, i := range sel {
		if want[three(rows[i], lit)+1] && valid.Has(int(i)) {
			out = append(out, i)
		}
	}
	return out
}

// three compares a with b as schema.Value.Compare does: -1, 0 or 1,
// and 0 when neither is less, as for a NaN.
func three[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Order returns the function that orders rows i and j of v as
// schema.Value.Compare orders their values — NULL first, a FLOAT64 NaN
// equal to everything. It is chosen once for v's kind and validity, so
// on a typed vector a sort's many comparisons read Ints, Floats or Str
// straight; any other vector compares the values it holds.
func (v *Vector) Order() func(i, j int) int {
	if v.Enc != BatchEncPlain || !v.Typed() {
		return func(i, j int) int { return v.ValueAt(i).Compare(v.ValueAt(j)) }
	}
	var order func(i, j int) int
	switch v.Kind {
	case schema.KindFloat64:
		floats := v.Floats
		order = func(i, j int) int { return three(floats[i], floats[j]) }
	case schema.KindString, schema.KindJSON:
		str, offs := v.Str, v.Offs
		order = func(i, j int) int { return strings.Compare(str[offs[i]:offs[i+1]], str[offs[j]:offs[j+1]]) }
	default:
		ints := v.Ints
		order = func(i, j int) int { return cmp.Compare(ints[i], ints[j]) }
	}
	if v.Valid == nil {
		return order
	}
	valid := v.Valid
	return func(i, j int) int {
		if ni, nj := !valid.Has(i), !valid.Has(j); ni || nj {
			return cmp.Compare(b2i(nj), b2i(ni))
		}
		return order(i, j)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// PartitionOf is schema.PartitionOfValue of row i's value, on a typed
// vector straight from its Ints.
func (v *Vector) PartitionOf(i int) (int64, bool) {
	if v.Enc != BatchEncPlain || !v.Typed() {
		return schema.PartitionOfValue(v.ValueAt(i))
	}
	if (v.Kind != schema.KindTimestamp && v.Kind != schema.KindDate) || !v.Valid.Has(i) {
		return 0, false
	}
	return schema.PartitionOfInt(v.Kind, v.Ints[i])
}
