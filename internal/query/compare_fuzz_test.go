package query

import (
	"errors"
	"math"
	"slices"
	"strconv"
	"testing"

	"vortex/internal/schema"
	"vortex/internal/sql"
	"vortex/internal/wire"
)

// fuzzCmpKinds are the kinds a fuzzed column is typed as; JSON is typed
// but does not compare, so its rows must still reach sql.Eval's error.
var fuzzCmpKinds = []schema.Kind{
	schema.KindInt64, schema.KindTimestamp, schema.KindDate, schema.KindNumeric,
	schema.KindBool, schema.KindFloat64, schema.KindString, schema.KindJSON,
}

var fuzzCmpOps = []sql.BinOp{sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe}

// fuzzTypedVector builds a typed PLAIN column of kind k from data: one
// row per byte, small values so rows collide with each other and the
// literal, the byte's top bit a NULL, and for FLOAT64 every eighth
// value a NaN.
func fuzzTypedVector(k schema.Kind, data []byte) wire.Vector {
	v := wire.Vector{Name: "c", Enc: wire.BatchEncPlain, Kind: k}
	n := len(data)
	switch k {
	case schema.KindFloat64:
		v.Floats = make([]float64, n)
	case schema.KindString, schema.KindJSON:
		v.Offs = make([]int32, n+1)
	default:
		v.Ints = make([]int64, n)
	}
	for i, b := range data {
		if b&0x80 != 0 {
			if v.Valid == nil {
				v.Valid = wire.AllValid(n)
			}
			v.Valid.SetNull(i)
			if v.Offs != nil {
				v.Offs[i+1] = int32(len(v.Str))
			}
			continue
		}
		x := int64(b&0x0f) - 7
		switch k {
		case schema.KindFloat64:
			v.Floats[i] = float64(x) / 2
			if b&0x70 == 0x70 {
				v.Floats[i] = math.NaN()
			}
		case schema.KindString, schema.KindJSON:
			v.Str += strconv.FormatInt(x, 10)
			v.Offs[i+1] = int32(len(v.Str))
		case schema.KindBool:
			v.Ints[i] = x & 1
		default:
			v.Ints[i] = x
		}
	}
	return v
}

// fuzzLiteral is the literal of kind k that x names, in the same small
// range as fuzzTypedVector's rows; NaN for FLOAT64 when nan is set.
func fuzzLiteral(k schema.Kind, x int64, nan bool) schema.Value {
	switch k {
	case schema.KindFloat64:
		if nan {
			return schema.Float64(math.NaN())
		}
		return schema.Float64(float64(x) / 2)
	case schema.KindString:
		return schema.String(strconv.FormatInt(x, 10))
	case schema.KindJSON:
		return schema.RawJSON(strconv.FormatInt(x, 10))
	case schema.KindBool:
		return schema.Bool(x&1 == 1)
	}
	return schema.IntOf(k, x)
}

// FuzzComparisonKernel holds the typed comparison kernel to the generic
// path it stands in for: CompileVecPredicate's term for `c <op> lit` or
// `lit <op> c`, run through FilterCompare on a typed column, must keep
// the rows, count the evaluations and fail as Filter does calling
// sql.Eval on every row — for every operator and typed kind, a literal
// of the column's kind or another, a NULL or NaN literal, NULL rows,
// NaN rows, and a nil or explicit selection.
func FuzzComparisonKernel(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), int8(1), false, []byte{1, 2, 0x81, 8, 9}, []byte{0xff})
	f.Add(uint8(5), uint8(2), uint8(5), int8(0), true, []byte{0x70, 7, 0xf0, 3}, []byte{0x05})
	f.Add(uint8(6), uint8(4), uint8(6), int8(-3), false, []byte{4, 5, 6, 0x85}, []byte(nil))
	f.Add(uint8(7), uint8(1), uint8(7), int8(2), false, []byte{9, 0x89}, []byte{0x03})
	f.Add(uint8(3), uint8(5), uint8(0), int8(2), false, []byte{9, 10, 2}, []byte{0x07})
	f.Fuzz(func(t *testing.T, kind, op, litKind uint8, lit int8, swap bool, rows, mask []byte) {
		if len(rows) > 512 {
			rows = rows[:512]
		}
		k := fuzzCmpKinds[int(kind)%len(fuzzCmpKinds)]
		vec := fuzzTypedVector(k, rows)

		// The literal: of the column's kind unless litKind names
		// another, NULL at one value of lit.
		lk := k
		if litKind%4 == 0 {
			lk = fuzzCmpKinds[int(litKind/4)%len(fuzzCmpKinds)]
		}
		litVal := fuzzLiteral(lk, int64(lit%9), lit == 9)
		if lit == -9 {
			litVal = schema.Null()
		}
		col := &sql.ColumnRef{Path: []string{"c"}, Index: 0, Indexes: []int{0}}
		var e sql.Expr = &sql.Binary{Op: fuzzCmpOps[int(op)%len(fuzzCmpOps)], L: col, R: &sql.Literal{Value: litVal}}
		if swap {
			b := e.(*sql.Binary)
			b.L, b.R = b.R, b.L
		}

		// A nil selection, or the rows whose mask bit is set.
		var sel wire.Selection
		if mask != nil {
			sel = wire.Selection{}
			for i := range rows {
				if i/8 < len(mask) && mask[i/8]&(1<<(i%8)) != 0 {
					sel = append(sel, int32(i))
				}
			}
		}

		term := CompileVecPredicate(e).terms[0]
		if term.Field != 0 {
			t.Fatalf("term reads field %d, want 0", term.Field)
		}
		if (term.Cmp == nil) != litVal.IsNull() {
			t.Fatalf("comparison %v for literal %v", term.Cmp, litVal)
		}
		probe := schema.Row{Values: []schema.Value{schema.Null()}}
		keep := func(v schema.Value) (bool, error) {
			probe.Values[0] = v
			return term.Keep(probe)
		}
		got, gotSt, gotErr := vec.FilterCompare(sel, term.Cmp, keep)
		want, wantSt, wantErr := vec.Filter(sel, keep)
		if (gotErr != nil) != (wantErr != nil) || (wantErr != nil && !errors.Is(gotErr, sql.ErrType)) {
			t.Fatalf("%s on %v: kernel error %v, Eval error %v", sql.ExprString(e), k, gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if !slices.Equal(got, want) || gotSt != wantSt {
			t.Fatalf("%s on %v rows %v sel %v:\nkernel kept %v %+v\nEval   kept %v %+v", sql.ExprString(e), k, rows, sel, got, gotSt, want, wantSt)
		}
	})
}
