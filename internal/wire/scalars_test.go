package wire

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"vortex/internal/rowenc"
	"vortex/internal/schema"
)

// scalarKinds are the kinds Scalars holds: every scalar kind.
var scalarKinds = []schema.Kind{
	schema.KindInt64, schema.KindFloat64, schema.KindBool, schema.KindString, schema.KindBytes,
	schema.KindTimestamp, schema.KindDate, schema.KindNumeric, schema.KindJSON,
}

// edgeValue is one of a kind's values whose equality or order is easy
// to get wrong: NaN, -0.0, the empty string, extreme integers.
func edgeValue(rng *rand.Rand, k schema.Kind) schema.Value {
	switch k {
	case schema.KindFloat64:
		return schema.Float64([]float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(-1)}[rng.Intn(4)])
	case schema.KindString:
		return schema.String("")
	case schema.KindJSON:
		return schema.RawJSON("")
	case schema.KindBytes:
		return schema.Bytes(nil)
	case schema.KindBool:
		return schema.Bool(false)
	}
	return schema.IntOf(k, []int64{math.MinInt64, math.MaxInt64, 0}[rng.Intn(3)])
}

// scalarColumn is n non-NULL values of kind k drawn from a pool of
// distinct values, repeated in runs as often as not.
func scalarColumn(rng *rand.Rand, k schema.Kind, n int) []schema.Value {
	pool := make([]schema.Value, 1+rng.Intn(12))
	for i := range pool {
		if rng.Intn(4) == 0 {
			pool[i] = edgeValue(rng, k)
		} else {
			pool[i] = schema.RandomScalar(rng, k)
		}
	}
	vals := make([]schema.Value, 0, n)
	for len(vals) < n {
		v := pool[rng.Intn(len(pool))]
		for run := 1 + rng.Intn(3); run > 0 && len(vals) < n; run-- {
			vals = append(vals, v)
		}
	}
	return vals
}

func sameEncoding(a, b schema.Value) bool {
	return bytes.Equal(rowenc.AppendValue(nil, a), rowenc.AppendValue(nil, b))
}

// TestScalarsPayloadsAreColumnPayloads: for every scalar kind, the
// payloads a Layout sizes and AppendPayload writes are ColumnPayload's
// for the same values as PLAIN, BuildDict and BuildRuns vectors, byte
// for byte, and a Layout gives DICT and RLE up exactly where BuildDict
// and BuildRuns do — one Layout reused across all of them. MinMax picks
// Value.Compare's least and greatest, and Value and Truncate give back
// what was appended.
func TestScalarsPayloadsAreColumnPayloads(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var l Layout
	for trial := 0; trial < 400; trial++ {
		k := scalarKinds[trial%len(scalarKinds)]
		vals := scalarColumn(rng, k, rng.Intn(40))
		s := Scalars{Kind: k}
		for _, v := range vals {
			s.Append(v)
		}
		if s.Len() != len(vals) {
			t.Fatalf("%v: %d values appended, Len %d", k, len(vals), s.Len())
		}
		for i, v := range vals {
			if !sameEncoding(s.Value(i), v) {
				t.Fatalf("%v: value %d is %v, was %v", k, i, s.Value(i), v)
			}
		}
		maxDistinct, maxRuns := rng.Intn(len(vals)+2), rng.Intn(len(vals)+2)
		l.Measure(&s, maxDistinct, maxRuns)
		pv := PlainVector("", vals)
		if _, want := ColumnPayload(&pv, nil); l.PlainLen != len(want) || !bytes.Equal(s.AppendPayload(nil, &l, BatchEncPlain), want) {
			t.Fatalf("%v: PLAIN payload differs from ColumnPayload's", k)
		}
		dict, codes, dictOK := BuildDict(vals, maxDistinct)
		if dictOK != (l.DictLen >= 0) && maxDistinct > 0 {
			t.Fatalf("%v: %d values, at most %d distinct: BuildDict ok %v, Layout DICT length %d", k, len(vals), maxDistinct, dictOK, l.DictLen)
		}
		if dv := DictVector("", dict, codes); dictOK && maxDistinct > 0 && len(dict) < len(vals) {
			_, want := ColumnPayload(&dv, nil)
			if l.DictLen != len(want) || !bytes.Equal(s.AppendPayload(nil, &l, BatchEncDict), want) {
				t.Fatalf("%v: DICT payload differs from ColumnPayload's", k)
			}
		}
		runs, runsOK := BuildRuns(vals, maxRuns)
		if runsOK != (l.RunsLen >= 0) {
			t.Fatalf("%v: %d values, at most %d runs: BuildRuns ok %v, Layout RLE length %d", k, len(vals), maxRuns, runsOK, l.RunsLen)
		}
		if rv := RLEVector("", runs); runsOK {
			_, want := ColumnPayload(&rv, nil)
			if l.RunsLen != len(want) || !bytes.Equal(s.AppendPayload(nil, &l, BatchEncRLE), want) {
				t.Fatalf("%v: RLE payload differs from ColumnPayload's", k)
			}
		}
		if lo, hi := s.MinMax(); k.Comparable() && len(vals) > 0 {
			mn, mx := vals[0], vals[0]
			for _, v := range vals[1:] {
				if v.Compare(mn) < 0 {
					mn = v
				}
				if v.Compare(mx) > 0 {
					mx = v
				}
			}
			if !sameEncoding(s.Value(lo), mn) || !sameEncoding(s.Value(hi), mx) {
				t.Fatalf("%v: MinMax %v..%v, Value.Compare %v..%v", k, s.Value(lo), s.Value(hi), mn, mx)
			}
		}
		keep := rng.Intn(len(vals) + 1)
		s.Truncate(keep)
		s.Append(schema.RandomScalar(rng, k))
		if s.Len() != keep+1 || (keep > 0 && !sameEncoding(s.Value(keep-1), vals[keep-1])) {
			t.Fatalf("%v: after Truncate(%d) and one Append, Len %d", k, keep, s.Len())
		}
	}
}

// TestColumnBuilderAppendVector: a column built from vectors of every
// encoding — typed, PLAIN values, DICT and RLE, each through a
// selection — holds their selected rows in order, and stays typed
// exactly while every row added is NULL or of the column's kind.
func TestColumnBuilderAppendVector(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		k := []schema.Kind{schema.KindInt64, schema.KindFloat64, schema.KindString, schema.KindBool, schema.KindJSON}[trial%5]
		var want []schema.Value
		srcs := make([]Vector, 1+rng.Intn(4))
		sels := make([]Selection, len(srcs))
		for i := range srcs {
			kind := k
			if rng.Intn(12) == 0 {
				kind = schema.KindDate
			}
			vals := scalarColumn(rng, kind, rng.Intn(30))
			for j := range vals {
				if rng.Intn(5) == 0 {
					vals[j] = schema.Null()
				}
			}
			switch rng.Intn(4) {
			case 0:
				srcs[i] = PlainVector("", vals)
			case 1:
				dict, codes, _ := BuildDict(vals, len(vals))
				srcs[i] = DictVector("", dict, codes)
			case 2:
				runs, _ := BuildRuns(vals, len(vals))
				srcs[i] = RLEVector("", runs)
			default:
				b := NewColumnBuilder("", len(vals), math.MaxInt32)
				pv := PlainVector("", vals)
				b.AppendVector(&pv, nil)
				srcs[i] = b.Vector()
			}
			if rng.Intn(2) == 0 {
				for j := range vals {
					if rng.Intn(3) > 0 {
						sels[i] = append(sels[i], int32(j))
					}
				}
				if sels[i] == nil {
					sels[i] = Selection{}
				}
			}
			want = srcs[i].AppendValues(want, sels[i])
		}
		b := NewColumnBuilder("c", len(want), math.MaxInt32)
		for i := range srcs {
			b.AppendVector(&srcs[i], sels[i])
		}
		got := b.Vector()
		if got.Len() != len(want) {
			t.Fatalf("trial %d: %d rows built, %d added", trial, got.Len(), len(want))
		}
		kinds := map[schema.Kind]bool{}
		for i, v := range want {
			if !v.IsNull() {
				kinds[v.Kind()] = true
			}
			if g := got.ValueAt(i); !sameEncoding(g, v) {
				t.Fatalf("trial %d: row %d is %v, was %v", trial, i, g, v)
			}
		}
		if got.Typed() != (len(kinds) == 1) {
			t.Fatalf("trial %d: typed %v, with values of %d kinds", trial, got.Typed(), len(kinds))
		}
	}
}

// TestOrderIsValueCompare: Order and PartitionOf on a typed vector —
// NULLs, NaN, -0.0 and extreme values among its rows — agree with
// schema.Value.Compare and schema.PartitionOfValue on its values, row
// pair by row pair.
func TestOrderIsValueCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		k := []schema.Kind{schema.KindInt64, schema.KindFloat64, schema.KindString, schema.KindTimestamp, schema.KindDate, schema.KindBool}[trial%6]
		vals := scalarColumn(rng, k, 1+rng.Intn(25))
		for j := range vals {
			if trial%2 == 0 && rng.Intn(4) == 0 {
				vals[j] = schema.Null()
			}
		}
		b := NewColumnBuilder("", len(vals), math.MaxInt32)
		pv := PlainVector("", vals)
		b.AppendVector(&pv, nil)
		for _, v := range []Vector{b.Vector(), pv} {
			order := v.Order()
			for i := range vals {
				p, ok := v.PartitionOf(i)
				if wp, wok := schema.PartitionOfValue(vals[i]); p != wp || ok != wok {
					t.Fatalf("%v: PartitionOf row %d = %d, %v; PartitionOfValue %d, %v", k, i, p, ok, wp, wok)
				}
				for j := range vals {
					if got, want := order(i, j), vals[i].Compare(vals[j]); got != want {
						t.Fatalf("%v: Order(%v, %v) = %d, Compare %d", k, vals[i], vals[j], got, want)
					}
				}
			}
		}
	}
}
