package bigmeta

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"vortex/internal/bloom"
	"vortex/internal/meta"
	"vortex/internal/rowenc"
	"vortex/internal/schema"
)

func testSchema() *schema.Schema {
	return &schema.Schema{
		Fields: []*schema.Field{
			{Name: "ts", Kind: schema.KindTimestamp, Mode: schema.Required},
			{Name: "customerKey", Kind: schema.KindString, Mode: schema.Required},
			{Name: "v", Kind: schema.KindInt64, Mode: schema.Nullable},
		},
		PartitionField: "ts",
		ClusterBy:      []string{"customerKey"},
	}
}

func mkFragment(id string, partDays []int64, minKey, maxKey string, keys ...string) *meta.FragmentInfo {
	f := &meta.FragmentInfo{
		ID:           meta.FragmentID(id),
		Table:        "d.t",
		PartitionSet: partDays,
	}
	if minKey != "" {
		f.ClusterMin = rowenc.EncodeValues([]schema.Value{schema.String(minKey)})
		f.ClusterMax = rowenc.EncodeValues([]schema.Value{schema.String(maxKey)})
	}
	bf := bloom.New(64, 0.01)
	for _, k := range keys {
		bf.AddString(k)
	}
	f.Bloom = bf.Marshal()
	return f
}

func day(t time.Time) int64 { return t.Unix() / 86400 }

func TestRangePruning(t *testing.T) {
	s := testSchema()
	e, err := EntryFromFragment(mkFragment("f1", nil, "Emma", "Jerry", "Emma", "Frank", "Jerry"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		pred Predicate
		want bool
	}{
		{Predicate{"customerKey", OpEq, schema.String("Frank")}, true},
		{Predicate{"customerKey", OpEq, schema.String("Alice")}, false},   // below range
		{Predicate{"customerKey", OpEq, schema.String("Zachary")}, false}, // above range
		{Predicate{"customerKey", OpLt, schema.String("Emma")}, false},
		{Predicate{"customerKey", OpLe, schema.String("Emma")}, true},
		{Predicate{"customerKey", OpGt, schema.String("Jerry")}, false},
		{Predicate{"customerKey", OpGe, schema.String("Jerry")}, true},
		{Predicate{"customerKey", OpGt, schema.String("Aaron")}, true},
	}
	for _, c := range cases {
		if got := CanMatch(e, s, []Predicate{c.pred}); got != c.want {
			t.Errorf("pred %s %s %s: CanMatch = %v, want %v", c.pred.Column, c.pred.Op, c.pred.Value, got, c.want)
		}
	}
}

func TestBloomPruningWithinRange(t *testing.T) {
	s := testSchema()
	// "Gina" is inside [Emma, Jerry] but was never written: the bloom
	// filter prunes what the range cannot.
	e, _ := EntryFromFragment(mkFragment("f1", nil, "Emma", "Jerry", "Emma", "Jerry"))
	if CanMatch(e, s, []Predicate{{"customerKey", OpEq, schema.String("Gina")}}) {
		t.Fatal("bloom failed to prune an absent in-range key")
	}
	if !CanMatch(e, s, []Predicate{{"customerKey", OpEq, schema.String("Emma")}}) {
		t.Fatal("bloom pruned a present key (false negative!)")
	}
}

func TestPartitionPruning(t *testing.T) {
	s := testSchema()
	oct1 := time.Date(2023, 10, 1, 0, 0, 0, 0, time.UTC)
	oct2 := oct1.AddDate(0, 0, 1)
	oct5 := oct1.AddDate(0, 0, 4)
	e, _ := EntryFromFragment(mkFragment("f1", []int64{day(oct1), day(oct2)}, "", ""))
	cases := []struct {
		pred Predicate
		want bool
	}{
		{Predicate{"ts", OpEq, schema.Timestamp(oct1.Add(5 * time.Hour))}, true},
		{Predicate{"ts", OpEq, schema.Timestamp(oct5)}, false},
		{Predicate{"ts", OpGe, schema.Timestamp(oct5)}, false},
		{Predicate{"ts", OpGe, schema.Timestamp(oct2)}, true},
		{Predicate{"ts", OpLt, schema.Timestamp(oct1)}, true}, // same-day earlier timestamps possible
		{Predicate{"ts", OpLe, schema.Timestamp(oct1.Add(-48 * time.Hour))}, false},
	}
	for i, c := range cases {
		if got := CanMatch(e, s, []Predicate{c.pred}); got != c.want {
			t.Errorf("case %d (%s %v): CanMatch = %v, want %v", i, c.pred.Op, c.pred.Value, got, c.want)
		}
	}
}

func TestNoPropertiesMeansNoPruning(t *testing.T) {
	s := testSchema()
	if !CanMatch(nil, s, []Predicate{{"customerKey", OpEq, schema.String("x")}}) {
		t.Fatal("nil entry must never be pruned")
	}
	e := &Entry{Table: "d.t", Fragment: "f"}
	if !CanMatch(e, s, []Predicate{{"customerKey", OpEq, schema.String("x")}}) {
		t.Fatal("property-less entry must never be pruned")
	}
}

// TestPruningSoundnessProperty: a fragment built from a set of rows must
// never be pruned by a predicate that at least one row satisfies.
func TestPruningSoundnessProperty(t *testing.T) {
	s := testSchema()
	f := func(seed int64, opRaw uint8, probeIdx uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 1
		keys := make([]string, n)
		bf := bloom.New(64, 0.01)
		min, max := "", ""
		for i := range keys {
			keys[i] = fmt.Sprintf("cust-%c%c", 'A'+rng.Intn(26), 'a'+rng.Intn(26))
			bf.AddString(keys[i])
			if min == "" || keys[i] < min {
				min = keys[i]
			}
			if keys[i] > max {
				max = keys[i]
			}
		}
		frag := &meta.FragmentInfo{
			ID:         "f",
			Table:      "d.t",
			ClusterMin: rowenc.EncodeValues([]schema.Value{schema.String(min)}),
			ClusterMax: rowenc.EncodeValues([]schema.Value{schema.String(max)}),
			Bloom:      bf.Marshal(),
		}
		e, err := EntryFromFragment(frag)
		if err != nil {
			return false
		}
		probe := keys[int(probeIdx)%n]
		op := Op(opRaw % 5)
		pred := Predicate{Column: "customerKey", Op: op, Value: schema.String(probe)}
		// probe itself satisfies Eq/Le/Ge; for Lt/Gt check satisfiability
		// against the actual key set.
		satisfiable := false
		for _, k := range keys {
			switch op {
			case OpEq:
				satisfiable = satisfiable || k == probe
			case OpLt:
				satisfiable = satisfiable || k < probe
			case OpLe:
				satisfiable = satisfiable || k <= probe
			case OpGt:
				satisfiable = satisfiable || k > probe
			case OpGe:
				satisfiable = satisfiable || k >= probe
			}
		}
		if !satisfiable {
			return true // pruning either way is acceptable
		}
		return CanMatch(e, s, []Predicate{pred})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexLagAndPrune(t *testing.T) {
	s := testSchema()
	ix := NewIndex()
	ix.SetLagDepth(2)
	frag := mkFragment("d.t/f1", nil, "Emma", "Jerry", "Emma")
	ix.FragmentsChanged("d.t", []meta.FragmentInfo{*frag}, nil)
	if ix.Lookup("d.t", "d.t/f1") != nil {
		t.Fatal("entry indexed before lag expired")
	}
	if ix.TailCount() != 1 {
		t.Fatalf("tail = %d", ix.TailCount())
	}
	// While in the tail, pruning still works via inline properties.
	if ix.Matches("d.t", frag, s, []Predicate{{"customerKey", OpEq, schema.String("Zed")}}) {
		t.Fatal("tail fragment not pruned via inline properties")
	}
	ix.Apply()
	ix.Apply()
	if ix.Lookup("d.t", "d.t/f1") == nil {
		t.Fatal("entry not indexed after lag")
	}
	if !ix.Matches("d.t", frag, s, []Predicate{{"customerKey", OpEq, schema.String("Emma")}}) {
		t.Fatal("indexed fragment wrongly pruned")
	}
	// The index entry, not the fragment's inline properties, decides once
	// indexed.
	bare := &meta.FragmentInfo{ID: frag.ID, Table: frag.Table}
	if ix.Matches("d.t", bare, s, []Predicate{{"customerKey", OpEq, schema.String("Zed")}}) {
		t.Fatal("indexed entry not consulted")
	}
	// Deletion removes the entry.
	ix.SetLagDepth(0)
	ix.FragmentsChanged("d.t", nil, []meta.FragmentID{"d.t/f1"})
	if ix.Lookup("d.t", "d.t/f1") != nil {
		t.Fatal("deleted entry still indexed")
	}
}

func TestEntryFromFragmentRejectsGarbageGracefully(t *testing.T) {
	f := &meta.FragmentInfo{ID: "f", Table: "d.t", ClusterMin: []byte{0xff, 0xff}, ClusterMax: []byte{0xff}}
	if _, err := EntryFromFragment(f); err == nil {
		t.Fatal("garbage cluster bounds accepted")
	}
	ix := NewIndex()
	// The index degrades to unprunable rather than failing.
	ix.FragmentsChanged("d.t", []meta.FragmentInfo{*f}, nil)
	e := ix.Lookup("d.t", "f")
	if e == nil {
		t.Fatal("fragment with bad props not indexed at all")
	}
	if !CanMatch(e, testSchema(), []Predicate{{"customerKey", OpEq, schema.String("x")}}) {
		t.Fatal("unprunable entry was pruned")
	}
}
