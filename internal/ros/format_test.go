package ros

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"time"

	"vortex/internal/rowenc"
	"vortex/internal/schema"
	"vortex/internal/workload"
)

// clusteredSales is the 4 096-row file the optimizer writes for one day
// of the benchmark's Sales table — 300 customers, rows sorted by
// customerKey, TrueTime-sized sequence numbers from 16-row appends —
// and, cut to its first 512 rows, the small file of the pressure
// workload: a narrow slice of the key range, three dozen customers.
func clusteredSales(n int) ([]schema.Row, []int64) {
	s := workload.SalesSchema()
	rows := workload.NewGen(7, 300).SalesRows(0, 4096)
	order := make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	ci := s.FieldIndex("customerKey")
	sort.SliceStable(order, func(a, b int) bool { return rows[order[a]].Values[ci].Compare(rows[order[b]].Values[ci]) < 0 })
	outRows, seqs := make([]schema.Row, n), make([]int64, n)
	for k, i := range order[:n] {
		outRows[k] = rows[i]
		seqs[k] = 1696118400_000_000_000 + int64(i/16)*1_300_000 + int64(i%16)
	}
	return outRows, seqs
}

func finish(t testing.TB, s *schema.Schema, rows []schema.Row, seqs []int64) (*Writer, []byte) {
	t.Helper()
	w := NewWriter(s)
	w.AllowMixedPartitions()
	for i, r := range rows {
		if err := w.Add(r, seqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return w, data
}

// TestSizeBudget pins what version 2 is for: the read-optimized file of
// clustered Sales rows is about half the row encoding of the same rows,
// at 4 096 rows and at 512, and its filter is sized for the keys it
// holds. The budgets are the measured sizes (50.5 and 42.8 B/row)
// plus a few percent; a change that spends more than that per row has
// to say why here.
func TestSizeBudget(t *testing.T) {
	s := workload.SalesSchema()
	for _, tc := range []struct {
		rows              int
		maxBytesPerRow    float64
		maxFilter         int
		maxOfRowEncodings float64
	}{
		{512, 56, 128, 0.50},
		{4096, 45, 512, 0.40},
	} {
		rows, seqs := clusteredSales(tc.rows)
		w, data := finish(t, s, rows, seqs)
		var user int
		for _, r := range rows {
			user += len(rowenc.AppendRow(nil, r))
		}
		perRow := float64(len(data)) / float64(tc.rows)
		t.Logf("%d rows: %d bytes = %.1f B/row, %.2f of the row encoding (%.1f B/row); filter %d bytes",
			tc.rows, len(data), perRow, float64(len(data))/float64(user), float64(user)/float64(tc.rows), len(w.Bloom()))
		if perRow > tc.maxBytesPerRow {
			t.Errorf("%d rows: %.1f B/row, budget %.1f", tc.rows, perRow, tc.maxBytesPerRow)
		}
		if got := float64(len(data)) / float64(user); got > tc.maxOfRowEncodings {
			t.Errorf("%d rows: file is %.2f of the row encoding, budget %.2f", tc.rows, got, tc.maxOfRowEncodings)
		}
		if len(w.Bloom()) > tc.maxFilter {
			t.Errorf("%d rows: filter is %d bytes, budget %d", tc.rows, len(w.Bloom()), tc.maxFilter)
		}
	}
}

// TestRoundTripProperty: for nested Sales, flat Events and Log rows —
// in arrival order and sorted by clustering key, at row counts around
// the policy thresholds, with every change type and sequence numbers in
// any order — Open(Finish(rows)) gives back the rows: through Rows, the
// Dremel assembler and parity oracle, and through Vectors gathered row
// by row, the path scans take. Between them the cases write every page
// encoding, both level modes and compressed and uncompressed pages.
func TestRoundTripProperty(t *testing.T) {
	at := time.Date(2023, 10, 1, 0, 0, 0, 0, time.UTC)
	gens := []struct {
		name   string
		schema *schema.Schema
		rows   func(seed int64, n int) []schema.Row
	}{
		{"sales", workload.SalesSchema(), func(seed int64, n int) []schema.Row { return workload.NewGen(seed, 40).SalesRows(0, n) }},
		{"events", workload.EventsSchema(), func(seed int64, n int) []schema.Row {
			return workload.NewGen(seed, 50).EventRows(at, n, time.Second)
		}},
		{"log", workload.LogSchema(), func(seed int64, n int) []schema.Row { return workload.NewGen(seed, 20).LogRows(n) }},
	}
	changes := []schema.ChangeType{schema.ChangeInsert, schema.ChangeUpsert, schema.ChangeDelete}
	encodings := map[Encoding]bool{}
	var compressed, packed, runs bool
	for _, g := range gens {
		// UPSERT and DELETE rows need a key: the second field of each
		// schema, a required string.
		keyed := *g.schema
		keyed.PrimaryKey = []string{keyed.Fields[1].Name}
		g.schema = &keyed
		for seed, n := range []int{0, 1, 7, 8, 9, 100, 1000} {
			for _, sorted := range []bool{false, true} {
				rng := rand.New(rand.NewSource(int64(seed)))
				rows := g.rows(int64(seed+1), n)
				if sorted {
					rows = sortedByCluster(g.schema, rows)
				}
				seqs := make([]int64, n)
				for i := range rows {
					seqs[i] = rng.Int63n(1<<40) - 1<<20
					if n > 8 && i%5 == 0 {
						rows[i] = rows[i].WithChange(changes[rng.Intn(len(changes))])
					}
				}
				_, data := finish(t, g.schema, rows, seqs)
				rd, err := Open(data)
				if err != nil {
					t.Fatalf("%s n=%d sorted=%v: Open: %v", g.name, n, sorted, err)
				}
				got, err := rd.Rows(g.schema)
				if err != nil || len(got) != n {
					t.Fatalf("%s n=%d sorted=%v: Rows: %d rows, %v", g.name, n, sorted, len(got), err)
				}
				vecs, idxs, _, err := rd.Vectors(g.schema, nil)
				if err != nil || len(vecs) != len(g.schema.Fields) {
					t.Fatalf("%s n=%d sorted=%v: Vectors: %d columns, %v", g.name, n, sorted, len(vecs), err)
				}
				for i, want := range rows {
					if !rowsEqual(got[i].Row, want) || got[i].Row.Change != want.Change || got[i].Seq != seqs[i] {
						t.Fatalf("%s n=%d sorted=%v row %d: Rows gave %v (change %v, seq %d), want %v (change %v, seq %d)",
							g.name, n, sorted, i, got[i].Row.Values, got[i].Row.Change, got[i].Seq, want.Values, want.Change, seqs[i])
					}
					if rd.Seqs()[i] != seqs[i] || schema.ChangeType(rd.Changes()[i]) != want.Change {
						t.Fatalf("%s n=%d sorted=%v row %d: Seqs/Changes gave %d/%d", g.name, n, sorted, i, rd.Seqs()[i], rd.Changes()[i])
					}
					for k := range vecs {
						if v := vecs[k].ValueAt(i); !v.Equal(want.Values[idxs[k]]) {
							t.Fatalf("%s n=%d sorted=%v row %d field %q: vector gave %v, want %v", g.name, n, sorted, i, vecs[k].Name, v, want.Values[idxs[k]])
						}
					}
				}
				for _, c := range rd.columns {
					encodings[c.Stats.Encoding] = true
					compressed = compressed || c.compressed
					for _, levels := range [][]byte{c.rawReps, c.rawDefs} {
						packed = packed || levels[0] == levelsPacked
						runs = runs || levels[0] == levelsRuns
					}
				}
			}
		}
	}
	if !encodings[EncodingPlain] || !encodings[EncodingDict] || !encodings[EncodingRLE] || !compressed || !packed || !runs {
		t.Fatalf("cases did not cover the format: encodings %v, compressed %v, packed levels %v, run-length levels %v", encodings, compressed, packed, runs)
	}
}

// TestOpenRefusesVersion1: the version-1 reader is gone, not kept beside
// version 2; a version-1 image (here: a version-2 one relabelled) is
// refused on its version byte.
func TestOpenRefusesVersion1(t *testing.T) {
	_, data := finish(t, flatSchema(), flatRows(4), []int64{1, 2, 3, 4})
	data[4] = 1
	if _, err := Open(seal(data)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open of a version-1 file = %v, want ErrCorrupt", err)
	}
}
