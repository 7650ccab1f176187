package ros

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"testing"
	"time"

	"vortex/internal/schema"
	"vortex/internal/wire"
	"vortex/internal/workload"
)

// TestGoldenFormats pins both column formats byte for byte. For fixed
// workload rows it digests the ROS file (VXR1), the EncodeVectors frame
// over the file's vectors — whole and under a selection — the
// EncodeRecordBatch re-encoding of that frame's decode, and a selected
// frame over the clustering column as hand-built runs (VXRB). A change
// that moves any of them has changed what is on disk or on the wire,
// not just how it is produced.
//
// The file digests are those of VXR1 version 2. Every VXRB digest is the
// one taken before ROS value pages and record-batch columns got their
// one codec, with one exception that version 2 makes on purpose: a
// clustered file now stores its clustering column as the run-length page
// it is, Vectors hands that page on as it is stored, and so the two
// frames over sales-sorted carry customerKey as RLE where they carried
// the file's dictionary. The frame format did not move — the whole frame
// is now byte for byte the re-encoded batch next to it, which is what
// EncodeRecordBatch has always chosen for these rows.
func TestGoldenFormats(t *testing.T) {
	at := time.Date(2023, 10, 1, 0, 0, 0, 0, time.UTC)
	cases := []struct {
		name   string
		schema *schema.Schema
		rows   []schema.Row
		want   [5]string // ros file, vectors frame, selected frame, re-encoded batch, selected run-length frame
	}{
		{"sales", workload.SalesSchema(), workload.NewGen(1, 1000).SalesRows(0, 2000), [5]string{
			"a28758da1be13ce3321be5bad1dfaeb0d169ab862e2fc8fca10dd419f644be04",
			"c486cb45c38d3307e5625145fd7f838d266bdb1cf9190bf00e20585583b84914",
			"9e654650338b30de5ee538b314881bb3f3f8f72f7cce16a31e06a16b714f5a14",
			"c486cb45c38d3307e5625145fd7f838d266bdb1cf9190bf00e20585583b84914",
			"bc7ceaa91ddbb9f33a955ba47754288d049388d6f84c3af8b8e9b8f4abc0f927",
		}},
		{"sales-repetitive", workload.SalesSchema(), workload.NewGen(2, 8).SalesRows(0, 2000), [5]string{
			"c27a0b7de6895ec3b175b859d67ff07e2a58888b9d75ec3487a4f497672bee93",
			"9597c846f5ac24c3b6e5c444f3bdc93052b8b2a5d50c5c994ced6dbb66da285f",
			"4c01cfc11f113b496f442b9a12fdaa6102119b26aeafa413345ad49d2caeb979",
			"9597c846f5ac24c3b6e5c444f3bdc93052b8b2a5d50c5c994ced6dbb66da285f",
			"21bc37c3abb103dbc758cb85761ac63bba6940f8fd4a76fc089dc84d9d2107dc",
		}},
		{"sales-sorted", workload.SalesSchema(), sortedByCluster(workload.SalesSchema(), workload.NewGen(2, 8).SalesRows(0, 2000)), [5]string{
			"188bef0d596889c3d5900700f907b52468657e1727915c3ccae5a44c5f8acfc8",
			"60cedf0b7e7468640e5951e0d30f60d1192edbc5fbcb731b3df9c6aa7077655d",
			"fff37c822899012a5ea90dc423b75b8e4a9805df60e9f96c2b713110ef8398f6",
			"60cedf0b7e7468640e5951e0d30f60d1192edbc5fbcb731b3df9c6aa7077655d",
			"93cf1c9313f05d052a4dd7ba2b084f2e24b5c89f304fee862b5e9b48349cd23f",
		}},
		{"events", workload.EventsSchema(), workload.NewGen(3, 50).EventRows(at, 2000, time.Second), [5]string{
			"91f993e9f4f1f87b9993acaed5f5e79ba9bec59f3f2da72f8256b0050b13b86f",
			"0aa34545415fa11b823d85b0ce780fd46166585016c8d0e54a134bcbb1626c81",
			"ac4e01789c5f0bc2f543c53982b5ce003546d1d90230d31d667d56b30db2fbe6",
			"0aa34545415fa11b823d85b0ce780fd46166585016c8d0e54a134bcbb1626c81",
			"0b945c967d1994eafbf5ab57089ad973218614a232f7714107ea64b5e7fe7c44",
		}},
		{"log", workload.LogSchema(), workload.NewGen(4, 20).LogRows(2000), [5]string{
			"77881ddbd96ab75bab16593bcac3f1e0be770dea5ba36270ac8bc249d907d0c2",
			"fff49e3b428a1b6fa80f6bbaf160aeade1806348917d597621c8ac4d5a2496e6",
			"2a10b153079c309d0b49c1082e8d6ca587e455cd3e73b68fd6f2c0692af343ef",
			"fff49e3b428a1b6fa80f6bbaf160aeade1806348917d597621c8ac4d5a2496e6",
			"efa99dadb3ef588c6a8876dfc5fbf89e3864a0bff5f21ded5bb73faed4f42041",
		}},
	}
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	for _, tc := range cases {
		w := NewWriter(tc.schema)
		for i, r := range tc.rows {
			if err := w.Add(r, int64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		file, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		rd, err := Open(file)
		if err != nil {
			t.Fatal(err)
		}
		vecs, _, _, err := rd.Vectors(tc.schema, nil)
		if err != nil {
			t.Fatal(err)
		}
		frame := wire.EncodeVectors(vecs, nil)
		var sel wire.Selection
		for i := 0; i < len(tc.rows); i += 3 {
			sel = append(sel, int32(i))
		}
		rb, _, err := wire.DecodeRecordBatch(frame)
		if err != nil {
			t.Fatal(err)
		}
		ci := tc.schema.FieldIndex(tc.schema.ClusterBy[0])
		var runs []wire.Run
		for _, r := range tc.rows {
			if v := r.Values[ci]; len(runs) > 0 && runs[len(runs)-1].Value.Equal(v) {
				runs[len(runs)-1].Len++
			} else {
				runs = append(runs, wire.Run{Len: 1, Value: v})
			}
		}
		got := [5]string{
			digest(file),
			digest(frame),
			digest(wire.EncodeVectors(vecs, sel)),
			digest(wire.EncodeRecordBatch(rb)),
			digest(wire.EncodeVectors([]wire.Vector{wire.RLEVector("k", runs)}, sel)),
		}
		for i, what := range []string{"ros file", "vectors frame", "selected vectors frame", "re-encoded batch", "selected run-length frame"} {
			if got[i] != tc.want[i] {
				t.Errorf("%s: %s digest = %s, want %s", tc.name, what, got[i], tc.want[i])
			}
		}
	}
}

// sortedByCluster orders rows by their first clustering column, so that
// column has long runs: the shape for which the Writer and
// EncodeRecordBatch both choose run-length.
func sortedByCluster(s *schema.Schema, rows []schema.Row) []schema.Row {
	ci := s.FieldIndex(s.ClusterBy[0])
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Values[ci].Compare(rows[j].Values[ci]) < 0 })
	return rows
}
