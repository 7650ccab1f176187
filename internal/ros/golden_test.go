package ros

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"testing"
	"time"

	"vortex/internal/blockenc"
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
// Each file is written twice, row by row through Add and from typed
// columns through AddColumns, and both must be the file the digest
// names: the typed stripe and page build write the bytes the value
// walk does.
//
// The file digests are those of VXR1 version 2: a ROS value page is
// PLAIN, DICT or RLE, never TYPED. A clustered file stores its
// clustering column as the run-length page it is, and Vectors hands
// that page on as it is stored.
//
// VXRB is at version 2, which added the TYPED column encoding: a frame
// written from vectors carries each typed vector (every flat scalar
// column the file types) as TYPED, so the two vectors-frame digests are
// version 2's. The re-encoded batch and the run-length frame carry no
// typed vector: but for the version byte and the CRC over it, they are
// the bytes version 1 wrote, and the test holds them, restamped at
// version 1, to version 1's digests, so a PLAIN, DICT or RLE column
// that moves fails here.
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
			"d8ef8b741587591ef40d9cc222a06b4ea372247c870f6641905eb5026a89bd49",
			"05a0ce1c35b0a92b08580d4083dd566b8cba1630ae564b0c3ba76e55e2ff9c41",
			"c486cb45c38d3307e5625145fd7f838d266bdb1cf9190bf00e20585583b84914",
			"bc7ceaa91ddbb9f33a955ba47754288d049388d6f84c3af8b8e9b8f4abc0f927",
		}},
		{"sales-repetitive", workload.SalesSchema(), workload.NewGen(2, 8).SalesRows(0, 2000), [5]string{
			"c27a0b7de6895ec3b175b859d67ff07e2a58888b9d75ec3487a4f497672bee93",
			"326aa87d607f9dd958197edde1e0a168af04c7a5893a1dec67146237ca938cd5",
			"b67af9f860a6da51b3b5e8ac2aa3617ba8f9f02e975338674d01f4596539d026",
			"9597c846f5ac24c3b6e5c444f3bdc93052b8b2a5d50c5c994ced6dbb66da285f",
			"21bc37c3abb103dbc758cb85761ac63bba6940f8fd4a76fc089dc84d9d2107dc",
		}},
		{"sales-sorted", workload.SalesSchema(), sortedByCluster(workload.SalesSchema(), workload.NewGen(2, 8).SalesRows(0, 2000)), [5]string{
			"188bef0d596889c3d5900700f907b52468657e1727915c3ccae5a44c5f8acfc8",
			"f74a52e0f742d7ecde37665af52ac81985b79dd23c2f81f12e13767a48c95bac",
			"f3ff181b69e08ec0d271206b7d84c8cb90c9ad34b884918fbb3313e81439cf44",
			"60cedf0b7e7468640e5951e0d30f60d1192edbc5fbcb731b3df9c6aa7077655d",
			"93cf1c9313f05d052a4dd7ba2b084f2e24b5c89f304fee862b5e9b48349cd23f",
		}},
		{"events", workload.EventsSchema(), workload.NewGen(3, 50).EventRows(at, 2000, time.Second), [5]string{
			"91f993e9f4f1f87b9993acaed5f5e79ba9bec59f3f2da72f8256b0050b13b86f",
			"1145b91db51e9569d1b7ebb33494af4226835a8f99bc930cecfa0c20c5fe3d4c",
			"d239457a8544278cdc8bd9c8e322b3e4e67d25a381a43fec615d031ae08e8375",
			"0aa34545415fa11b823d85b0ce780fd46166585016c8d0e54a134bcbb1626c81",
			"0b945c967d1994eafbf5ab57089ad973218614a232f7714107ea64b5e7fe7c44",
		}},
		{"log", workload.LogSchema(), workload.NewGen(4, 20).LogRows(2000), [5]string{
			"77881ddbd96ab75bab16593bcac3f1e0be770dea5ba36270ac8bc249d907d0c2",
			"696f91be2e361974a627ee6f63f8b7562a51358d32350514b6f46e94be30613b",
			"103fd236fdb3bb3734c9d8b97b5caa6444c87f416558c0b39ef02540bb7ce1a9",
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
		cols, _, changes := columnsOf(tc.schema, tc.rows)
		seqs := make([]int64, len(tc.rows))
		for i := range seqs {
			seqs[i] = int64(i + 1)
		}
		typed := NewWriter(tc.schema)
		if err := typed.AddColumns(cols, seqs, changes, wire.SelectAll(len(tc.rows))); err != nil {
			t.Fatal(err)
		}
		fromColumns, err := typed.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(fromColumns); got != tc.want[0] {
			t.Errorf("%s: ros file from typed columns digest = %s, want %s", tc.name, got, tc.want[0])
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
		selected := wire.EncodeVectors(vecs, sel)
		rebatched := wire.EncodeRecordBatch(rb)
		runFrame := wire.EncodeVectors([]wire.Vector{wire.RLEVector("k", runs)}, sel)
		for _, f := range [][]byte{frame, selected, rebatched, runFrame} {
			if f[4] != 2 {
				t.Fatalf("%s: frame version %d, want 2", tc.name, f[4])
			}
		}
		got := [5]string{
			digest(file),
			digest(frame),
			digest(selected),
			digest(asVersion1(rebatched)),
			digest(asVersion1(runFrame)),
		}
		for i, what := range []string{"ros file", "vectors frame", "selected vectors frame", "re-encoded batch", "selected run-length frame"} {
			if got[i] != tc.want[i] {
				t.Errorf("%s: %s digest = %s, want %s", tc.name, what, got[i], tc.want[i])
			}
		}
	}
}

// TestGoldenWOSBlock pins the WOS block format (wire.AppendBlock) byte
// for byte, as TestGoldenFormats pins VXR1 and VXRB: the digest of the
// payload of one 16-row Events append in which two rows were written
// before the schema's last fields existed and rows carry every change
// type. A digest that moves means the bytes in WOS fragments changed,
// which a reader of existing files would misread unless the fragment
// header's version moved with it.
func TestGoldenWOSBlock(t *testing.T) {
	at := time.Date(2023, 10, 1, 0, 0, 0, 0, time.UTC)
	rows := workload.NewGen(3, 50).EventRows(at, 16, time.Second)
	rows[2].Values = rows[2].Values[:3]
	rows[7].Values = rows[7].Values[:1]
	rows[5].Change = schema.ChangeUpsert
	rows[9].Change = schema.ChangeDelete
	sum := sha256.Sum256(wire.AppendBlock(nil, rows))
	if got, want := hex.EncodeToString(sum[:]), "9ec646b2891c5586eb3d0ffdb04fd15c5f1b684262364a54eab4a0eea0343591"; got != want {
		t.Errorf("WOS block digest = %s, want %s", got, want)
	}
}

// asVersion1 is a frame restamped at version 1: its version byte set
// back and its CRC taken again.
func asVersion1(frame []byte) []byte {
	v1 := append([]byte(nil), frame[:len(frame)-4]...)
	v1[4] = 1
	return binary.LittleEndian.AppendUint32(v1, blockenc.Checksum(v1))
}

// sortedByCluster orders rows by their first clustering column, so that
// column has long runs: the shape for which the Writer and
// EncodeRecordBatch both choose run-length.
func sortedByCluster(s *schema.Schema, rows []schema.Row) []schema.Row {
	ci := s.FieldIndex(s.ClusterBy[0])
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Values[ci].Compare(rows[j].Values[ci]) < 0 })
	return rows
}
