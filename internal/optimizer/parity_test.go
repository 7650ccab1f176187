package optimizer_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"vortex/internal/client"
	"vortex/internal/dml"
	"vortex/internal/meta"
	"vortex/internal/ros"
	"vortex/internal/rowenc"
	"vortex/internal/schema"
	"vortex/internal/wire"
	"vortex/internal/workload"
)

// The oracle: conversion as the optimizer did it before it consumed
// columns — every visible row materialized, superseded versions dropped
// by dml.ResolveChanges, each partition sorted by sort.SliceStable with
// ClusterKeyOf per comparison, one Writer.Add per row. The column
// pipeline must write, byte for byte, the files this writes.

func oracleClustered(t *testing.T, sc *schema.Schema, rows []rowenc.Stamped, target int) [][]byte {
	t.Helper()
	rows = dml.ResolveChanges(sc, rows, false)
	groups := map[int64][]rowenc.Stamped{}
	for _, r := range rows {
		p, ok := sc.PartitionOf(r.Row)
		if !ok {
			p = -1 << 62
		}
		groups[p] = append(groups[p], r)
	}
	var files [][]byte
	for _, g := range groups {
		sort.SliceStable(g, func(i, j int) bool {
			if c := schema.CompareClusterKeys(sc.ClusterKeyOf(g[i].Row), sc.ClusterKeyOf(g[j].Row)); c != 0 {
				return c < 0
			}
			return g[i].Seq < g[j].Seq
		})
		for start := 0; start < len(g); {
			end := min(start+target, len(g))
			for end < len(g) && schema.CompareClusterKeys(sc.ClusterKeyOf(g[end].Row), sc.ClusterKeyOf(g[end-1].Row)) == 0 {
				end++
			}
			files = append(files, oracleFile(t, sc, g[start:end]))
			start = end
		}
	}
	return files
}

func oracleFile(t *testing.T, sc *schema.Schema, rows []rowenc.Stamped) []byte {
	t.Helper()
	w := ros.NewWriter(sc)
	w.AllowMixedPartitions()
	for _, r := range rows {
		if err := w.Add(r.Row, r.Seq); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// candidates is what the optimizer asks the SMS for.
func (e *env) candidates(t *testing.T, table meta.TableID) []wire.ReadFragment {
	t.Helper()
	addr, _ := e.r.Router().SMSFor(table)
	resp, err := e.r.Net.Unary(e.ctx, addr, wire.MethodConversionCandidates, &wire.ConversionCandidatesRequest{Table: table})
	if err != nil {
		t.Fatal(err)
	}
	return resp.(*wire.ConversionCandidatesResponse).Fragments
}

// scanRows reads a candidate the row-at-a-time way, masked or not.
func (e *env) scanRows(t *testing.T, table meta.TableID, rf wire.ReadFragment, masked bool) []rowenc.Stamped {
	t.Helper()
	sc, err := e.c.GetSchema(e.ctx, table)
	if err != nil {
		t.Fatal(err)
	}
	a := client.Assignment{Frag: rf.Info, Vis: rf.Vis, StreamStart: rf.StreamStart}
	if masked {
		a.Mask = rf.Mask
	}
	rows, err := e.c.Scan(e.ctx, &client.ScanPlan{Table: table, SnapshotTS: e.r.Clock.Now().Latest, Schema: sc}, a)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// rosFiles returns the table's ROS files, checking that every cluster
// that holds one holds the same bytes.
func (e *env) rosFiles(t *testing.T, table meta.TableID) [][]byte {
	t.Helper()
	byPath := map[string][]byte{}
	for _, name := range e.r.Colossus.ClusterNames() {
		cl := e.r.Colossus.Cluster(name)
		paths, err := cl.List("ros/" + string(table) + "/")
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			size, err := cl.Size(p)
			if err != nil {
				t.Fatal(err)
			}
			data, err := cl.Read(p, 0, size)
			if err != nil {
				t.Fatal(err)
			}
			if prev, ok := byPath[p]; ok && !bytes.Equal(prev, data) {
				t.Fatalf("replicas of %s differ", p)
			}
			byPath[p] = data
		}
	}
	files := make([][]byte, 0, len(byPath))
	for _, data := range byPath {
		files = append(files, data)
	}
	return files
}

func sameFiles(t *testing.T, got, want [][]byte) {
	t.Helper()
	slices.SortFunc(got, bytes.Compare)
	slices.SortFunc(want, bytes.Compare)
	if len(got) != len(want) {
		t.Fatalf("%d files written, the row loop writes %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("file %d of %d (%d bytes) is not the row loop's (%d bytes)", i, len(got), len(got[i]), len(want[i]))
		}
	}
}

var parityDay0 = time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)

// parityTable is one seeded table of the byte-parity tests: build loads
// and seals it, leaving WOS candidates.
type parityTable struct {
	name  string
	sc    *schema.Schema
	build func(t *testing.T, e *env, table meta.TableID)
}

func parityTables() []parityTable {
	flat := &schema.Schema{
		Fields: []*schema.Field{
			{Name: "ts", Kind: schema.KindTimestamp, Mode: schema.Required},
			{Name: "device", Kind: schema.KindString, Mode: schema.Required},
			{Name: "reading", Kind: schema.KindFloat64, Mode: schema.Nullable},
		},
		PartitionField: "ts",
		ClusterBy:      []string{"device", "reading"},
	}
	flatRows := func(rng *rand.Rand, n int) []schema.Row {
		rows := make([]schema.Row, n)
		for i := range rows {
			reading := schema.Null()
			if rng.Intn(5) > 0 {
				reading = schema.Float64(float64(rng.Intn(40)) / 4)
			}
			rows[i] = schema.NewRow(
				schema.Timestamp(parityDay0.Add(time.Duration(rng.Intn(3*86400))*time.Second)),
				schema.String(fmt.Sprintf("dev-%02d", rng.Intn(17))),
				reading,
			)
		}
		return rows
	}
	loose := &schema.Schema{
		Fields: []*schema.Field{
			{Name: "ts", Kind: schema.KindTimestamp, Mode: schema.Nullable},
			{Name: "k", Kind: schema.KindString, Mode: schema.Required},
			{Name: "tags", Kind: schema.KindString, Mode: schema.Repeated},
			{Name: "opt", Kind: schema.KindStruct, Mode: schema.Nullable, Fields: []*schema.Field{
				{Name: "a", Kind: schema.KindInt64, Mode: schema.Nullable},
				{Name: "b", Kind: schema.KindInt64, Mode: schema.Repeated},
			}},
		},
		PartitionField: "ts",
		ClusterBy:      []string{"k"},
	}
	// looseRows: NULL structs, empty and NULL lists, and — where noPart —
	// rows whose partition column is NULL.
	looseRows := func(rng *rand.Rand, n int, noPart bool) []schema.Row {
		rows := make([]schema.Row, n)
		for i := range rows {
			r := schema.RandomRow(rng, loose)
			r.Values[0] = schema.Timestamp(parityDay0.Add(time.Duration(rng.Intn(2*86400)) * time.Second))
			if noPart && rng.Intn(3) == 0 {
				r.Values[0] = schema.Null()
			}
			r.Values[1] = schema.String(fmt.Sprintf("k-%02d", rng.Intn(23)))
			rows[i] = r
		}
		return rows
	}
	twoStreams := func(rows []schema.Row) func(*testing.T, *env, meta.TableID) {
		return func(t *testing.T, e *env, table meta.TableID) {
			e.ingestAndSeal(t, table, rows[:len(rows)/2])
			e.ingestAndSeal(t, table, rows[len(rows)/2:])
		}
	}
	gen := workload.NewGen(11, 40)
	var sales []schema.Row
	for day := 0; day < 3; day++ {
		sales = append(sales, gen.SalesRows(day, 150)...)
	}
	rng := rand.New(rand.NewSource(23))
	return []parityTable{
		{"flat", flat, twoStreams(flatRows(rng, 500))},
		{"nested", workload.SalesSchema(), twoStreams(sales)},
		{"nullable and empty repeated", loose, twoStreams(looseRows(rng, 400, false))},
		{"rows without a partition", loose, twoStreams(looseRows(rng, 400, true))},
		{"primary key with upserts and tombstones", ordersSchema(), twoStreams(churnedOrders(400))},
		{"evolved schema", flat, func(t *testing.T, e *env, table meta.TableID) {
			e.ingestAndSeal(t, table, flatRows(rng, 200))
			if _, err := e.c.UpdateSchema(e.ctx, table, &schema.Field{Name: "note", Kind: schema.KindString, Mode: schema.Nullable}); err != nil {
				t.Fatal(err)
			}
			wide := flatRows(rng, 200)
			for i := range wide {
				wide[i].Values = append(wide[i].Values, schema.String(fmt.Sprintf("note %d", i%9)))
			}
			e.ingestAndSeal(t, table, wide)
		}},
		{"deletion masks", ordersSchema(), func(t *testing.T, e *env, table meta.TableID) {
			twoStreams(churnedOrders(300))(t, e, table)
			masks := map[meta.FragmentID]*dml.Mask{}
			for i, rf := range e.candidates(t, table) {
				if i%2 == 0 && rf.Info.RowCount > 3 {
					m := &dml.Mask{}
					m.Add(1, rf.Info.RowCount-1)
					masks[rf.Info.ID] = m
				}
			}
			if len(masks) == 0 {
				t.Fatal("no fragment to mask")
			}
			addr, _ := e.r.Router().SMSFor(table)
			if _, err := e.r.Net.Unary(e.ctx, addr, wire.MethodCommitDML, &wire.CommitDMLRequest{Table: table, FragmentMasks: masks}); err != nil {
				t.Fatal(err)
			}
		}},
	}
}

// TestColumnPipelineWritesTheRowLoopsFiles: for each seeded table, what
// ConvertTable and ConvertTableStable leave in Colossus equals, byte for
// byte, what the oracle writes from the same candidates — on a worker
// pool of one and of four.
func TestColumnPipelineWritesTheRowLoopsFiles(t *testing.T) {
	for _, pt := range parityTables() {
		t.Run(pt.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			for _, run := range []struct {
				procs  int
				stable bool
			}{{1, false}, {4, false}, {1, true}, {4, true}} {
				stable := run.stable
				runtime.GOMAXPROCS(run.procs)
				e := newEnv(t, 4096) // many small fragments: many candidates
				table := meta.TableID("d.parity")
				if err := e.c.CreateTable(e.ctx, table, pt.sc); err != nil {
					t.Fatal(err)
				}
				pt.build(t, e, table)
				cands := e.candidates(t, table)
				if len(cands) < 4 {
					t.Fatalf("only %d candidates", len(cands))
				}
				sc, err := e.c.GetSchema(e.ctx, table)
				if err != nil {
					t.Fatal(err)
				}
				var want [][]byte
				var all []rowenc.Stamped
				for _, rf := range cands {
					rows := e.scanRows(t, table, rf, !stable)
					all = append(all, rows...)
					if stable {
						want = append(want, oracleFile(t, sc, rows))
					}
				}
				var res struct {
					files int
					err   error
				}
				if stable {
					r, err := e.opt.ConvertTableStable(e.ctx, table)
					res.files, res.err = r.FilesWritten, err
				} else {
					want = oracleClustered(t, sc, all, 100)
					r, err := e.opt.ConvertTable(e.ctx, table)
					res.files, res.err = r.FilesWritten, err
				}
				if res.err != nil {
					t.Fatal(res.err)
				}
				got := e.rosFiles(t, table)
				if res.files != len(got) {
					t.Fatalf("%+v: result counts %d files, Colossus holds %d", run, res.files, len(got))
				}
				sameFiles(t, got, want)
			}
		})
	}
}
