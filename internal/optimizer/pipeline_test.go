package optimizer_test

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	mathrand "math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"vortex/internal/blockenc"
	"vortex/internal/chaos"
	"vortex/internal/client"
	"vortex/internal/colossus"
	"vortex/internal/core"
	"vortex/internal/meta"
	"vortex/internal/optimizer"
	"vortex/internal/rowenc"
	"vortex/internal/rpc"
	"vortex/internal/schema"
	"vortex/internal/sms"
	"vortex/internal/wire"
	"vortex/internal/workload"
)

// rosPaths lists the ROS files each cluster holds.
func (e *env) rosPaths(t *testing.T) map[string][]string {
	t.Helper()
	held := map[string][]string{}
	for _, name := range e.r.Colossus.ClusterNames() {
		paths, err := e.r.Colossus.Cluster(name).List("ros/")
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) > 0 {
			held[name] = paths
		}
	}
	return held
}

// TestConversionAfterDegradedCommit: a streamlet that lost a cluster
// mid-write records the pair {healthy, healthy}. Its ROS file must not
// inherit that: it gets two distinct whole replicas, and when the second
// cannot be written the first is taken back.
func TestConversionAfterDegradedCommit(t *testing.T) {
	sched := chaos.NewSchedule()
	cfg := core.DefaultConfig()
	cfg.Chaos = sched
	e := newEnvIn(core.NewRegion(cfg))
	if err := e.c.CreateTable(e.ctx, "d.deg", ordersSchema()); err != nil {
		t.Fatal(err)
	}
	s, err := e.c.CreateStream(e.ctx, "d.deg", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	appendRows := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if _, err := s.Append(e.ctx, []schema.Row{orderRow(0, i, "C")}, client.AtOffset(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendRows(0, 5)
	plan, err := e.c.Plan(e.ctx, "d.deg", 0)
	if err != nil {
		t.Fatal(err)
	}
	pair := plan.Assignments[0].Frag.Clusters
	sched.StartClusterOutage(pair[1])
	appendRows(5, 10)
	sched.EndClusterOutage(pair[1])
	if _, err := s.Finalize(e.ctx); err != nil {
		t.Fatal(err)
	}
	e.r.HeartbeatAll(e.ctx, false)
	cands := e.candidates(t, "d.deg")
	if len(cands) == 0 || cands[len(cands)-1].Info.Clusters != [2]string{pair[0], pair[0]} {
		t.Fatalf("no degraded candidate: %+v", cands)
	}

	e.r.Colossus.Cluster(pair[1]).FailNextWrites(1)
	if _, err := e.opt.ConvertTable(e.ctx, "d.deg"); err == nil {
		t.Fatal("conversion succeeded though the second replica was refused")
	}
	if held := e.rosPaths(t); len(held) != 0 {
		t.Fatalf("a failed second write left %v", held)
	}

	res, err := e.opt.ConvertTable(e.ctx, "d.deg")
	if err != nil || res.FilesWritten == 0 {
		t.Fatalf("conversion after a degraded commit = %+v, %v", res, err)
	}
	if plan, err = e.c.Plan(e.ctx, "d.deg", 0); err != nil {
		t.Fatal(err)
	}
	for _, a := range plan.Assignments {
		if a.Frag.Format != meta.ROS || a.Frag.Clusters[0] == a.Frag.Clusters[1] {
			t.Fatalf("%s: format %v on clusters %v, want ROS on two distinct ones", a.Frag.ID, a.Frag.Format, a.Frag.Clusters)
		}
		for _, name := range a.Frag.Clusters {
			if n, err := e.r.Colossus.Cluster(name).Size(a.Frag.Path); err != nil || n != a.Frag.CommittedBytes {
				t.Fatalf("replica of %s on %s: %d bytes, %v; want %d", a.Frag.Path, name, n, err, a.Frag.CommittedBytes)
			}
		}
	}
	e.rosFiles(t, "d.deg") // replicas byte-equal
	if got := e.mustRead(t, "d.deg"); len(got) != 10 {
		t.Fatalf("read %d rows, want 10", len(got))
	}
}

// TestStableConversionDeletesWhatItWrote: a stable conversion writes one
// file per candidate, each on that candidate's replica pair, before it
// registers any. Whatever stops it — a candidate that cannot be read,
// one whose rows are not what its metadata counts, a refused write, a
// refused registration — every file written until then is deleted from
// the clusters it went to. Three clusters and one Stream Server each
// give the three candidates three different pairs.
func TestStableConversionDeletesWhatItWrote(t *testing.T) {
	replace := func(t *testing.T, e *env, target, donor wire.ReadFragment) {
		cl := e.r.Colossus.Cluster(donor.Info.Clusters[0])
		size, err := cl.Size(donor.Info.Path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := cl.Read(donor.Info.Path, 0, size)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range target.Info.Clusters {
			cl := e.r.Colossus.Cluster(name)
			if err := cl.Delete(target.Info.Path); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.AppendAt(target.Info.Path, 0, data, blockenc.Checksum(data)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name    string
		fault   func(t *testing.T, e *env, cands []wire.ReadFragment) (heal func())
		wantErr string // "" : the conversion yields
	}{
		{"scan error", func(t *testing.T, e *env, cands []wire.ReadFragment) func() {
			last := cands[len(cands)-1]
			for _, name := range last.Info.Clusters {
				if err := e.r.Colossus.Cluster(name).Delete(last.Info.Path); err != nil {
					t.Fatal(err)
				}
			}
			return nil
		}, "reading"},
		{"row-count mismatch", func(t *testing.T, e *env, cands []wire.ReadFragment) func() {
			// A later candidate's file becomes a shorter one's: fewer rows
			// than its metadata counts, after a file has been written.
			target, donor := cands[1], cands[0]
			for _, rf := range cands[1:] {
				if rf.Info.RowCount > target.Info.RowCount {
					target = rf
				}
			}
			for _, rf := range cands {
				if rf.Info.RowCount < donor.Info.RowCount {
					donor = rf
				}
			}
			replace(t, e, target, donor)
			return nil
		}, "metadata says"},
		{"write failure", func(t *testing.T, e *env, cands []wire.ReadFragment) func() {
			// The cluster the first file does not touch: its first write
			// belongs to a later file.
			for _, name := range e.r.Colossus.ClusterNames() {
				if name != cands[0].Info.Clusters[0] && name != cands[0].Info.Clusters[1] {
					e.r.Colossus.Cluster(name).FailNextWrites(1)
				}
			}
			return func() {}
		}, "injected write failure"},
		{"refused registration", func(t *testing.T, e *env, cands []wire.ReadFragment) func() {
			addr, _ := e.r.Router().SMSFor("d.st")
			resp, err := e.r.Net.Unary(e.ctx, addr, wire.MethodBeginDML, &wire.BeginDMLRequest{Table: "d.st"})
			if err != nil {
				t.Fatal(err)
			}
			return func() {
				if _, err := e.r.Net.Unary(e.ctx, addr, wire.MethodEndDML, &wire.EndDMLRequest{Table: "d.st", Token: resp.(*wire.BeginDMLResponse).Token}); err != nil {
					t.Fatal(err)
				}
			}
		}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Clusters = []string{"alpha", "beta", "gamma"}
			cfg.StreamServersPerCluster = 1
			e := newEnvIn(core.NewRegion(cfg))
			if err := e.c.CreateTable(e.ctx, "d.st", ordersSchema()); err != nil {
				t.Fatal(err)
			}
			total := 0
			for stream := 0; stream < 3; stream++ {
				var rows []schema.Row
				for i := 0; i < 10+5*stream; i++ {
					rows = append(rows, orderRow(stream, i, "C"))
				}
				e.ingestAndSeal(t, "d.st", rows)
				total += len(rows)
			}
			cands := e.candidates(t, "d.st")
			pairs := map[[2]string]bool{}
			for _, rf := range cands {
				pairs[rf.Info.Clusters] = true
			}
			if len(cands) != 3 || len(pairs) != 3 {
				t.Fatalf("%d candidates on %d replica pairs, want 3 on 3", len(cands), len(pairs))
			}

			heal := tc.fault(t, e, cands)
			res, err := e.opt.ConvertTableStable(e.ctx, "d.st")
			switch {
			case tc.wantErr == "" && (err != nil || !res.Yielded || res.FilesWritten != 0):
				t.Fatalf("conversion = %+v, %v; want a yield", res, err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("conversion = %+v, %v; want an error naming %q", res, err, tc.wantErr)
			}
			if held := e.rosPaths(t); len(held) != 0 {
				t.Fatalf("the stopped conversion left %v", held)
			}
			if heal == nil {
				return // the table's own files are damaged
			}
			heal()
			if got := e.mustRead(t, "d.st"); len(got) != total {
				t.Fatalf("read %d rows after the stopped conversion, want %d", len(got), total)
			}
			if res, err = e.opt.ConvertTableStable(e.ctx, "d.st"); err != nil || res.FilesWritten != 3 {
				t.Fatalf("conversion once healed = %+v, %v; want 3 files", res, err)
			}
			plan, err := e.c.Plan(e.ctx, "d.st", 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range plan.Assignments {
				if a.Frag.Format != meta.ROS || !pairs[a.Frag.Clusters] {
					t.Fatalf("%s: format %v on %v, not on a candidate's pair", a.Frag.ID, a.Frag.Format, a.Frag.Clusters)
				}
				delete(pairs, a.Frag.Clusters) // each file on its own candidate's
			}
			e.rosFiles(t, "d.st")
			if got := e.mustRead(t, "d.st"); len(got) != total {
				t.Fatalf("read %d rows after conversion, want %d", len(got), total)
			}
		})
	}
}

// registrations counts the optimizer's RegisterConversion calls, keeps
// the files the last one registered, and can refuse one as the SMS
// refuses while a DML statement runs.
type registrations struct {
	rpc.Transport
	calls  int
	refuse int // which call to answer with ErrDMLActive; 0: none
	last   []meta.FragmentInfo
}

func (r *registrations) Unary(ctx context.Context, addr, method string, req any) (any, error) {
	if method == wire.MethodRegisterConversion {
		r.calls++
		r.last = req.(*wire.RegisterConversionRequest).New
		if r.calls == r.refuse {
			return nil, sms.ErrDMLActive
		}
	}
	return r.Transport.Unary(ctx, addr, method, req)
}

// contentDigest sums a hash of every row's values: the same for the same
// rows whatever their order, sequence numbers or fragments.
func contentDigest(rows []rowenc.Stamped) (d uint64) {
	var buf []byte
	for _, r := range rows {
		buf = rowenc.AppendRow(buf[:0], schema.Row{Values: r.Row.Values})
		h := fnv.New64a()
		h.Write(buf)
		d += h.Sum64()
	}
	return d
}

// peakHeap runs f and returns how far HeapAlloc rose above its level
// before f, sampled every half millisecond. The collector is kept close
// behind the allocator meanwhile, so that what is measured is what f
// holds and not how much garbage the pacer lets pile up.
func peakHeap(f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base, peak := ms.HeapAlloc, ms.HeapAlloc
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(500 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				peak = max(peak, ms.HeapAlloc)
			}
		}
	}()
	f()
	close(stop)
	wg.Wait()
	return peak - base
}

// boundedHeapFactor is the most a pass's heap may rise, as a multiple of
// the group budget: a group's rows are in memory twice (the decoded
// fragments and their concatenation, typed vectors but for nested and
// BYTES fields), plus the strings behind them, the workers' writer
// columns and the garbage of the group before. The pass logs 18–19×;
// the rest is room for when the GC runs.
const boundedHeapFactor = 60

// TestConvertTableIsBoundedByTheGroupBudget: a table of more than four
// budgets converts in as many swaps as it has groups, to the rows a
// single-group conversion of the same table yields, its heap bounded by
// the budget and not by the table; and a group refused for DML costs
// that group only.
func TestConvertTableIsBoundedByTheGroupBudget(t *testing.T) {
	const budget, rows = 256 << 10, 20000
	type pass struct {
		e   *env
		reg *registrations
		opt *optimizer.Optimizer
	}
	load := func(groupBytes int64, refuse int) pass {
		cfg := core.DefaultConfig()
		cfg.MaxFragmentBytes = 32 << 10
		e := newEnvIn(core.NewRegion(cfg))
		if err := e.c.CreateTable(e.ctx, "d.big", workload.SalesSchema()); err != nil {
			t.Fatal(err)
		}
		gen := workload.NewGen(9, 300) // the same rows every time, garbage once loaded
		var sales []schema.Row
		for i := 0; i < rows; i += 50 {
			sales = append(sales, gen.SalesRows(i/50%4, 50)...)
		}
		loadSealed(t, e.r, e.c, "d.big", sales)
		reg := &registrations{Transport: e.r.Net, refuse: refuse}
		ocfg := optimizer.DefaultConfig()
		ocfg.TargetROSRows = 512
		opt := optimizer.New(ocfg, e.c, reg, e.r.Router(), e.r.Colossus, e.r.Clock)
		opt.SetGroupBytes(groupBytes)
		return pass{e, reg, opt}
	}
	var tableBytes int64
	whole := load(optimizer.GroupBytes, 0)
	cands := whole.e.candidates(t, "d.big")
	for _, rf := range cands {
		tableBytes += rf.Info.CommittedBytes
	}
	if tableBytes < 4*budget || tableBytes > optimizer.GroupBytes {
		t.Fatalf("table is %d bytes: want at least four budgets of %d and one group under the real one", tableBytes, budget)
	}
	want := contentDigest(whole.e.mustRead(t, "d.big"))

	var res optimizer.Result
	var err error
	wholePeak := peakHeap(func() { res, err = whole.opt.ConvertTable(whole.e.ctx, "d.big") })
	if err != nil || whole.reg.calls != 1 || res.FragmentsConverted != len(cands) || res.RowsConverted != rows {
		t.Fatalf("single-group conversion = %+v, %v in %d swaps", res, err, whole.reg.calls)
	}
	if got := contentDigest(whole.e.mustRead(t, "d.big")); got != want {
		t.Fatal("single-group conversion changed the table's rows")
	}

	grouped := load(budget, 0)
	groupedPeak := peakHeap(func() { res, err = grouped.opt.ConvertTable(grouped.e.ctx, "d.big") })
	if err != nil || grouped.reg.calls < 4 || res.FragmentsConverted != len(cands) || res.RowsConverted != rows {
		t.Fatalf("grouped conversion = %+v, %v in %d swaps; want every candidate in at least 4", res, err, grouped.reg.calls)
	}
	if got := contentDigest(grouped.e.mustRead(t, "d.big")); got != want {
		t.Fatal("grouped conversion reads back other rows than the single-group one")
	}
	t.Logf("table %d KiB in %d groups of %d KiB: heap rose %d KiB (%.0fx the budget); in one group %d KiB",
		tableBytes>>10, grouped.reg.calls, budget>>10, groupedPeak>>10, float64(groupedPeak)/budget, wholePeak>>10)
	if groupedPeak > boundedHeapFactor*budget {
		t.Errorf("heap rose %d KiB during the grouped pass, over %d budgets of %d KiB", groupedPeak>>10, boundedHeapFactor, budget>>10)
	}

	// Group 3 is refused: groups 1 and 2 stay registered, group 3's files
	// are deleted, the pass stops and says it yielded.
	yielded := load(budget, 3)
	res, err = yielded.opt.ConvertTable(yielded.e.ctx, "d.big")
	if err != nil || !res.Yielded || yielded.reg.calls != 3 || res.FragmentsConverted == 0 || res.FragmentsConverted >= len(cands) {
		t.Fatalf("refused pass = %+v, %v after %d swaps", res, err, yielded.reg.calls)
	}
	plan, err := yielded.e.c.Plan(yielded.e.ctx, "d.big", 0)
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	wos := 0
	for _, a := range plan.Assignments {
		if a.Frag.Format == meta.ROS {
			registered[a.Frag.Path] = true
		} else {
			wos++
		}
	}
	if len(registered) != res.FilesWritten || wos != len(cands)-res.FragmentsConverted {
		t.Fatalf("plan holds %d ROS and %d WOS fragments; the pass reports %d files from %d of %d candidates", len(registered), wos, res.FilesWritten, res.FragmentsConverted, len(cands))
	}
	for name, paths := range yielded.e.rosPaths(t) {
		for _, p := range paths {
			if !registered[p] {
				t.Errorf("cluster %s holds %s, which nothing registered", name, p)
			}
		}
		if len(paths) != len(registered) {
			t.Errorf("cluster %s holds %d ROS files, %d are registered", name, len(paths), len(registered))
		}
	}
	if got := contentDigest(yielded.e.mustRead(t, "d.big")); got != want {
		t.Fatal("the refused pass changed the table's rows")
	}
	rest, err := yielded.opt.ConvertTable(yielded.e.ctx, "d.big")
	if err != nil || rest.Yielded || rest.FragmentsConverted != len(cands)-res.FragmentsConverted {
		t.Fatalf("pass after the refusal = %+v, %v", rest, err)
	}
	if got := contentDigest(yielded.e.mustRead(t, "d.big")); got != want {
		t.Fatal("the table's rows changed across the refused and the following pass")
	}
}

// TestReplicaWriteFailureDeletesEveryEarlierFile: files are written in
// file order once all are encoded. When a replica write of file k fails
// — on the first cluster of the pair or the second — files 0…k-1 are
// deleted from both clusters, along with file k's first replica, and
// nothing is registered.
func TestReplicaWriteFailureDeletesEveryEarlierFile(t *testing.T) {
	const days, perDay = 4, 20 // one file per day
	for _, replica := range []int{0, 1} {
		for k := range days {
			e := newEnv(t, 0)
			if err := e.c.CreateTable(e.ctx, "d.orders", ordersSchema()); err != nil {
				t.Fatal(err)
			}
			var rows []schema.Row
			for day := range days {
				for i := range perDay {
					rows = append(rows, orderRow(day, i, fmt.Sprintf("C-%02d", i%7)))
				}
			}
			e.ingestAndSeal(t, "d.orders", rows)
			cands := e.candidates(t, "d.orders")
			pair := cands[len(cands)-1].Info.Clusters
			e.r.Colossus.Cluster(pair[replica]).SetChaos(&refuseWrites{after: k})
			reg := &registrations{Transport: e.r.Net}
			opt := optimizer.New(optimizer.DefaultConfig(), e.c, reg, e.r.Router(), e.r.Colossus, e.r.Clock)

			_, err := opt.ConvertTable(e.ctx, "d.orders")
			if err == nil || !strings.Contains(err.Error(), "outage") {
				t.Fatalf("replica %d refusing file %d: conversion = %v, want the outage", replica, k, err)
			}
			if held := e.rosPaths(t); len(held) != 0 || reg.calls != 0 {
				t.Fatalf("replica %d refusing file %d: %d registrations, clusters hold %v", replica, k, reg.calls, held)
			}
			e.r.Colossus.Cluster(pair[replica]).SetChaos(nil)
			res, err := opt.ConvertTable(e.ctx, "d.orders")
			if err != nil || res.FilesWritten != days {
				t.Fatalf("conversion once healed = %+v, %v; want %d files", res, err, days)
			}
			if got := e.mustRead(t, "d.orders"); len(got) != len(rows) {
				t.Fatalf("read %d rows after conversion, want %d", len(got), len(rows))
			}
		}
	}
}

// cancelOnRead is a colossus.Chaos that cancels a context at the first
// read it sees, and lets the read through.
type cancelOnRead struct{ cancel context.CancelFunc }

func (c cancelOnRead) Inject(_ context.Context, point, _ string) error {
	if point == colossus.ChaosPointRead {
		c.cancel()
	}
	return nil
}

// TestCancelMidScanStopsTheConversion: a context cancelled while a
// group's fragments are being read ends the conversion with the
// context's error, having written and registered nothing, and leaves no
// scan worker behind — on a pool of one and of four.
func TestCancelMidScanStopsTheConversion(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		e := newEnv(t, 4096) // many small fragments: more than the workers
		if err := e.c.CreateTable(e.ctx, "d.orders", ordersSchema()); err != nil {
			t.Fatal(err)
		}
		var rows []schema.Row
		for i := range 400 {
			rows = append(rows, orderRow(i%3, i, fmt.Sprintf("C-%02d", i%7)))
		}
		e.ingestAndSeal(t, "d.orders", rows)
		if n := len(e.candidates(t, "d.orders")); n < 2*procs+2 {
			t.Fatalf("only %d candidates", n)
		}
		ctx, cancel := context.WithCancel(e.ctx)
		defer cancel()
		for _, name := range e.r.Colossus.ClusterNames() {
			e.r.Colossus.Cluster(name).SetChaos(cancelOnRead{cancel})
		}
		reg := &registrations{Transport: e.r.Net}
		cold := e.r.NewClient(client.DefaultOptions()) // reads every fragment from Colossus
		opt := optimizer.New(optimizer.DefaultConfig(), cold, reg, e.r.Router(), e.r.Colossus, e.r.Clock)

		before := runtime.NumGoroutine()
		_, err := opt.ConvertTable(ctx, "d.orders")
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("procs %d: conversion = %v, want context.Canceled", procs, err)
		}
		if held := e.rosPaths(t); len(held) != 0 || reg.calls != 0 {
			t.Fatalf("procs %d: %d registrations, clusters hold %v", procs, reg.calls, held)
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
			if time.Now().After(deadline) {
				t.Fatalf("procs %d: %d goroutines after the cancelled conversion, %d before", procs, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
		for _, name := range e.r.Colossus.ClusterNames() {
			e.r.Colossus.Cluster(name).SetChaos(nil)
		}
	}
}

// TestWorkersKeepFileOrder: under seeded ids, a pass on one worker and a
// pass on four draw the same ids for the same files, and register them
// in partition order — whatever order the partitions arrive in.
func TestWorkersKeepFileOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer meta.SetEntropy(nil)
	type file struct {
		id    meta.FragmentID
		parts []int64
		rows  int64
	}
	var passes [][]file
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		meta.SetEntropy(mathrand.New(mathrand.NewSource(7)))
		e := newEnv(t, 4096)
		if err := e.c.CreateTable(e.ctx, "d.orders", ordersSchema()); err != nil {
			t.Fatal(err)
		}
		var rows []schema.Row
		for i := range 600 {
			rows = append(rows, orderRow([]int{2, 0, 3, 1}[i%4], i, fmt.Sprintf("C-%02d", i%7)))
		}
		e.ingestAndSeal(t, "d.orders", rows)
		reg := &registrations{Transport: e.r.Net}
		opt := optimizer.New(optimizer.DefaultConfig(), e.c, reg, e.r.Router(), e.r.Colossus, e.r.Clock)
		if _, err := opt.ConvertTable(e.ctx, "d.orders"); err != nil || reg.calls != 1 {
			t.Fatalf("procs %d: conversion = %v in %d swaps", procs, err, reg.calls)
		}
		var pass []file
		for _, info := range reg.last {
			pass = append(pass, file{info.ID, info.PartitionSet, info.RowCount})
		}
		if len(pass) != 4 {
			t.Fatalf("procs %d: %d files for 4 partitions", procs, len(pass))
		}
		for k := 1; k < len(pass); k++ {
			if len(pass[k].parts) != 1 || pass[k].parts[0] < pass[k-1].parts[0] {
				t.Fatalf("procs %d: file %d holds partitions %v after file %d's %v", procs, k, pass[k].parts, k-1, pass[k-1].parts)
			}
		}
		passes = append(passes, pass)
	}
	if !slices.EqualFunc(passes[0], passes[1], func(a, b file) bool {
		return a.id == b.id && slices.Equal(a.parts, b.parts) && a.rows == b.rows
	}) {
		t.Fatalf("one worker registered %v, four %v", passes[0], passes[1])
	}
}
