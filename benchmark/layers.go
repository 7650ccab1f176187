package main

import (
	"context"
	"strings"

	"vortex/internal/client"
	"vortex/internal/colossus"
	"vortex/internal/readsession"
	"vortex/internal/rpc"
	"vortex/internal/streamserver"
)

// measurement is everything one run learned, by metric name.
type measurement struct {
	values  map[string]float64
	samples map[string]int // how many samples stand behind a timing
	counts  counts
}

func newMeasurement() *measurement {
	return &measurement{values: make(map[string]float64), samples: make(map[string]int)}
}

func (m *measurement) set(name string, v float64) { m.values[name] = v }

// timing records the median of ms under p50Name and, when tailName is
// set, the windowed tail percentile q under it.
func (m *measurement) timing(p50Name, tailName string, q float64, samples []sample) {
	m.set(p50Name, windowedQuantile(samples, 0.5))
	m.samples[p50Name] = len(samples)
	if tailName != "" {
		m.set(tailName, windowedQuantile(samples, q))
		m.samples[tailName] = len(samples)
	}
}

// appendTimings records what appends took: the lower quartile, which
// carries the bound, and the median and the 99th percentile beside it.
func (m *measurement) appendTimings(samples []sample) {
	m.set("append_p25_ms", quietTime(millis(samples)))
	m.samples["append_p25_ms"] = len(samples)
	m.timing("append_p50_ms", "append_p99_ms", 0.99, samples)
}

// p50 records the plain median of vals when there are any.
func (m *measurement) p50(name string, vals []float64) {
	if len(vals) == 0 {
		return
	}
	m.set(name, median(vals))
	m.samples[name] = len(vals)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// snapshot is the public Stats() of every layer at one instant. Per-layer
// counts are the difference of two snapshots taken around the measured
// window, so set-up and verification traffic is left out.
type snapshot struct {
	writer   client.Metrics
	reader   client.Metrics
	servers  streamserver.Stats
	colossus colossus.Stats
	net      rpc.Stats
	sessions readsession.ServerStats
}

// snap reads every layer's counters. writer and reader are the clients
// the workload appends and scans through; either may be nil.
func (e *env) snap(writer, reader *client.Client, sessions *readsession.Server) snapshot {
	var s snapshot
	if writer != nil {
		s.writer = writer.Metrics()
	}
	if reader != nil {
		s.reader = reader.Metrics()
	}
	var servers []*streamserver.Server
	if e.region != nil {
		for _, addr := range e.region.ServerAddrs() {
			servers = append(servers, e.region.StreamServers[addr])
		}
	} else if e.worker != nil {
		for _, srv := range e.worker.Servers {
			servers = append(servers, srv)
		}
	}
	for _, srv := range servers {
		st := srv.Stats()
		s.servers.AppendOps += st.AppendOps
		s.servers.BytesAppended += st.BytesAppended
		s.servers.DegradedWrites += st.DegradedWrites
		s.servers.ShedAppends += st.ShedAppends
		s.servers.HeartbeatsSent += st.HeartbeatsSent
		s.servers.HeartbeatsCoalesced += st.HeartbeatsCoalesced
	}
	s.colossus = e.colossus.Stats()
	if e.memNet != nil {
		s.net = e.memNet.Stats()
	}
	if sessions != nil {
		s.sessions = sessions.Stats()
	}
	return s
}

// appendLayers derives the write-path layer counts of a window from two
// snapshots and what the generators acknowledged in between.
func appendLayers(m *measurement, before, after snapshot, appends, userBytes int64) {
	n := float64(appends)
	m.set("client.retries", float64(after.writer.Retries-before.writer.Retries))
	m.set("client.rotations", float64(after.writer.Rotations-before.writer.Rotations))
	m.set("client.hedges", float64(after.writer.Hedges-before.writer.Hedges))
	ops := float64(after.servers.AppendOps - before.servers.AppendOps)
	m.set("streamserver.bytes_per_append", ratio(float64(after.servers.BytesAppended-before.servers.BytesAppended), ops))
	m.set("streamserver.shed_appends", float64(after.servers.ShedAppends-before.servers.ShedAppends))
	m.set("streamserver.degraded_writes", float64(after.servers.DegradedWrites-before.servers.DegradedWrites))
	m.set("streamserver.heartbeats_sent", float64(after.servers.HeartbeatsSent-before.servers.HeartbeatsSent))
	m.set("streamserver.heartbeats_coalesced", float64(after.servers.HeartbeatsCoalesced-before.servers.HeartbeatsCoalesced))
	m.set("colossus.write_ops_per_append", ratio(float64(after.colossus.WriteOps-before.colossus.WriteOps), n))
	m.set("colossus.bytes_written_per_user_byte", ratio(float64(after.colossus.BytesWritten-before.colossus.BytesWritten), float64(userBytes)))
	m.set("rpc.unary_calls_per_append", ratio(float64(after.net.UnaryCalls-before.net.UnaryCalls), n))
	m.set("rpc.connection_setups", float64(after.net.ConnectionSetups-before.net.ConnectionSetups))
}

// readLayers derives the read-path layer counts of a window: the
// reading client's cache, and the read-session service.
func readLayers(m *measurement, before, after snapshot) {
	b, a := before.reader.Cache, after.reader.Cache
	hits, misses := float64(a.Hits-b.Hits), float64(a.Misses-b.Misses)
	m.set("cache.hit_ratio", ratio(hits, hits+misses))
	dh, dm := float64(a.DiskHits-b.DiskHits), float64(a.DiskMisses-b.DiskMisses)
	m.set("cache.disk_hit_ratio", ratio(dh, dh+dm))
	m.set("cache.evictions", float64(a.Evictions-b.Evictions))
	m.set("cache.prefetch_fetched", float64(a.PrefetchFetched-b.PrefetchFetched))
	m.set("cache.oversize_rejects", float64(a.OversizeRejects-b.OversizeRejects))
	m.set("readsession.resumes", float64(after.sessions.Resumes-before.sessions.Resumes))
	m.set("readsession.splits", float64(after.sessions.Splits-before.sessions.Splits))
	if h := after.reader.ScanLatency; h != nil && h.Count() > 0 {
		m.set("client.scan_assignment_ms_p50", float64(h.Quantile(0.5))/1e6)
		m.samples["client.scan_assignment_ms_p50"] = int(h.Count())
	}
}

// drainLayers folds timed drains into the read-session and wire layer
// metrics.
func drainLayers(m *measurement, runs []drainRun) {
	var rows, bytes, batches, waitNS int64
	var seconds float64
	var opens []float64
	for _, r := range runs {
		rows += r.rows
		bytes += r.stats.Bytes
		batches += r.stats.Batches
		waitNS += r.waitNS
		seconds += r.elapsed.Seconds()
		opens = append(opens, r.openMS)
	}
	m.p50("readsession.open_ms_p50", opens)
	m.set("readsession.batches_per_s", ratio(float64(batches), seconds))
	m.set("wire.bytes_per_row", ratio(float64(bytes), float64(rows)))
	// Each drain keeps `generators` readers busy for its whole length.
	m.set("readsession.next_wait_share", ratio(float64(waitNS)/1e9, seconds*generators))
}

// traceLayers derives the wrapper-timed layer metrics from a trace: all
// is the whole run, set-up included (streams are created there); ix is
// the measured window, in which appends append operations were issued.
func traceLayers(m *measurement, all, ix *spanIndex, appends int64) {
	m.p50("client.append_self_ms_p50", ix.selfTimes("append"))
	calls := ix.matching("client/streamserver:Append")
	m.p50("rpc.append_call_ms_p50", calls)
	if len(calls) > 0 {
		m.set("rpc.append_call_ms_p99", quantile(sortedCopy(calls), 0.99))
		m.samples["rpc.append_call_ms_p99"] = len(calls)
	}
	m.p50("sms.create_stream_ms_p50", all.matching("/sms:CreateStream"))
	m.p50("sms.read_view_ms_p50", all.matching("/sms:ReadView"))
	m.p50("sms.lease_ms_p50", all.matching("/sms:AcquireLease"))
	proxy := ix.matching("worker/colossusrpc:")
	m.p50("colossusrpc.call_ms_p50", proxy)
	m.set("colossusrpc.calls_per_append", ratio(float64(len(proxy)), float64(appends)))
	if m.values["rpc.unary_calls_per_append"] == 0 && appends > 0 {
		// The TCP transport publishes no Stats; count at the wrapper.
		ops := make(map[int64]bool)
		for _, s := range ix.spans {
			if s.Parent == 0 && s.Name == "append" {
				ops[s.ID] = true
			}
		}
		unary := 0
		for _, s := range ix.spans {
			if ops[s.Parent] && !strings.HasSuffix(s.Name, "/stream") && !strings.HasSuffix(s.Name, ":OpenStream") {
				unary++
			}
		}
		m.set("rpc.unary_calls_per_append", ratio(float64(unary), float64(appends)))
		m.set("rpc.connection_setups", float64(len(ix.matching("client/rpc:OpenStream"))))
	}
}

// statementLayers derives sms.calls_per_query: SMS calls made under
// statement operations, per statement.
func statementLayers(m *measurement, ix *spanIndex) {
	stmts := make(map[int64]bool)
	for _, s := range ix.spans {
		if s.Parent == 0 && strings.HasPrefix(s.Name, "stmt:") {
			stmts[s.ID] = true
		}
	}
	calls := 0
	for _, s := range ix.spans {
		if stmts[s.Op] && s.Parent != 0 && strings.Contains(s.Name, "/sms:") {
			calls++
		}
	}
	m.set("sms.calls_per_query", ratio(float64(calls), float64(len(stmts))))
}

// storedRatio collects garbage and records what Colossus then holds
// (both replicas) per row-encoded byte the system acknowledged.
func storedRatio(ctx context.Context, e *env, m *measurement, userBytes int64) error {
	if err := e.collectGarbage(ctx); err != nil {
		return err
	}
	stored, err := e.storedBytes()
	if err != nil {
		return err
	}
	m.set("stored_bytes_per_user_byte", ratio(float64(stored), float64(userBytes)))
	return nil
}

// readTraceLayers records what the reading client's store was asked for
// per table pass of the window ix covers.
func readTraceLayers(m *measurement, ix *spanIndex, passes int) {
	reads := ix.matching("colossus:Read")
	m.set("colossus.read_ops_per_pass", ratio(float64(len(reads)), float64(passes)))
	m.set("colossus.read_ms_per_pass", ratio(sum(reads), float64(passes)))
}
