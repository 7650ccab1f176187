#!/usr/bin/env sh
# Full local check: formatting gate + vet + race-enabled tests across
# every package. The chaos suite (internal/chaos, core/client chaos
# tests) is expected to be deterministic under -race; any ordering
# flake is a bug, so tests run with -shuffle=on to surface hidden
# inter-test order dependencies.
set -eu
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go test -race -shuffle=on ./...

# The read-session subsystem and its dataflow source connector are the
# most concurrency-dense packages (parallel shard readers, splits racing
# the serve loop, simulated worker crashes): run them again under -race
# with a higher shuffle-independent count so interleavings vary.
go test -race -count=2 ./internal/readsession/ ./internal/dataflow/

# The vectorized query engine shards leaf scans across workers and
# shares cached column vectors between them: run it again under -race
# so batch/selection handoffs see varied interleavings.
go test -race -count=2 ./internal/query/

# The overload-protection layer races admission bookkeeping, heartbeat
# coalescing and Slicer reassignment windows against thousands of
# writers: run the slicer and sms suites twice more under -race so the
# token-bucket and double-assignment paths see varied interleavings.
go test -race -count=2 ./internal/slicer/ ./internal/sms/

# The transport layer multiplexes unary calls and bi-di streams over
# shared connections (and, for TCP, over real sockets with per-stream
# flow-control windows): run the rpc suite — including the
# cross-transport conformance matrix — twice more under -race so
# connection-teardown and window-update interleavings vary.
go test -race -count=2 ./internal/rpc/

# Bench smoke in -short mode: proves the experiment harness still builds
# and runs end-to-end without paying for full latency-model experiments
# (those are skipped under -short and run in the main suite above).
go test -short ./internal/bench/

# Vectorized execution smoke: code-skip accounting in the query engine
# on keyless and primary-keyed tables (TestVectorizedCodeSkipStats,
# TestVectorizedKeyedCodeSkip) and read-session serving against the row
# API as oracle (TestVectorizedServingParity) — the fast end-to-end
# proof that encoded-domain filtering still returns what filtering
# row by row returns.
go test -short -count=1 -run 'TestVectorized' ./internal/query/ ./internal/readsession/

# The seeded benchmark is a module of its own and imports internal
# packages by name (query.Config, readsession.NewServer,
# dml.ResolveChanges, wire.EncodeRecordBatch, wire.EncodeVectors,
# query.PruneAssignments/HashJoinRows/DeltaGroup): its smoke test runs
# every workload with a half-second window, so a change that breaks a
# symbol or an oracle it relies on fails here and not in the benchmark
# pipeline.
go test -C benchmark ./...

# Fanout overload smoke: the -short variant of the massive-fanout
# experiment (128 zipf-skewed streams against squeezed quotas) asserts
# the no-loss and always-retryable invariants end to end.
go test -short -count=1 -run 'TestFanoutSmoke' ./internal/bench/

# Materialized-view maintenance applies CDC deltas through the
# dataflow source's parallel shard readers and writes view rows through
# the partitioned sink; the sql package feeds it parsed definitions.
# Run both twice more under -race so source/sink interleavings vary.
go test -race -count=2 ./internal/matview/ ./internal/sql/

# Matview smoke: the -short variant of the incremental-maintenance
# experiment churns a joined GROUP BY view and asserts digest equality
# against full recompute at every pinned snapshot.
go test -short -count=1 -run 'TestMatviewSmoke' ./internal/bench/

# Disk-tier cache: the on-disk LRU mixes file IO with lock-protected
# index state and races Put/Get/Invalidate against GC unlinks — run it
# twice more under -race so the unlink/overwrite interleavings vary.
go test -race -count=2 ./internal/disktier/

# Cache-pressure smoke: the -short variant of the tiered-cache
# experiment (working set 10x RAM, prefetch-warmed disk tier) asserts
# zero Colossus reads on the warm side and zero stale reads after GC.
go test -short -count=1 -run 'TestCachePressureSmoke' ./internal/bench/

# Cluster smoke: spawns a real coordinator + one worker as separate OS
# processes talking over the TCP transport, drives a second of appends
# through the full stack, and asserts the exactly-once invariant
# (lost=0, phantom=0) across process boundaries.
go test -short -count=1 -run 'TestClusterSmoke' ./internal/bench/

# Fuzz smoke: a short budget per decoder target catches regressions in
# the hostile-input guards without turning the check into a soak. The
# checked-in corpora under testdata/fuzz run as plain seeds above; this
# explores beyond them.
for target in FuzzDecodeRow FuzzDecodeRows; do
    go test -run '^$' -fuzz "${target}\$" -fuzztime 10s ./internal/rowenc/
done
go test -run '^$' -fuzz 'FuzzOpen$' -fuzztime 10s ./internal/blockenc/
go test -run '^$' -fuzz 'FuzzDecodeRecordBatch$' -fuzztime 10s ./internal/wire/
go test -run '^$' -fuzz 'FuzzSelectionGather$' -fuzztime 10s ./internal/wire/
go test -run '^$' -fuzz 'FuzzDecodeEntry$' -fuzztime 10s ./internal/disktier/
go test -run '^$' -fuzz 'FuzzDecodeFrame$' -fuzztime 10s ./internal/rpc/
go test -run '^$' -fuzz 'FuzzParse$' -fuzztime 10s ./internal/sql/
