#!/usr/bin/env sh
# Full local check and the CI gate: formatting, vet, every test under the
# race detector, then four tables — packages that get a second race
# pass, fuzz targets, programs that have no tests of their own, and the
# code-line count per package — with a 20-seed simulation sweep before
# the last.
set -eu
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...

# One typed path per RPC method: outside internal/rpc, handlers and
# callers go through the rpc.Method declarations, never the untyped
# Server.RegisterUnary / Transport.Unary or an assertion on a message.
# benchmark/ is frozen and vetted on its own below.
untyped=$(grep -rnE --include='*.go' --exclude='*_test.go' 'RegisterUnary\(|\.Unary\(|\.\(\*wire\.' . |
    grep -vE '^\./(internal/rpc|benchmark|\.bench_build)/' || true)
if [ -n "$untyped" ]; then
    echo "untyped rpc use outside internal/rpc (declare the method with rpc.NewMethod and use Call/Handle):" >&2
    echo "$untyped" >&2
    exit 1
fi

# One file may convert unsafe.Pointer: schema/value.go, which keeps the
# rules that make its three-word Value sound (DESIGN.md §11). A typed
# vector or any other code that wants a view without a copy asks schema
# for it rather than importing unsafe itself.
unsafe_users=$(grep -rlE --include='*.go' --exclude='*_test.go' '^[[:space:]]*(import[[:space:]]+)?([[:alnum:]_.]+[[:space:]]+)?"unsafe"' . |
    grep -vE '^\./(internal/schema/value\.go|\.bench_build/)' || true)
if [ -n "$unsafe_users" ]; then
    echo "unsafe imported outside internal/schema/value.go:" >&2
    echo "$unsafe_users" >&2
    exit 1
fi

# One owner per metadata transition (DESIGN.md §6). In internal/sms
# only finalizeStreamlet sets a streamlet FINALIZED, so no finalization
# skips fragment and tail-mask mapping, and only getMask parses a stored
# mask, so no reader takes a corrupt one for "nothing deleted". In
# internal/streamserver only relinquish does, so every way a server
# gives a streamlet up closes its fragment and reaches its heartbeat.
owners=$(while read -r pkg owner; do
    awk -v owner="$owner" '
        /^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[([].*/, "", fn) }
        /^[[:space:]]*\/\// { next }
        /([^=!<>]=|:)[[:space:]]*meta\.StreamletFinalized/ && fn != owner { print FILENAME ":" FNR ": " $0 }
        /dml\.Unmarshal\(/ && fn != "getMask" { print FILENAME ":" FNR ": " $0 }
    ' $(ls "internal/$pkg"/*.go | grep -v '_test\.go$')
done <<'EOF'
sms           finalizeStreamlet
streamserver  relinquish
EOF
)
if [ -n "$owners" ]; then
    echo "transition outside its owner (StreamletFinalized is set in sms.finalizeStreamlet and streamserver.relinquish, masks are parsed in getMask):" >&2
    echo "$owners" >&2
    exit 1
fi

# One GC rule (DESIGN.md §7): in internal/sms only collectable decides
# that a deleted fragment may go, so it alone calls leasePinned or
# weighs a DeletionTS against retention, and the heartbeat and the
# groomer cannot disagree. Only the groomer (handleGC) scans every
# table's fragment records; the heartbeat reads the fragments it is
# told about.
gc_rule=$(awk '
    /^func / { fn = $0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[([].*/, "", fn); next }
    /^[[:space:]]*\/\// { next }
    /leasePinned\(/ && fn != "collectable" { print FILENAME ":" FNR ": " $0 }
    /DeletionTS.*[Rr]etention|[Rr]etention.*DeletionTS/ && fn != "collectable" { print FILENAME ":" FNR ": " $0 }
    /Scan\(allFragments\)/ && fn != "handleGC" { print FILENAME ":" FNR ": " $0 }
' $(ls internal/sms/*.go | grep -v '_test\.go$'))
if [ -n "$gc_rule" ]; then
    echo "GC decision outside its rule (sms.collectable decides, and only sms.handleGC scans all fragment records):" >&2
    echo "$gc_rule" >&2
    exit 1
fi

# One exactly-once writer (DESIGN.md §8): outside internal/client no
# non-test file pins an append offset, appends with a tracked sequence
# or builds a ledger record itself, so the pinned-offset outcome table
# (client.Writer) has one copy; build ledger records from a writer's
# Applied callback (verify.Ledger.Applied). benchmark/ is frozen and
# excepted, as above.
pinned=$(grep -rnE --include='*.go' --exclude='*_test.go' 'AtOffset\(|AppendTracked\(|verify\.AppendRecord\{' . |
    grep -vE '^\./(internal/client|benchmark|\.bench_build)/' || true)
if [ -n "$pinned" ]; then
    echo "pinned append outside the client's writer (use client.Writer, internal/client/writer.go):" >&2
    echo "$pinned" >&2
    exit 1
fi

# One region assembly (DESIGN.md §13): the in-process region, the cluster
# coordinator and its workers start their tasks with the constructors of
# internal/core/assembly.go, which alone lays out task addresses
# (core.SMSAddr, core.WorkerServers, core.ControlAddrs) and runs the
# heartbeat ticker (core.StartHeartbeats, core.FullHeartbeat). Outside
# it no non-test file formats an sms- or ss- address, and no function
# both runs a ticker and heartbeats Stream Servers. benchmark/ is frozen
# and excepted, as above.
assembly=$({
    grep -rnE --include='*.go' --exclude='*_test.go' '"(sms|ss)-(%|")' . |
        grep -vE '^\./(internal/core/assembly\.go|benchmark/|\.bench_build/)'
    find . -name '*.go' ! -name '*_test.go' ! -path './internal/core/assembly.go' \
        ! -path './benchmark/*' ! -path './.bench_build/*' -exec awk '
        /^func / { fn = FILENAME ":" FNR; ticker = 0; beat = 0 }
        /^[[:space:]]*\/\// { next }
        /NewTicker\(|time\.Tick\(/ { ticker = 1 }
        /HeartbeatNow\(|HeartbeatAll\(/ { beat = 1 }
        ticker && beat && !(fn in seen) { seen[fn] = 1; print fn ": a heartbeat ticker of its own" }
    ' {} +
} || true)
if [ -n "$assembly" ]; then
    echo "region assembly outside internal/core/assembly.go (lay out addresses and run heartbeats with core's constructors):" >&2
    echo "$assembly" >&2
    exit 1
fi

# One owner of the WOS log (DESIGN.md §7): the reader and the SMS take
# log-file paths and committed extents from internal/fragment, so
# neither depends on the Stream Server that writes the files.
if go list -deps ./internal/client ./internal/sms | grep -qx 'vortex/internal/streamserver'; then
    echo "internal/client or internal/sms depends on internal/streamserver; use internal/fragment's paths and extents" >&2
    exit 1
fi

# One WOS block codec (DESIGN.md §3, §11): the client encodes an append with
# wire.AppendBlock, and the Stream Server and the reader decode it with
# wire.DecodeBlock, so neither side goes back to the row codec.
row_codec=$(grep -nE 'rowenc\.(EncodeRows|DecodeRows)\(' \
    $(ls internal/client/*.go internal/streamserver/*.go | grep -v '_test\.go$') || true)
if [ -n "$row_codec" ]; then
    echo "row codec on the WOS data path (encode and decode blocks with wire.AppendBlock and wire.DecodeBlock):" >&2
    echo "$row_codec" >&2
    exit 1
fi

# The chaos suites are expected to be deterministic under -race; an
# ordering flake is a bug, so -shuffle=on surfaces hidden inter-test
# order dependencies. -race also turns on checkptr, which checks every
# unsafe.Pointer conversion schema.Value makes (value.go builds its
# string, bytes and element views with unsafe.String and unsafe.Slice).
go test -race -shuffle=on ./...

# Second race pass, -count=2 so interleavings vary: the packages whose
# goroutines share state a single run may not reach.
race_twice=$(sed 's|^\([a-z]*\) .*|./internal/\1/|' <<'EOF'
readsession   parallel shard readers, splits racing the serve loop, simulated worker crashes
dataflow      source connector fans shards out to readers and commits offsets behind them
query         leaf scans sharded across workers share cached column vectors
slicer        reassignment windows race load reports
sms           token-bucket admission and heartbeat coalescing race thousands of writers
rpc           unary calls and bi-di streams multiplexed over shared connections and windows
matview       CDC deltas arrive through parallel shard readers and leave through the partitioned sink
sql           feeds matview parsed definitions; cheap enough to ride along
disktier      Put/Get/Invalidate race GC unlinks against lock-protected index state
optimizer     scan, sort and write workers share a group's columns
EOF
)
# shellcheck disable=SC2086  # one argument per package
go test -race -count=2 $race_twice

# The transport micro-benchmarks (frame codec, TCP unary echo, stream
# ping-pong with its credit frames), the column codec's (PLAIN, DICT
# and RLE pages, encode and decode), the row codec's, the ROS file
# writer's and reader's, the SMS read view's (100 ROS fragment records
# and a writable streamlet, and a lone streamlet beside another table's
# 1 000 ROS records) and delta heartbeat round's (one dirty
# streamlet beside 0, 100 and 1 000 ROS records), the optimizer's (one
# ConvertTable over 54 000 loaded rows), the leaf scan's (cursor walk and encode per
# fragment kind), schema.Value's (a clustering sort over columns of
# values), Snappy's (encode and decode of structured bytes), the
# query engine's (GROUP BY over DICT, INT64 and RLE keys, and MIN/MAX)
# and the read session's serve path (filter, frame encode and decode of
# one assignment) run one iteration each, so they cannot rot between the
# PRs that read their numbers.
go test -run '^$' -bench . -benchtime 1x ./internal/rpc/ ./internal/wire/ ./internal/rowenc/ ./internal/ros/ ./internal/sms/ ./internal/optimizer/ ./internal/client/ ./internal/schema/ ./internal/snappy/ ./internal/query/ ./internal/readsession/

# Encoded-domain filtering must return what filtering row by row
# returns: code-skip accounting on keyless and keyed tables, and
# read-session serving against the row API as oracle.
go test -short -count=1 -run 'TestVectorized' ./internal/query/ ./internal/readsession/

# The seeded benchmark is a module of its own, frozen between benchmark
# PRs, and imports internal packages by name: vet catches a signature it
# compiles against changing, the tests a broken oracle — here and not in
# the benchmark pipeline.
go vet -C benchmark ./...
go test -C benchmark ./...

# Fuzz smoke: a short budget per decoder that faces a peer or a disk
# catches regressions in the hostile-input guards without turning the
# check into a soak. The checked-in corpora ran as plain seeds above;
# this explores beyond them. One invocation per target is a go test
# restriction. client FuzzDecodeWOSBlocks holds the reader's decode of a
# WOS block to the Stream Server's check of it (wire.DecodeBlock), query
# FuzzComparisonKernel the typed comparison kernel to sql.Eval,
# readsession FuzzDecodeBatchFrame a reader's frame decode to the
# identity-column rules, and ros FuzzWriterParity the ROS writer's typed
# path to Add and to the value-at-a-time page policy.
while read -r pkg target; do
    go test -run '^$' -fuzz "${target}\$" -fuzztime 10s "./internal/$pkg/"
done <<'EOF'
bin       FuzzReader
snappy    FuzzDecode
rowenc    FuzzDecodeRow
rowenc    FuzzDecodeRows
blockenc  FuzzOpen
client    FuzzDecodeWOSBlocks
fragment  FuzzScan
ros       FuzzOpen
ros       FuzzWriterParity
wire      FuzzDecodeRecordBatch
wire      FuzzDecodeColumn
wire      FuzzSelectionGather
query     FuzzComparisonKernel
readsession FuzzDecodeBatchFrame
disktier  FuzzDecodeEntry
rpc       FuzzDecodeFrame
rpc       FuzzConnFrames
sql       FuzzParse
EOF

# Programs with no test files: run each once, so a panic or a failed
# self-check (the examples and vortex-verify exit non-zero on one) fails
# the gate. vortexd and vortexctl need a listening port and stay covered
# by vet only.
while read -r prog; do
    echo "smoke: go run $prog"
    # shellcheck disable=SC2086  # $prog is a path plus its flags
    go run $prog >/dev/null </dev/null
done <<'EOF'
./cmd/vortex-bench -experiment compression
./cmd/vortex-sim -seed 1 -duration 1s -quiet
./cmd/vortex-verify
./examples/quickstart
./examples/clickstream
./examples/cdc_upsert
./examples/batch_etl
EOF

# Seed sweep of the simulation harness: seeds 1..20 at -clients 4
# -duration 3s, every invariant under each seed's random chaos program,
# each seed run twice and its two event logs compared (a seed replays).
REPLAY=1 sh scripts/sweep.sh 20

# Non-test, non-comment Go lines per package: the number a simplicity
# PR reports parent -> change.
sh scripts/loc.sh
