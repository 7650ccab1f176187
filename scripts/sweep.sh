#!/usr/bin/env sh
# Seed sweep of the simulation harness: builds cmd/vortex-sim once, runs
# seeds 1..N (-clients 4 -duration 3s) in parallel, prints the repro
# line of every seed that breaks an invariant, and exits non-zero if any
# did. With LOGDIR, each seed's event log is written to
# LOGDIR/seed-<n>.log, so the sweeps of two commits can be diffed. With
# REPLAY=1, each seed runs twice and a seed whose two event logs differ
# fails too (a REPLAY line): the harness promises a seed replays.
#
# Usage: scripts/sweep.sh N [LOGDIR]     (JOBS=4 sets the parallelism,
#                                         REPLAY=1 the replay check)
set -eu

n=${1:?usage: scripts/sweep.sh N [LOGDIR]}
logdir=${2:-}
if [ -n "$logdir" ]; then
    mkdir -p "$logdir"
    logdir=$(cd "$logdir" && pwd)
fi
cd "$(dirname "$0")/.."
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
go build -o "$work/vortex-sim" ./cmd/vortex-sim

# One job per seed: stdout (the event log) goes to LOGDIR, to $work for
# the replay check, or nowhere; stderr (the violation and its repro
# line) to $work/<seed>.err, kept only when the seed fails. A replay
# compares a second run's log with the first's.
replay=${REPLAY:-}
export work logdir replay
seq 1 "$n" | xargs -P "${JOBS:-4}" -I{} sh -c '
    sim() { "$work/vortex-sim" -seed {} -clients 4 -duration 3s; }
    log=/dev/null
    if [ -n "$logdir" ]; then log="$logdir/seed-{}.log"; elif [ -n "$replay" ]; then log="$work/{}.log"; fi
    if ! sim >"$log" 2>"$work/{}.err"; then
        mv "$work/{}.err" "$work/{}.fail"
    elif [ -n "$replay" ] && ! sim 2>/dev/null | cmp -s - "$log"; then
        echo "REPLAY: seed {} gave two different event logs" >"$work/{}.fail"
    fi
' || true

failed=0
for s in $(seq 1 "$n"); do
    if [ -f "$work/$s.fail" ]; then
        failed=$((failed + 1))
        grep -E '^(REPRO|REPLAY):' "$work/$s.fail" || echo "seed $s failed without a repro line"
    fi
done
echo "sweep: $failed of $n seeds failed"
[ "$failed" -eq 0 ]
