#!/usr/bin/env sh
# Seed sweep of the simulation harness: builds cmd/vortex-sim once, runs
# seeds 1..N (-clients 4 -duration 3s) in parallel, prints the repro
# line of every seed that breaks an invariant, and exits non-zero if any
# did. With LOGDIR, each seed's event log is written to
# LOGDIR/seed-<n>.log, so the sweeps of two commits can be diffed.
#
# Usage: scripts/sweep.sh N [LOGDIR]     (JOBS=4 sets the parallelism)
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

# One job per seed: stdout (the event log) goes to LOGDIR or nowhere,
# stderr (the violation and its repro line) to $work/<seed>.err, kept
# only when the seed fails.
export work logdir
seq 1 "$n" | xargs -P "${JOBS:-4}" -I{} sh -c '
    log=/dev/null
    if [ -n "$logdir" ]; then log="$logdir/seed-{}.log"; fi
    "$work/vortex-sim" -seed {} -clients 4 -duration 3s >"$log" 2>"$work/{}.err" ||
        mv "$work/{}.err" "$work/{}.fail"
' || true

failed=0
for s in $(seq 1 "$n"); do
    if [ -f "$work/$s.fail" ]; then
        failed=$((failed + 1))
        grep '^REPRO:' "$work/$s.fail" || echo "seed $s failed without a repro line"
    fi
done
echo "sweep: $failed of $n seeds failed"
[ "$failed" -eq 0 ]
