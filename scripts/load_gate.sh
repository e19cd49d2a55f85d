#!/usr/bin/env bash
# Load-regression gate: replay the committed load calibration (one sig
# run, one MAC run) with the open-loop generator and compare each fresh
# result against its trajectory point in perf/ with a noise band.
#
# The gate is noise-aware by construction: splitbft-load -compare only
# enforces the thresholds when the fresh run is genuinely comparable to
# the committed point — same schema, same calibration (mode, arrival,
# target rate, payload, in-flight bound), same workload configuration and
# same machine class (CPU count, GOMAXPROCS, OS/arch). Anything else
# downgrades to an advisory report that is printed but cannot fail CI, so
# a runner-class change never masquerades as a regression. Re-seed with
# SPLITBFT_LOAD_SEED_TRAJECTORY=1 (writes perf/ directly) after an
# intentional perf change, then commit the updated JSONs.
set -euo pipefail

cd "$(dirname "$0")/.."

BAND="${SPLITBFT_LOAD_BAND:-0.15}"
DURATION="${SPLITBFT_LOAD_DURATION:-6s}"
WARMUP="${SPLITBFT_LOAD_WARMUP:-1s}"
OUT="${SPLITBFT_LOAD_OUT:-load-results}"
mkdir -p "$OUT"

# CALIBRATION must stay in lockstep with the committed perf/BENCH_load_*
# points: changing any of these fields makes every comparison advisory
# until the trajectory is re-seeded.
CALIBRATION=(
    -mode open -arrival fixed -rate 250 -inflight 64 -queue 256
    -payload 10 -clients 4 -batch 1
)

run_leg() {
    local name=$1
    shift
    echo "== load gate: $name (band ±$(awk "BEGIN{print $BAND*100}")%)"
    if [ "${SPLITBFT_LOAD_SEED_TRAJECTORY:-0}" = 1 ]; then
        go run ./cmd/splitbft-load "${CALIBRATION[@]}" "$@" \
            -duration "$DURATION" -warmup "$WARMUP" \
            -json "perf/BENCH_load_$name.json"
    else
        go run ./cmd/splitbft-load "${CALIBRATION[@]}" "$@" \
            -duration "$DURATION" -warmup "$WARMUP" \
            -json "$OUT/BENCH_load_$name.json" \
            -compare "perf/BENCH_load_$name.json" -band "$BAND"
    fi
}

# One retry per leg: on a small box a background scheduling burst can put
# 100ms+ on the p99 of an otherwise-quiet run, and with a few thousand
# samples those ops ARE the p99. A transient burst passes the re-run; a
# sustained queueing regression fails both attempts.
gate_leg() {
    run_leg "$@" && return 0
    echo "== load gate: $1 leg failed once — retrying to rule out transient tail noise"
    run_leg "$@"
}

gate_leg sig -auth sig
gate_leg mac -auth mac
# The trusted-consensus leg rides the MAC fast path so its point differs
# from BENCH_load_mac.json only in the consensus mode (and the 2f+1 group
# shape). Its calibration is new: until a trajectory point from the same
# machine class is committed, the comparison stays advisory by design.
gate_leg trusted -auth mac -consensus trusted
# The read-mix leg offers the committed 250 ops/s as a 90/10 GET/PUT mix
# with the lease-anchored local read fast path on: it gates the read
# path's end-to-end latency (the per-class split is in the JSON) and
# catches a fast path that silently stops engaging — leased local reads
# falling back to agreement shows up as a p99 blowout at this rate.
gate_leg readmix -auth sig -read-frac 0.9 -read-leases

# The observability-overhead leg replays the sig calibration with the
# metrics registry and request tracing enabled (-stage-breakdown) and
# gates the instrumented run against the SAME committed sig point: the
# registry is pull-only and tracing stamps are a mutex-guarded map write
# per stage, so the overhead must stay inside the noise band of the
# uninstrumented trajectory. Result.Stages is deliberately not part of
# the workload identity — that is what keeps this a hard comparison
# rather than an advisory one. Never seeds: the sig leg owns the point.
obs_leg() {
    go run ./cmd/splitbft-load "${CALIBRATION[@]}" -auth sig -stage-breakdown \
        -duration "$DURATION" -warmup "$WARMUP" \
        -json "$OUT/BENCH_load_obs.json" \
        -compare "perf/BENCH_load_sig.json" -band "$BAND"
}
if [ "${SPLITBFT_LOAD_SEED_TRAJECTORY:-0}" != 1 ]; then
    echo "== load gate: obs (observability overhead vs committed sig point, band ±$(awk "BEGIN{print $BAND*100}")%)"
    obs_leg || {
        echo "== load gate: obs leg failed once — retrying to rule out transient tail noise"
        obs_leg
    }
fi

echo "== load gate: OK"
