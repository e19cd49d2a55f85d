#!/usr/bin/env bash
# Crash-restart smoke test over the real TCP binaries:
#
#   1. start a cluster with sealed durability directories
#   2. commit state through splitbft-client
#   3. SIGKILL one replica, commit more state without it
#   4. restart the killed replica over its data directory
#   5. stop a *different* replica, so further progress requires the
#      restarted one to participate in the agreement quorum — a successful
#      put/get then proves it recovered and rejoined.
set -euo pipefail

cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
BIN="$WORK/bin"
DATA="$WORK/data"
mkdir -p "$BIN" "$DATA"
SECRET="smoke-secret"
# SPLITBFT_AUTH=mac runs the same scenario on the MAC-authenticated
# agreement fast path (pairwise keys derived deterministically across the
# separate processes from -secret). Unset, the replicas run the consensus
# mode's default: sig in classic, mac in trusted.
AUTH_ARGS=()
if [ -n "${SPLITBFT_AUTH:-}" ]; then
    AUTH_ARGS=(-auth "$SPLITBFT_AUTH")
fi
AUTH="${SPLITBFT_AUTH:-default}"
# SPLITBFT_CONSENSUS=trusted runs the counter-backed 2f+1 mode: a
# three-replica group whose recovery must also restore the sealed trusted
# counter position before rejoining.
CONSENSUS="${SPLITBFT_CONSENSUS:-classic}"

if [ "$CONSENSUS" = trusted ]; then
    N=3
    PEERS="127.0.0.1:17400,127.0.0.1:17401,127.0.0.1:17402"
else
    N=4
    PEERS="127.0.0.1:17400,127.0.0.1:17401,127.0.0.1:17402,127.0.0.1:17403"
fi
# The crash victim and the later-stopped replica: with both out, progress
# needs the recovered victim back in the quorum for either group shape.
KILL_ID=$((N - 2))
STOP_ID=$((N - 1))
declare -a PIDS
for ((id = 0; id < N; id++)); do PIDS[$id]=0; done
# STARTED keeps every replica pid ever started, live or already signalled.
declare -a STARTED=()

cleanup() {
    local pid
    for pid in "${PIDS[@]}"; do
        [ "$pid" != 0 ] && kill "$pid" 2>/dev/null || true
    done
    # The replicas are disowned, so `wait` cannot join them, and a SIGTERM'd
    # one still writes its last snapshot into $DATA: poll until every one
    # has exited (at most ~10 s each, then SIGKILL) before removing anything.
    for pid in "${STARTED[@]}"; do
        for _ in $(seq 1 100); do
            kill -0 "$pid" 2>/dev/null || break
            sleep 0.1
        done
        kill -9 "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== building binaries"
go build -o "$BIN/splitbft-replica" ./cmd/splitbft-replica
go build -o "$BIN/splitbft-client" ./cmd/splitbft-client

start_replica() {
    local id=$1
    # -confidential=false: the CLI client attests against all n Execution
    # enclaves before invoking, which cannot complete while one replica is
    # down — and this test runs most of its ops exactly then.
    "$BIN/splitbft-replica" -id "$id" -n "$N" \
        -peers "$PEERS" -secret "$SECRET" -confidential=false \
        "${AUTH_ARGS[@]}" -consensus "$CONSENSUS" \
        -data-dir "$DATA/r$id" -stats 0 \
        -metrics-addr "127.0.0.1:$((17500 + id))" \
        >"$WORK/replica-$id.log" 2>&1 &
    PIDS[$id]=$!
    STARTED+=("$!")
    disown "${PIDS[$id]}" # keep bash quiet when we SIGKILL it
}

client() {
    "$BIN/splitbft-client" -id 100 -n "$N" \
        -replicas "$PEERS" -secret "$SECRET" -confidential=false \
        -consensus "$CONSENSUS" -timeout 30s "$@"
}

# wait_healthz <id> <want-status> polls a replica's /healthz until it
# answers with the wanted HTTP status or the deadline passes.
wait_healthz() {
    local id=$1 want=$2
    for _ in $(seq 1 80); do
        local got
        got=$(curl -s -o /dev/null -w '%{http_code}' \
            "http://127.0.0.1:$((17500 + id))/healthz" || true)
        [ "$got" = "$want" ] && return 0
        sleep 0.25
    done
    echo "FAIL: replica $id /healthz never reached $want (last: ${got:-none})"
    curl -s "http://127.0.0.1:$((17500 + id))/healthz" || true
    exit 1
}

echo "== starting $N replicas with sealed durability (auth=$AUTH, consensus=$CONSENSUS)"
for ((id = 0; id < N; id++)); do start_replica "$id"; done
sleep 1

echo "== committing state"
client put alpha one
client put beta two

echo "== scraping the introspection endpoint of replica 0"
wait_healthz 0 200
METRICS=$(curl -s "http://127.0.0.1:17500/metrics")
echo "$METRICS" | grep -q '^splitbft_executed_ops_total [1-9]' || {
    echo "FAIL: /metrics missing a non-zero splitbft_executed_ops_total"
    echo "$METRICS" | head -20
    exit 1
}
echo "$METRICS" | grep -q 'splitbft_wal_fsyncs_total{compartment="execution"}' || {
    echo "FAIL: /metrics missing the per-compartment WAL series"
    exit 1
}

echo "== SIGKILL replica $KILL_ID"
kill -9 "${PIDS[$KILL_ID]}"
PIDS[$KILL_ID]=0

echo "== committing during the outage (quorum of survivors)"
client put gamma three

echo "== survivor's /healthz must flip unhealthy while replica $KILL_ID is down"
wait_healthz 0 503
curl -s "http://127.0.0.1:17500/healthz" \
    | grep -q "\"id\":$KILL_ID,\"reachable\":false" || {
    echo "FAIL: /healthz does not name replica $KILL_ID as unreachable"
    curl -s "http://127.0.0.1:17500/healthz"
    exit 1
}

echo "== restarting replica $KILL_ID over its data directory"
start_replica "$KILL_ID"
sleep 1
grep -q "recovered" "$WORK/replica-$KILL_ID.log" || {
    echo "FAIL: restarted replica did not report recovery"
    cat "$WORK/replica-$KILL_ID.log"
    exit 1
}

echo "== survivor's /healthz must recover once replica $KILL_ID rejoins"
wait_healthz 0 200

echo "== stopping replica $STOP_ID: the quorum now needs the restarted replica"
kill "${PIDS[$STOP_ID]}"
PIDS[$STOP_ID]=0
sleep 1

echo "== asserting convergence through the recovered replica"
OUT=$(client put delta four)
echo "$OUT"
OUT=$(client get alpha)
echo "get alpha -> $OUT"
case "$OUT" in
    one*) ;;
    *) echo "FAIL: pre-crash state lost (got: $OUT)"; exit 1 ;;
esac

echo "== crash-restart smoke (auth=$AUTH, consensus=$CONSENSUS): OK"
