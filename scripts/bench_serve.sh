#!/usr/bin/env bash
# Serve-layer saturation benchmark: requests/sec vs worker shard count.
#
# Runs the same fixed multi-tenant workload (tenants x writes-per-tenant
# libquantum-profile streams, each tenant its own key domain) through
# the deuce-serve front end at each shard count. Every run verifies its
# per-tenant memory fingerprints against a single-threaded replay
# inside the binary (replay_match), and this script additionally
# asserts the fingerprint set is identical across ALL shard counts —
# the throughput curve only gets recorded if the results never moved.
# Writes BENCH_serve.json.
#
#   bash scripts/bench_serve.sh [tenants] [writes] [shard_counts...]
#   # defaults: 64 tenants, 1250 writes per tenant, shards 1 2 4 8
#
# One run lasts about a tenth of a second, so each point is the run with
# the median requests/sec out of REPEAT runs.
#
# Each tenant is owned by one shard (tenant i on shard i % shards), so
# parallelism comes from tenants: the default keeps 80k writes in all
# but spreads them over 64 tenants, enough to fill every shard.
set -euo pipefail
cd "$(dirname "$0")/.."

REPEAT=5
TENANTS="${1:-64}"
WRITES="${2:-1250}"
shift $(( $# > 2 ? 2 : $# )) || true
SHARD_COUNTS=("${@:-}")
if [ -z "${SHARD_COUNTS[0]:-}" ]; then
    SHARD_COUNTS=(1 2 4 8)
fi

echo "==> cargo build --release --offline --example serve_bench"
cargo build --release --offline --example serve_bench
BIN=target/release/examples/serve_bench

field() { sed -n "s/.*\"$2\":\"\{0,1\}\([0-9a-fx.-]*\)\"\{0,1\}[,}].*/\1/p" <<<"$1"; }

RUNS=""
BASE_FPS=""
BASE_RPS=""
BEST_RPS=""
BEST_SHARDS=""
for shards in "${SHARD_COUNTS[@]}"; do
    echo "==> $shards shard(s): $TENANTS tenants x $WRITES writes, median of $REPEAT runs"
    SAMPLES=()
    for _ in $(seq "$REPEAT"); do
        RUN="$("$BIN" "$shards" "$TENANTS" "$WRITES")"
        if [ "$(field "$RUN" replay_match)" != "1" ]; then
            echo "DETERMINISM FAILURE: replay mismatch at $shards shards" >&2
            exit 1
        fi
        FPS="$(field "$RUN" fingerprints)"
        if [ -z "$BASE_FPS" ]; then
            BASE_FPS="$FPS"
        elif [ "$FPS" != "$BASE_FPS" ]; then
            echo "DETERMINISM FAILURE: fingerprints moved between runs" >&2
            echo "  first run: $BASE_FPS" >&2
            echo "  at $shards shards: $FPS" >&2
            exit 1
        fi
        SAMPLES+=("$(field "$RUN" requests_per_sec) $RUN")
    done
    RUN="$(printf '%s\n' "${SAMPLES[@]}" | sort -n | sed -n "$(( (REPEAT + 1) / 2 ))p" | cut -d' ' -f2-)"
    echo "$RUN"
    RPS="$(field "$RUN" requests_per_sec)"
    if [ -z "$BASE_RPS" ]; then
        BASE_RPS="$RPS"
    fi
    if [ -z "$BEST_RPS" ] || awk -v a="$RPS" -v b="$BEST_RPS" 'BEGIN{exit !(a>b)}'; then
        BEST_RPS="$RPS"
        BEST_SHARDS="$shards"
    fi
    RUNS="${RUNS:+$RUNS,
    }$RUN"
done
echo "==> determinism OK (per-tenant fingerprints identical at every shard count)"

SPEEDUP="$(awk -v a="$BEST_RPS" -v b="$BASE_RPS" 'BEGIN{printf "%.2f", a/b}')"

DATE="$(date +%F)"
cat > BENCH_serve.json <<EOF
{
  "description": "Saturation curve of the deuce-serve sharded multi-tenant front end: $TENANTS tenants, each a libquantum-profile request stream of $WRITES writes (plus interleaved reads) in its own key domain, submitted by one thread per tenant in batches of 32 with QueueFull retry, at shard counts ${SHARD_COUNTS[*]}; tenant i is owned by shard i % shards. Each point is the run with the median requests/sec out of $REPEAT. Every run verified its per-tenant memory fingerprints bit-identical to a single-threaded replay (replay_match), and the fingerprint set was verified identical across all shard counts by scripts/bench_serve.sh before this file was written — the curve only records runs whose results were provably shard-count-invariant.",
  "date": "$DATE",
  "tenants": $TENANTS,
  "writes_per_tenant": $WRITES,
  "runs_per_point": $REPEAT,
  "shard_counts": [$(IFS=,; echo "${SHARD_COUNTS[*]}")],
  "runs": [
    $RUNS
  ],
  "summary": {
    "requests_per_sec_serve": $BEST_RPS,
    "best_shard_count": $BEST_SHARDS,
    "serve_parallel_speedup": $SPEEDUP,
    "note": "requests_per_sec_serve is the best throughput across the swept shard counts; serve_parallel_speedup is that best divided by the single-shard throughput of the same workload. Per-tenant results are bit-identical at every point on the curve."
  }
}
EOF
echo "==> wrote BENCH_serve.json (best ${BEST_RPS} req/s at ${BEST_SHARDS} shards, ${SPEEDUP}x over 1 shard)"
