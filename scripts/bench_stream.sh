#!/usr/bin/env bash
# Materialised-vs-streaming benchmark: peak resident bytes and writes/sec.
#
# Runs the same DEUCE simulation twice — once with the whole trace
# materialised in RAM (`run_source` over a `TraceSource`) and once
# streamed straight from the generator (`run_source` over the generator
# stream) — each in its own process so `VmHWM` isolates
# the per-mode peak resident set. Asserts the two runs are bit-identical
# before writing BENCH_stream.json.
#
#   bash scripts/bench_stream.sh [writes]    # default 100,000,000
set -euo pipefail
cd "$(dirname "$0")/.."

WRITES="${1:-100000000}"

echo "==> cargo build --release --offline --example stream_bench"
cargo build --release --offline --example stream_bench
BIN=target/release/examples/stream_bench

echo "==> materialised run ($WRITES writes)"
MAT="$("$BIN" materialised "$WRITES")"
echo "$MAT"
echo "==> streaming run ($WRITES writes)"
STR="$("$BIN" streaming "$WRITES")"
echo "$STR"

field() { sed -n "s/.*\"$2\":\"\{0,1\}\([0-9a-fx.]*\)\"\{0,1\}[,}].*/\1/p" <<<"$1"; }

# Bit-identical check: every paper-facing counter and the simulated-time
# bit pattern must agree between the two modes.
for key in writes_counted reads data_flips meta_flips exec_time_ns_bits; do
    m="$(field "$MAT" "$key")"
    s="$(field "$STR" "$key")"
    if [ "$m" != "$s" ]; then
        echo "PARITY FAILURE: $key materialised=$m streaming=$s" >&2
        exit 1
    fi
done
echo "==> parity OK (streaming is bit-identical to materialised)"

MAT_RSS="$(field "$MAT" peak_resident_bytes)"
STR_RSS="$(field "$STR" peak_resident_bytes)"
MAT_WPS="$(field "$MAT" writes_per_sec)"
STR_WPS="$(field "$STR" writes_per_sec)"
RSS_RATIO="$(awk -v a="$MAT_RSS" -v b="$STR_RSS" 'BEGIN{printf "%.2f", a/b}')"

DATE="$(date +%F)"
cat > BENCH_stream.json <<EOF
{
  "description": "Streaming-vs-materialised run of the DEUCE scheme over a synthetic Mcf workload (65536 lines, 4 cores, seed 7), $WRITES writebacks. 'materialised' generates the full trace in RAM and runs Simulator::run_source over a TraceSource; 'streaming' drives Simulator::run_source directly from the generator, so the trace is never resident. Each mode runs in its own process and reports its own VmHWM peak. Both runs were verified bit-identical (writes, reads, data/meta flips, exec_time_ns bit pattern) by scripts/bench_stream.sh before this file was written.",
  "date": "$DATE",
  "writes": $WRITES,
  "materialised": $MAT,
  "streaming": $STR,
  "summary": {
    "peak_resident_bytes_materialised": $MAT_RSS,
    "peak_resident_bytes_streaming": $STR_RSS,
    "resident_ratio": $RSS_RATIO,
    "writes_per_sec_materialised": $MAT_WPS,
    "writes_per_sec_streaming": $STR_WPS,
    "note": "streaming peak memory is dominated by simulator state (per-line counters, wear maps) and stays flat as the trace grows; the materialised peak scales with the event count."
  }
}
EOF
echo "==> wrote BENCH_stream.json"
