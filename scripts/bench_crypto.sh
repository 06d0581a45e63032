#!/usr/bin/env bash
# Per-tier crypto benchmark: times the AES block paths (single, 4-wide,
# 8-wide) and the line-pad paths (single and paired) on every dispatch
# tier this host offers — reference, T-table, and hardware where
# detected — then writes the numbers and headline speedups to
# BENCH_crypto.json. The differential suites pin every tier
# bit-identical; this script records what the fast tiers buy.
#
#   bash scripts/bench_crypto.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline -p deuce-cli"
cargo build --release --offline -p deuce-cli
DEUCE=target/release/deuce

DETECTED="$("$DEUCE" aes-backend | awk -F'\t' '$1 == "detected" {print $2}')"
AVAILABLE="$("$DEUCE" aes-backend | awk -F'\t' '$1 == "available" {print $2}')"
echo "==> detected tier: $DETECTED (available: $AVAILABLE)"

echo "==> cargo bench -p deuce-bench --bench hot_paths -- pad_throughput"
OUT="$(cargo bench -q --offline -p deuce-bench --bench hot_paths -- pad_throughput)"
echo "$OUT"

ns() {
    awk -F'\t' -v n="pad_throughput/$1" '$1 == n {print $2}' <<<"$OUT"
}

# One JSON object per tier; the reference tier has no batched entry
# points of its own (its batches loop the single-block path).
TIERS_JSON=""
for tier in $AVAILABLE; do
    lp="$(ns "line_pad_$tier")"
    lpp="$(ns "line_pad_pair_$tier")"
    if [ "$tier" = reference ]; then
        blk="$(ns aes_block_reference)"
        b4=null
        b8=null
    else
        blk="$(ns "aes_block_$tier")"
        b4="$(ns "aes_blocks4_$tier")"
        b8="$(ns "aes_blocks8_$tier")"
    fi
    TIERS_JSON="$TIERS_JSON
    \"$tier\": {\"aes_block\": $blk, \"aes_blocks4\": $b4, \"aes_blocks8\": $b8, \"line_pad\": $lp, \"line_pad_pair\": $lpp},"
done
TIERS_JSON="${TIERS_JSON%,}"

LP_REF="$(ns line_pad_reference)"
LP_TT="$(ns line_pad_ttable)"
LP_DET="$(ns "line_pad_$DETECTED")"
SPEEDUP_REF="$(awk -v a="$LP_REF" -v b="$LP_DET" 'BEGIN{printf "%.1f", a/b}')"
SPEEDUP_TT="$(awk -v a="$LP_TT" -v b="$LP_DET" 'BEGIN{printf "%.1f", a/b}')"
echo "==> line_pad on '$DETECTED': ${LP_DET}ns (${SPEEDUP_REF}x vs reference, ${SPEEDUP_TT}x vs ttable)"

DATE="$(date +%F)"
cat > BENCH_crypto.json <<EOF
{
  "description": "Per-tier crypto benchmarks: the AES block paths (single, 4-wide, 8-wide batched) and the line-pad paths (single and LCTR/TCTR paired) timed on every AES dispatch tier this host offers. Measured with \`cargo bench -p deuce-bench --bench hot_paths -- pad_throughput\` (calibrating harness, release profile); detected tier '$DETECTED'. All tiers are bit-identical (deuce-aes/tests/differential.rs, deuce-crypto/tests/engine_differential.rs, re-run per tier under DEUCE_AES_FORCE by scripts/ci.sh); the tiers differ only in speed. Historical note: the pre-dispatch T-table baseline recorded 227.5ns line_pad / 257.4ns batched on 2026-08-06.",
  "date": "$DATE",
  "units": "ns_per_iter",
  "detected_tier": "$DETECTED",
  "available_tiers": "$AVAILABLE",
  "tiers": {$TIERS_JSON
  },
  "pad_xor": {
    "xor_line_words": $(ns xor_line_words),
    "note": "u64-chunked 64-byte XOR in place; differential-tested against the byte loop in deuce-crypto pad tests."
  },
  "summary": {
    "aes_backend_detected": "$DETECTED",
    "line_pad_ns_detected": $LP_DET,
    "line_pad_ns_ttable": $LP_TT,
    "line_pad_ns_reference": $LP_REF,
    "speedup_line_pad": $SPEEDUP_REF,
    "speedup_line_pad_vs_ttable": $SPEEDUP_TT,
    "note": "speedup_line_pad compares the detected tier against the byte-oriented reference; speedup_line_pad_vs_ttable against the portable T-table fallback. The hw tier pipelines eight AES states per call (one dual-pad DEUCE read) through AES-NI/NEON rounds."
  }
}
EOF
echo "==> wrote BENCH_crypto.json"
