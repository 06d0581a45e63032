#!/usr/bin/env bash
# Tier-1 verification: hermetic build, full test suite, lint.
#
# The workspace has zero external dependencies, so everything runs with
# --offline on a bare toolchain. Run from the repository root:
#
#   bash scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline --workspace"
cargo build --release --offline --workspace
DEUCE=target/release/deuce

echo "==> cargo test -q --offline --workspace (fresh TMPDIR, no deuce-* entry may be left)"
# Tests that write scratch files under the system temp dir must remove
# them. Running the suite against a fresh TMPDIR makes a leak visible.
TEST_TMP="$(mktemp -d)"
trap 'rm -rf "$TEST_TMP"' EXIT
TMPDIR="$TEST_TMP" cargo test -q --offline --workspace
leaked="$(find "$TEST_TMP" -mindepth 1 -maxdepth 1 -name 'deuce-*' -printf '%f\n' | sort)"
if [ -n "$leaked" ]; then
    echo "FAIL: the workspace tests left these entries in TMPDIR:" >&2
    echo "$leaked" >&2
    exit 1
fi
rm -rf "$TEST_TMP"

echo "==> AES differential suites, once per dispatch tier (FIPS-197 + randomized)"
TIERS="$("$DEUCE" aes-backend | awk -F'\t' '$1 == "available" {print $2}')"
DETECTED="$("$DEUCE" aes-backend | awk -F'\t' '$1 == "detected" {print $2}')"
echo "    detected: $DETECTED; exercising: $TIERS"
# Cross-check dispatch against the kernel's own CPU flags: if this host
# has hardware AES, the hw tier must be in the exercised set — a silent
# fall-back to ttable here would leave the fast path untested.
if grep -q '^flags.* aes' /proc/cpuinfo 2>/dev/null; then
    case " $TIERS " in
        *" hw "*) ;;
        *)
            echo "FAIL: /proc/cpuinfo advertises AES but the hw tier is not available" >&2
            exit 1
            ;;
    esac
fi
case " $TIERS " in
    *" $DETECTED "*) ;;
    *)
        echo "FAIL: detected tier '$DETECTED' missing from available set '$TIERS'" >&2
        exit 1
        ;;
esac
for tier in $TIERS; do
    echo "    DEUCE_AES_FORCE=$tier"
    DEUCE_AES_FORCE=$tier cargo test -q --offline -p deuce-aes --test differential
    DEUCE_AES_FORCE=$tier cargo test -q --offline -p deuce-crypto --test engine_differential
done

echo "==> cargo clippy -q --offline --workspace --all-targets -- -D warnings"
cargo clippy -q --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc --offline --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --no-deps --workspace

echo "==> hot_paths bench smoke (one untimed iteration per benchmark)"
DEUCE_BENCH_SMOKE=1 cargo bench -q --offline -p deuce-bench --bench hot_paths > /dev/null

echo "==> telemetry smoke test (deterministic report vs golden)"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
"$DEUCE" gen --benchmark libq --writes 2000 --lines 64 --seed 42 \
    -o "$SMOKE_DIR/smoke.trace" > /dev/null
"$DEUCE" run --trace "$SMOKE_DIR/smoke.trace" --scheme deuce \
    --telemetry "$SMOKE_DIR/smoke.jsonl" --sample-every 256 > /dev/null
"$DEUCE" report "$SMOKE_DIR/smoke.jsonl" > "$SMOKE_DIR/smoke.report"
# Everything above the profiling section is deterministic; wall-clock
# stage timings below it are not.
awk '/^== profiling/{exit} {print}' "$SMOKE_DIR/smoke.report" \
    > "$SMOKE_DIR/smoke.report.stable"
diff -u results/telemetry/golden_smoke_report.txt "$SMOKE_DIR/smoke.report.stable"

echo "==> fault-injection smoke test (deterministic report vs golden)"
"$DEUCE" run --trace "$SMOKE_DIR/smoke.trace" --scheme encdcw \
    --faults --endurance-scale 2e-8 --ecp-entries 2 --spare-lines 4 \
    --telemetry "$SMOKE_DIR/faults.jsonl" --sample-every 256 > /dev/null
"$DEUCE" report "$SMOKE_DIR/faults.jsonl" > "$SMOKE_DIR/faults.report"
awk '/^== profiling/{exit} {print}' "$SMOKE_DIR/faults.report" \
    > "$SMOKE_DIR/faults.report.stable"
diff -u results/telemetry/golden_faults_report.txt "$SMOKE_DIR/faults.report.stable"

echo "==> sharded-sweep smoke test (shard + merge == unsharded, byte-identical)"
"$DEUCE" sweep --trace "$SMOKE_DIR/smoke.trace" > "$SMOKE_DIR/sweep.unsharded"
"$DEUCE" sweep --trace "$SMOKE_DIR/smoke.trace" \
    --shard 0/2 --manifest "$SMOKE_DIR/shard0.jsonl" > /dev/null
"$DEUCE" sweep --trace "$SMOKE_DIR/smoke.trace" \
    --shard 1/2 --manifest "$SMOKE_DIR/shard1.jsonl" > /dev/null
"$DEUCE" merge "$SMOKE_DIR/shard0.jsonl" "$SMOKE_DIR/shard1.jsonl" \
    > "$SMOKE_DIR/sweep.merged"
diff -u "$SMOKE_DIR/sweep.unsharded" "$SMOKE_DIR/sweep.merged"

echo "==> source-parity smoke test (run over the saved trace == run over the generator)"
# smoke.trace was written by gen with these workload flags, so the two
# sources carry the same events and the summaries must match byte for
# byte.
"$DEUCE" run --trace "$SMOKE_DIR/smoke.trace" --scheme deuce > "$SMOKE_DIR/run.saved"
"$DEUCE" run --benchmark libq --writes 2000 --lines 64 --seed 42 --scheme deuce \
    > "$SMOKE_DIR/run.generated"
diff -u "$SMOKE_DIR/run.saved" "$SMOKE_DIR/run.generated"

echo "==> forced-tier smoke test (every tier end-to-end byte-identical)"
# Every tier must produce the identical run summary; only the
# aes_backend row — which names the tier and exists to differ — is
# stripped before the diff.
for tier in $TIERS; do
    DEUCE_AES_FORCE=$tier "$DEUCE" run --trace "$SMOKE_DIR/smoke.trace" --scheme deuce \
        > "$SMOKE_DIR/run.$tier"
    grep -q "^aes_backend	$tier\$" "$SMOKE_DIR/run.$tier"
    grep -v '^aes_backend' "$SMOKE_DIR/run.$tier" \
        | diff -u <(grep -v '^aes_backend' "$SMOKE_DIR/run.saved") -
done

echo "==> paged-store smoke test (page-file run == arena run, byte-identical)"
"$DEUCE" gen --benchmark mcf --writes 1000 --lines 192 --seed 9 \
    -o "$SMOKE_DIR/paged.trace" > /dev/null
"$DEUCE" run --trace "$SMOKE_DIR/paged.trace" --scheme deuce > "$SMOKE_DIR/paged.arena"
# A 3-page budget holds all 192 lines: nothing evicts, so the summary —
# including the line_store_bytes residency gauge — must match the arena
# run byte for byte once the store_* rows are stripped.
"$DEUCE" run --trace "$SMOKE_DIR/paged.trace" --scheme deuce \
    --store-file "$SMOKE_DIR/smoke.pages" --resident-pages 3 > "$SMOKE_DIR/paged.full"
grep -v '^store_' "$SMOKE_DIR/paged.full" | diff -u "$SMOKE_DIR/paged.arena" -
# A 1-page budget faults and evicts throughout; every simulated result
# still matches, only the residency gauge may differ (evicted slots are
# no longer resident at end of run).
"$DEUCE" run --trace "$SMOKE_DIR/paged.trace" --scheme deuce \
    --store-file "$SMOKE_DIR/smoke.pages" --resident-pages 1 > "$SMOKE_DIR/paged.tiny"
grep -v '^store_\|^line_store_bytes' "$SMOKE_DIR/paged.tiny" \
    | diff -u <(grep -v '^line_store_bytes' "$SMOKE_DIR/paged.arena") -
evictions="$(awk -F'\t' '$1 == "store_page_evictions" {print $2}' "$SMOKE_DIR/paged.tiny")"
[ -n "$evictions" ] && [ "$evictions" -gt 0 ]

echo "==> observability smoke test (span trace, watch --once, flight dump vs golden)"
# Span tracing: the exported file is Chrome trace-event JSON
# (Perfetto-loadable); timings are wall-clock so only shape is checked.
"$DEUCE" run --trace "$SMOKE_DIR/smoke.trace" --scheme deuce \
    --trace-out "$SMOKE_DIR/spans.json" > /dev/null
grep -q '"traceEvents"' "$SMOKE_DIR/spans.json"
grep -q 'stage:scheme' "$SMOKE_DIR/spans.json"
# watch --once over a finished sweep manifest: one deterministic
# snapshot showing the full grid complete.
"$DEUCE" sweep --trace "$SMOKE_DIR/smoke.trace" \
    --manifest "$SMOKE_DIR/watch-manifest.jsonl" > /dev/null
"$DEUCE" watch --once "$SMOKE_DIR/watch-manifest.jsonl" > "$SMOKE_DIR/watch.out"
grep -q '16/16 cells' "$SMOKE_DIR/watch.out"
grep -q "$(printf '\tdone')" "$SMOKE_DIR/watch.out"
# Flight recorder: the forced-UE fault run dumps its ring; every field
# is a simulated quantity, so the dump diffs against a golden.
"$DEUCE" run --trace "$SMOKE_DIR/smoke.trace" --scheme encdcw \
    --faults --endurance-scale 2e-8 --ecp-entries 2 --spare-lines 4 \
    --flight-recorder 32 --telemetry "$SMOKE_DIR/flight.jsonl" --sample-every 256 > /dev/null
diff -u results/telemetry/golden_flight_dump.jsonl "$SMOKE_DIR/flight.jsonl.flight.jsonl"

echo "==> serve smoke test (sharded service == single-threaded replay, byte-identical)"
# Six tenants through four worker shards: tenant i lives on shard
# i % 4, so shards 0 and 1 each own two tenants. Stdout carries only
# the deterministic per-tenant blocks, so it must diff clean against
# the single-threaded --replay of the same flags.
"$DEUCE" serve --tenants 6 --shards 4 --requests 800 --queue-depth 128 \
    --telemetry "$SMOKE_DIR/serve.jsonl" --progress "$SMOKE_DIR/serve-progress.jsonl" \
    > "$SMOKE_DIR/serve.out" 2> /dev/null
"$DEUCE" serve --tenants 6 --requests 800 --replay > "$SMOKE_DIR/serve.replay"
diff -u "$SMOKE_DIR/serve.replay" "$SMOKE_DIR/serve.out"
# The serve layer's spans ride the standard telemetry pipeline: the
# report's span table names the serve stages.
"$DEUCE" report "$SMOKE_DIR/serve.jsonl" > "$SMOKE_DIR/serve.report"
grep -q '^== spans' "$SMOKE_DIR/serve.report"
grep -q 'shard:drain' "$SMOKE_DIR/serve.report"
grep -q 'serve:apply' "$SMOKE_DIR/serve.report"
# watch understands the progress stream and shows the run complete.
"$DEUCE" watch --once "$SMOKE_DIR/serve-progress.jsonl" > "$SMOKE_DIR/serve-watch.out"
grep -q 'requests applied' "$SMOKE_DIR/serve-watch.out"
grep -q "$(printf '\tdone')" "$SMOKE_DIR/serve-watch.out"
# The replay contract holds for per-tenant page files too, store_*
# paging counters included: fingerprinting visits lines in sorted
# address order, so the fault/eviction sequence is pinned even at a
# thrash-inducing 2-page resident budget. (Fresh directories per run —
# reusing a warm page file legitimately changes the paging counters.)
mkdir -p "$SMOKE_DIR/serve-pages-a" "$SMOKE_DIR/serve-pages-b"
"$DEUCE" serve --tenants 6 --shards 4 --requests 800 \
    --store-dir "$SMOKE_DIR/serve-pages-a" --resident-pages 2 \
    > "$SMOKE_DIR/serve-paged.out" 2> /dev/null
"$DEUCE" serve --tenants 6 --requests 800 \
    --store-dir "$SMOKE_DIR/serve-pages-b" --resident-pages 2 --replay \
    > "$SMOKE_DIR/serve-paged.replay"
diff -u "$SMOKE_DIR/serve-paged.replay" "$SMOKE_DIR/serve-paged.out"
grep -q 'store_page_evictions' "$SMOKE_DIR/serve-paged.out"

echo "==> wear figures vs results/ (fig12, fig14, HWL substrates), byte-identical"
# The three wear studies drive the trace generator and the cell-array
# counters end to end; the recorded TSVs are the exact output of the
# EXPERIMENTS.md invocations.
for fig in fig12_bit_position_skew fig14_lifetime ablation_hwl_substrate; do
    "target/release/$fig" --writes 30000 --lines 64 > "$SMOKE_DIR/$fig.tsv"
    diff -u "results/$fig.tsv" "$SMOKE_DIR/$fig.tsv"
done

echo "==> flip-rate figures vs results/ (fig05, fig08-10, fig15, fig18), byte-identical"
# Between them these six studies run every DEUCE-family scheme,
# including forced counter rollovers at epochs 8-32 (fig09).
for fig in fig05_encryption_overhead fig08_word_size fig09_epoch_interval \
    fig10_scheme_comparison fig15_write_slots fig18_ble; do
    "target/release/$fig" --writes 20000 --lines 256 > "$SMOKE_DIR/$fig.tsv"
    diff -u "results/$fig.tsv" "$SMOKE_DIR/$fig.tsv"
done

echo "==> timing and workload tables vs results/ (table2, fig16, fig17, power budget, counter cache), byte-identical"
# Table 2 runs at its defaults; the four 8-core timing studies run at
# the EXPERIMENTS.md invocation. With this loop all 14 TSVs are pinned.
"target/release/table2_workloads" > "$SMOKE_DIR/table2_workloads.tsv"
diff -u results/table2_workloads.tsv "$SMOKE_DIR/table2_workloads.tsv"
for fig in fig16_speedup fig17_energy_power_edp ablation_power_budget ablation_counter_cache; do
    "target/release/$fig" --writes 24000 --lines 64 > "$SMOKE_DIR/$fig.tsv"
    diff -u "results/$fig.tsv" "$SMOKE_DIR/$fig.tsv"
done

echo "==> benchmark outputs at full size vs perfbench/expected.json"
# `--seconds 0` runs the minimum of three repetitions per workload.
# run.py checks every simulated output (wear totals and memory
# fingerprints included) against the seed-1 record and exits 1 on any
# difference. The build must not rewrite perfbench/Cargo.lock: a
# dependency edit in any crate perfbench builds would otherwise change
# a benchmark file silently.
lock_before=$(cksum perfbench/Cargo.lock)
for workload in mcf-full sparse-paged serve-zipf; do
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 0 --trace 0 | tail -n 1
done
lock_after=$(cksum perfbench/Cargo.lock)
if [ "$lock_before" != "$lock_after" ]; then
    echo "error: building perfbench rewrote perfbench/Cargo.lock" >&2
    echo "       (a [dependencies] edit in a crate perfbench builds?)" >&2
    exit 1
fi

echo "==> recorded benchmark trajectory"
bash scripts/bench_trajectory.sh

echo "==> tier-1 OK"
