//! Ablation benchmarks for the design decisions DESIGN.md calls out:
//! exact flip accounting vs closed-form estimation, DynDEUCE's
//! dual-candidate decision cost, word-size cost scaling, and the
//! simulator's end-to-end throughput.

use deuce_bench::harness::{black_box, BenchmarkId, Harness, Throughput};

use deuce_crypto::{EpochInterval, LineAddr, OtpEngine, SecretKey};
use deuce_schemes::{SchemeConfig, SchemeKind, SchemeLine, WordSize};
use deuce_sim::{SimConfig, Simulator};
use deuce_trace::{Benchmark, TraceConfig, TraceSource};

/// Design decision 1 (DESIGN.md §5): we count flips bit-exactly by XOR
/// over the stored images. The alternative — the closed-form expectation
/// (~6.84 flips per 17-bit FNW segment on random data) — is cheaper but
/// cannot capture workload structure. This pair quantifies the cost of
/// exactness.
fn ablation_exact_vs_estimated_flips(c: &mut Harness) {
    let old: [u8; 64] = std::array::from_fn(|i| (i as u8).wrapping_mul(37));
    let new: [u8; 64] = std::array::from_fn(|i| (i as u8).wrapping_mul(73));
    let mut group = c.benchmark_group("flip_accounting");
    group.bench_function("exact_xor_popcount", |b| {
        b.iter(|| {
            black_box(&old)
                .iter()
                .zip(black_box(&new))
                .map(|(a, b)| (a ^ b).count_ones())
                .sum::<u32>()
        });
    });
    group.bench_function("closed_form_estimate", |b| {
        b.iter(|| black_box(32.0f64 * 6.84));
    });
    group.finish();
}

/// Design decision 4: DynDEUCE evaluates *both* candidate encodings
/// exactly per write (Fig. 11). Compare against plain DEUCE to see what
/// the morphing's 1.7-point flip reduction costs per write.
fn ablation_dyn_deuce_decision(c: &mut Harness) {
    let engine = OtpEngine::new(&SecretKey::from_seed(5));
    let mut group = c.benchmark_group("dyn_deuce_decision");
    group.throughput(Throughput::Bytes(64));
    for kind in [SchemeKind::Deuce, SchemeKind::DynDeuce] {
        group.bench_function(kind.label(), |b| {
            let mut line =
                SchemeLine::new(&SchemeConfig::new(kind), &engine, LineAddr::new(1), &[0u8; 64]);
            let mut data = [0u8; 64];
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                data[(i % 61) as usize] = i as u8;
                line.write(&engine, black_box(&data))
            });
        });
    }
    group.finish();
}

/// Word size scales the tracking loop: 1-byte tracking doubles the
/// per-write bookkeeping of 2-byte tracking for ~2 points of flips
/// (Fig. 8).
fn ablation_word_size_cost(c: &mut Harness) {
    let engine = OtpEngine::new(&SecretKey::from_seed(6));
    let mut group = c.benchmark_group("deuce_word_size");
    for ws in [WordSize::Bytes1, WordSize::Bytes2, WordSize::Bytes4, WordSize::Bytes8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}B", ws.bytes())),
            &ws,
            |b, &ws| {
                let config = SchemeConfig::new(SchemeKind::Deuce).with_word_size(ws);
                let mut line = SchemeLine::new(&config, &engine, LineAddr::new(1), &[0u8; 64]);
                let mut data = [0u8; 64];
                let mut i = 0u64;
                b.iter(|| {
                    i += 1;
                    data[0] = i as u8;
                    line.write(&engine, black_box(&data))
                });
            },
        );
    }
    group.finish();
}

/// Epoch interval trades full re-encryptions against carryover
/// re-encryption (Fig. 9); per-write cost is essentially flat,
/// confirming the choice is about flips, not simulator speed.
fn ablation_epoch_interval(c: &mut Harness) {
    let engine = OtpEngine::new(&SecretKey::from_seed(7));
    let mut group = c.benchmark_group("deuce_epoch");
    for epoch in [8u64, 32, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(epoch), &epoch, |b, &epoch| {
            let config = SchemeConfig::new(SchemeKind::Deuce)
                .with_epoch(EpochInterval::new(epoch).expect("power of two"));
            let mut line = SchemeLine::new(&config, &engine, LineAddr::new(1), &[0u8; 64]);
            let mut data = [0u8; 64];
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                data[0] = i as u8;
                line.write(&engine, black_box(&data))
            });
        });
    }
    group.finish();
}

/// End-to-end simulator throughput (writebacks simulated per second).
fn ablation_end_to_end(c: &mut Harness) {
    let trace = TraceConfig::new(Benchmark::Mcf)
        .lines(64)
        .writes(2_000)
        .seed(8)
        .generate();
    let mut group = c.benchmark_group("simulator_end_to_end");
    group.throughput(Throughput::Elements(2_000));
    group.sample_size(10);
    for kind in [SchemeKind::UnencryptedDcw, SchemeKind::Deuce, SchemeKind::DynDeuce] {
        group.bench_function(kind.label(), |b| {
            let sim = Simulator::new(SimConfig::new(kind));
            b.iter(|| sim.run_source(&mut TraceSource::new(black_box(&trace))));
        });
    }
    group.finish();
}

fn main() {
    let mut harness = Harness::from_env();
    ablation_exact_vs_estimated_flips(&mut harness);
    ablation_dyn_deuce_decision(&mut harness);
    ablation_word_size_cost(&mut harness);
    ablation_epoch_interval(&mut harness);
    ablation_end_to_end(&mut harness);
}
