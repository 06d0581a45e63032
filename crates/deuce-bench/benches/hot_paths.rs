//! Microbenchmarks of the simulator's hot paths: everything the
//! per-write inner loop touches.

use deuce_bench::harness::{black_box, Harness, Throughput};

use deuce_aes::{available_backends, Aes128, AesBackend};
use deuce_crypto::{EpochInterval, LineAddr, OtpEngine, SecretKey};
use deuce_nvm::{write_slots, LineImage, MetaBits, SlotConfig};
use deuce_schemes::{fnw_encode, DeuceLine, DeuceScheme, SchemeConfig, SchemeKind, SchemeLine, WordSize};
use deuce_sim::{SimConfig, Simulator};
use deuce_telemetry::{NullRecorder, TelemetryRecorder};
use deuce_trace::{Benchmark, TraceConfig};
use deuce_wear::StartGap;

fn bench_aes_block(c: &mut Harness) {
    let cipher = Aes128::new(&[7u8; 16]);
    let block = [0x42u8; 16];
    let mut group = c.benchmark_group("aes");
    group.throughput(Throughput::Bytes(16));
    group.bench_function("encrypt_block", |b| {
        b.iter(|| cipher.encrypt_block(black_box(&block)));
    });
    group.bench_function("decrypt_block", |b| {
        let ct = cipher.encrypt_block(&block);
        b.iter(|| cipher.decrypt_block(black_box(&ct)));
    });
    group.finish();
}

fn bench_pad_generation(c: &mut Harness) {
    let engine = OtpEngine::new(&SecretKey::from_seed(1));
    let mut group = c.benchmark_group("otp");
    group.throughput(Throughput::Bytes(64));
    group.bench_function("line_pad", |b| {
        let mut ctr = 0u64;
        b.iter(|| {
            ctr += 1;
            engine.line_pad(black_box(LineAddr::new(0x1000)), black_box(ctr))
        });
    });
    group.bench_function("block_pad", |b| {
        let mut ctr = 0u64;
        b.iter(|| {
            ctr += 1;
            engine.block_pad(black_box(LineAddr::new(0x1000)), 2, black_box(ctr))
        });
    });
    group.finish();
}

/// Every crypto fast path against its reference twin, per dispatch
/// tier: single-block AES, the 4- and 8-wide batched entry points, and
/// line-pad generation on each tier the host offers, plus the paired
/// dual-pad read path and the word-wide pad XOR. The pairs quantify exactly what the fast paths
/// buy while the differential tests pin them bit-identical.
fn bench_pad_throughput(c: &mut Harness) {
    let block = [0x42u8; 16];
    let blocks4 = [block, [0x43; 16], [0x44; 16], [0x45; 16]];
    let blocks8: [[u8; 16]; 8] = std::array::from_fn(|i| [0x42 + i as u8; 16]);
    let key = SecretKey::from_seed(1);
    let mut group = c.benchmark_group("pad_throughput");
    group.throughput(Throughput::Bytes(16));
    group.bench_function("aes_block_reference", |b| {
        let cipher = Aes128::new(&[7u8; 16]).with_backend(AesBackend::Reference);
        b.iter(|| cipher.encrypt_block_reference(black_box(&block)));
    });
    for backend in available_backends() {
        if *backend == AesBackend::Reference {
            continue; // covered above through the dedicated entry point
        }
        let cipher = Aes128::new(&[7u8; 16]).with_backend(*backend);
        group.throughput(Throughput::Bytes(16));
        group.bench_function(&format!("aes_block_{backend}"), |b| {
            b.iter(|| cipher.encrypt_block(black_box(&block)));
        });
        group.throughput(Throughput::Bytes(64));
        group.bench_function(&format!("aes_blocks4_{backend}"), |b| {
            b.iter(|| cipher.encrypt_blocks4(black_box(&blocks4)));
        });
        group.throughput(Throughput::Bytes(128));
        group.bench_function(&format!("aes_blocks8_{backend}"), |b| {
            b.iter(|| cipher.encrypt_blocks8(black_box(&blocks8)));
        });
    }
    group.throughput(Throughput::Bytes(64));
    for backend in available_backends() {
        let engine = OtpEngine::new(&key).with_aes_backend(*backend);
        group.bench_function(&format!("line_pad_{backend}"), |b| {
            let mut ctr = 0u64;
            b.iter(|| {
                ctr += 1;
                engine.line_pad(black_box(LineAddr::new(0x1000)), black_box(ctr))
            });
        });
        group.throughput(Throughput::Bytes(128));
        group.bench_function(&format!("line_pad_pair_{backend}"), |b| {
            // The DEUCE read path: LCTR and TCTR pads in one 8-block
            // batch.
            let mut ctr = 0u64;
            b.iter(|| {
                ctr += 2;
                engine.line_pad_pair(black_box(LineAddr::new(0x1000)), ctr, ctr + 1)
            });
        });
        group.throughput(Throughput::Bytes(64));
    }
    group.bench_function("xor_line_words", |b| {
        let pad = OtpEngine::new(&key).line_pad(LineAddr::new(0x2000), 9);
        let mut data = [0x5Au8; 64];
        b.iter(|| {
            pad.xor_in_place(black_box(&mut data));
        });
    });
    group.finish();
}

fn bench_scheme_writes(c: &mut Harness) {
    let engine = OtpEngine::new(&SecretKey::from_seed(2));
    let mut group = c.benchmark_group("scheme_write");
    group.throughput(Throughput::Bytes(64));
    for kind in [
        SchemeKind::EncryptedDcw,
        SchemeKind::EncryptedFnw,
        SchemeKind::Deuce,
        SchemeKind::DynDeuce,
        SchemeKind::BleDeuce,
    ] {
        group.bench_function(kind.label(), |b| {
            let mut line =
                SchemeLine::new(&SchemeConfig::new(kind), &engine, LineAddr::new(1), &[0u8; 64]);
            let mut data = [0u8; 64];
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                data[0] = i as u8;
                data[17] = (i >> 8) as u8;
                line.write(&engine, black_box(&data))
            });
        });
    }
    group.finish();
}

fn bench_deuce_read(c: &mut Harness) {
    let engine = OtpEngine::new(&SecretKey::from_seed(3));
    let mut line = DeuceLine::new(
        &engine,
        LineAddr::new(4),
        &[0u8; 64],
        WordSize::Bytes2,
        EpochInterval::DEFAULT,
        28,
    );
    let mut data = [0u8; 64];
    data[0] = 1;
    let _ = line.write(&engine, &data);
    c.bench_function("deuce_read_dual_pad", |b| {
        b.iter(|| line.read(black_box(&engine)));
    });
}

fn bench_fnw_encode(c: &mut Harness) {
    let logical: [u8; 64] = std::array::from_fn(|i| (i as u8).wrapping_mul(41));
    let stored: [u8; 64] = std::array::from_fn(|i| (i as u8).wrapping_mul(97));
    let flips = MetaBits::new(32);
    c.bench_function("fnw_encode_line", |b| {
        b.iter(|| fnw_encode(black_box(&logical), black_box(&stored), &flips, 16));
    });
}

fn bench_write_slots(c: &mut Harness) {
    let old = LineImage::zeroed(32);
    let mut new = old;
    for i in 0..24 {
        new.data_mut()[i * 2] = 0xFF;
    }
    c.bench_function("write_slot_packing", |b| {
        b.iter(|| write_slots(black_box(&old), black_box(&new), SlotConfig::PAPER));
    });
}

fn bench_trace_generation(c: &mut Harness) {
    let mut group = c.benchmark_group("trace_gen");
    group.throughput(Throughput::Elements(1_000));
    group.bench_function("libq_1k_writes", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            TraceConfig::new(Benchmark::Libquantum)
                .lines(64)
                .writes(1_000)
                .seed(seed)
                .generate()
        });
    });
    group.finish();
}

fn bench_start_gap(c: &mut Harness) {
    c.bench_function("start_gap_remap", |b| {
        let mut sg = StartGap::new(4096, 100);
        for _ in 0..12345 {
            let _ = sg.record_write();
        }
        let mut line = 0usize;
        b.iter(|| {
            line = (line + 1) % 4096;
            sg.remap(black_box(line))
        });
    });
}

fn bench_telemetry_overhead(c: &mut Harness) {
    let trace = TraceConfig::new(Benchmark::Mcf).lines(64).writes(2_000).seed(9).generate();
    let sim = Simulator::new(SimConfig::with_scheme(SchemeConfig::new(SchemeKind::Deuce)));
    let mut group = c.benchmark_group("telemetry");
    group.throughput(Throughput::Elements(2_000));
    group.bench_function("run_trace_plain", |b| {
        b.iter(|| sim.run_trace(black_box(&trace)));
    });
    group.bench_function("run_trace_null_recorder", |b| {
        b.iter(|| sim.run_trace_recorded(black_box(&trace), &mut NullRecorder));
    });
    group.bench_function("run_trace_full_recorder", |b| {
        b.iter(|| {
            let mut rec = TelemetryRecorder::default();
            sim.run_trace_recorded(black_box(&trace), &mut rec)
        });
    });
    group.finish();
}

/// The monomorphised `Simulator<DeuceScheme>` hot loop against the
/// runtime-dispatched `AnyScheme` default; both drive the identical
/// trace (and produce bit-identical results, per the parity tests).
fn bench_simulator_dispatch(c: &mut Harness) {
    let trace = TraceConfig::new(Benchmark::Mcf).lines(64).writes(2_000).seed(9).generate();
    let mut group = c.benchmark_group("simulator_dispatch");
    group.throughput(Throughput::Elements(2_000));
    group.bench_function("dyn_any_scheme", |b| {
        let sim = Simulator::new(SimConfig::with_scheme(SchemeConfig::new(SchemeKind::Deuce)));
        b.iter(|| sim.run_trace(black_box(&trace)));
    });
    group.bench_function("monomorphised_deuce", |b| {
        let config = SimConfig::with_scheme(SchemeConfig::new(SchemeKind::Deuce));
        let s = config.scheme;
        let sim = Simulator::with_line_scheme(
            config,
            DeuceScheme::new(s.word_size, s.epoch, s.counter_bits),
        );
        b.iter(|| sim.run_trace(black_box(&trace)));
    });
    group.finish();
}

fn main() {
    let mut harness = Harness::from_env();
    bench_aes_block(&mut harness);
    bench_pad_generation(&mut harness);
    bench_pad_throughput(&mut harness);
    bench_scheme_writes(&mut harness);
    bench_deuce_read(&mut harness);
    bench_fnw_encode(&mut harness);
    bench_write_slots(&mut harness);
    bench_trace_generation(&mut harness);
    bench_start_gap(&mut harness);
    bench_telemetry_overhead(&mut harness);
    bench_simulator_dispatch(&mut harness);
}
