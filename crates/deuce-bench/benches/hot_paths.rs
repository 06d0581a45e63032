//! Microbenchmarks of the simulator's hot paths: everything the
//! per-write inner loop touches.

use deuce_bench::harness::{black_box, Harness, Throughput};

use deuce_aes::{available_backends, Aes128, AesBackend};
use deuce_crypto::{EpochInterval, LineAddr, OtpEngine, SecretKey};
use deuce_nvm::{write_slots, CellArray, LineBytes, LineImage, MetaBits, SlotConfig};
use deuce_schemes::{fnw_encode, DeuceLine, DeuceScheme, SchemeConfig, SchemeKind, SchemeLine, WordSize};
use deuce_sim::{Checkpoints, CounterCache, CounterCacheConfig, SimConfig, Simulator};
use deuce_telemetry::{NullRecorder, TelemetryRecorder};
use deuce_trace::{Benchmark, Op, TraceConfig, TraceSource, WriteSource};
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

/// Rewrites a line's data for write number `i`.
type NextData = fn(u64, &mut LineBytes);

/// Changes one or two words per write, as most writebacks do.
fn sparse_write(i: u64, data: &mut LineBytes) {
    data[0] = i as u8;
    data[17] = (i >> 8) as u8;
}

/// Changes every word, as a dense workload's writebacks do.
fn dense_write(i: u64, data: &mut LineBytes) {
    data.fill(i as u8);
}

/// One line's writes under each scheme; DEUCE also at its other word
/// sizes, and with every word changing.
fn bench_scheme_writes(c: &mut Harness) {
    let engine = OtpEngine::new(&SecretKey::from_seed(2));
    let mut group = c.benchmark_group("scheme_write");
    group.throughput(Throughput::Bytes(64));
    let mut cases: Vec<(String, SchemeConfig, NextData)> = [
        SchemeKind::EncryptedDcw,
        SchemeKind::EncryptedFnw,
        SchemeKind::Deuce,
        SchemeKind::DynDeuce,
        SchemeKind::BleDeuce,
    ]
    .into_iter()
    .map(|kind| (kind.label().to_string(), SchemeConfig::new(kind), sparse_write as NextData))
    .collect();
    for word_size in [WordSize::Bytes1, WordSize::Bytes4, WordSize::Bytes8] {
        let config = SchemeConfig::new(SchemeKind::Deuce).with_word_size(word_size);
        cases.push((format!("DEUCE_{}B", word_size.bytes()), config, sparse_write));
    }
    cases.push(("DEUCE_dense".to_string(), SchemeConfig::new(SchemeKind::Deuce), dense_write));
    for (name, config, next) in cases {
        group.bench_function(&name, |b| {
            let mut line = SchemeLine::new(&config, &engine, LineAddr::new(1), &[0u8; 64]);
            let mut data = [0u8; 64];
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                next(i, &mut data);
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

/// Wear recording of one write that flips one cell in every byte: on
/// one line, whose planes stay cached, then on random lines of 2^17,
/// whose planes mostly do not. The gap is the cost of reaching cold
/// planes. `random_lines_2^17` writes every line once before timing, so
/// each already holds a plane and the timing is mostly cache and TLB
/// misses; `random_lines_2^17_fresh` starts from a fresh array, so it
/// also times the first planes' page faults.
fn bench_record_write(c: &mut Harness) {
    const LINES: u64 = 1 << 17;
    let old = LineImage::zeroed(32);
    let new = LineImage::new([1; 64], MetaBits::new(32));
    let bits = old.total_bits();
    let mut group = c.benchmark_group("record_write");
    group.bench_function("one_line", |b| {
        let mut cells = CellArray::new(1, bits);
        b.iter(|| cells.record_write(0, black_box(&old), black_box(&new), 0));
    });
    for (name, touched) in [("random_lines_2^17", true), ("random_lines_2^17_fresh", false)] {
        group.bench_function(name, |b| {
            let mut cells = CellArray::new(LINES as usize, bits);
            if touched {
                for line in 0..LINES as usize {
                    cells.record_write(line, &old, &new, 0);
                }
            }
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            b.iter(|| {
                // xorshift64: a cheap, fixed sequence of lines.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                cells.record_write((x % LINES) as usize, black_box(&old), black_box(&new), 0)
            });
        });
    }
    group.finish();
}

/// One counter-cache access, replaying a fixed stream cyclically
/// through the default 64-entry cache: the line addresses of mcf at
/// mcf-full's shape (4 cores of 65,536 lines), reads and writes, 2^17
/// writebacks. Most accesses miss, as on mcf-full.
fn bench_counter_cache(c: &mut Harness) {
    let mut group = c.benchmark_group("counter_cache");
    group.bench_function("mcf_stream_64_entries", |b| {
        let workload =
            TraceConfig::new(Benchmark::Mcf).lines(65_536).cores(4).writes(1 << 17).seed(1);
        let mut source = workload.stream();
        let mut stream = Vec::new();
        while let Some(event) = source.next_event().expect("the generator does not fail") {
            stream.push((event.line.value(), event.op == Op::Write));
        }
        let mut cache = CounterCache::new(CounterCacheConfig::DEFAULT);
        let mut accesses = stream.iter().cycle();
        b.iter(|| {
            let &(line, dirtying) = accesses.next().expect("the stream cycles");
            cache.access(black_box(line), dirtying)
        });
    });
    group.finish();
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
    group.bench_function("run_source_plain", |b| {
        b.iter(|| sim.run_source(&mut TraceSource::new(black_box(&trace))));
    });
    group.bench_function("run_null_recorder", |b| {
        b.iter(|| {
            sim.run(&mut TraceSource::new(black_box(&trace)), &mut NullRecorder, Checkpoints::Off)
        });
    });
    group.bench_function("run_full_recorder", |b| {
        b.iter(|| {
            let mut rec = TelemetryRecorder::default();
            sim.run(&mut TraceSource::new(black_box(&trace)), &mut rec, Checkpoints::Off)
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
        b.iter(|| sim.run_source(&mut TraceSource::new(black_box(&trace))));
    });
    group.bench_function("monomorphised_deuce", |b| {
        let config = SimConfig::with_scheme(SchemeConfig::new(SchemeKind::Deuce));
        let s = config.scheme;
        let sim = Simulator::with_line_scheme(
            config,
            DeuceScheme::new(s.word_size, s.epoch, s.counter_bits),
        );
        b.iter(|| sim.run_source(&mut TraceSource::new(black_box(&trace))));
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
    bench_record_write(&mut harness);
    bench_counter_cache(&mut harness);
    bench_trace_generation(&mut harness);
    bench_start_gap(&mut harness);
    bench_telemetry_overhead(&mut harness);
    bench_simulator_dispatch(&mut harness);
}
