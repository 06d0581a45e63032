//! Golden parity fixtures for the scheme layer.
//!
//! The fixture file (`tests/fixtures/scheme_parity.tsv`) was captured
//! from the pre-refactor fat-enum implementation. Every refactor of
//! `deuce-schemes` / `deuce-sim` / `deuce-memctl` must keep these
//! fingerprints bit-identical: per-scheme cumulative flip totals, read
//! back data, stored-image hashes, and whole-simulation results
//! including `exec_time_ns` down to the last mantissa bit.

use deuce_crypto::{EpochInterval, LineAddr, OtpEngine, SecretKey};
use deuce_rng::{DeuceRng, Rng};
use deuce_schemes::{
    AddrPadScheme, BleDeuceScheme, BleScheme, DeuceFnwScheme, DeuceScheme, DynDeuceScheme,
    EncryptedDcwScheme, EncryptedFnwScheme, LineScheme, SchemeConfig, SchemeKind, SchemeLine,
    UnencryptedDcwScheme, UnencryptedFnwScheme, WordSize,
};
use deuce_sim::{ParallelSweep, SimConfig, SimResult, Simulator, SweepCell};
use deuce_trace::{Benchmark, TraceConfig};

const FIXTURE: &str = include_str!("fixtures/scheme_parity.tsv");

/// FNV-1a over a byte stream; stable, dependency-free fingerprint.
fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// The scheme-parameter variants each kind is fingerprinted under.
///
/// `c3e4w2` (3-bit counters, epoch 4, 2-byte words) wraps every counter
/// every 8 writes of its block or line, so the 200-write workload covers
/// counter wraps, FNW inversions carried across writes and BLE's cold
/// blocks many times over. Its rows follow the other variants' so the
/// older rows keep their place in the fixture.
fn variants() -> Vec<(&'static str, SchemeConfig)> {
    let wrap_heavy = SchemeKind::ALL.iter().map(|&kind| {
        (
            "c3e4w2",
            SchemeConfig {
                counter_bits: 3,
                ..SchemeConfig::new(kind)
                    .with_word_size(WordSize::Bytes2)
                    .with_epoch(EpochInterval::new(4).expect("power of two"))
            },
        )
    });
    SchemeKind::ALL
        .iter()
        .flat_map(|&kind| {
            [
                (
                    "default",
                    SchemeConfig::new(kind),
                ),
                (
                    "w4e8",
                    SchemeConfig::new(kind)
                        .with_word_size(WordSize::Bytes4)
                        .with_epoch(EpochInterval::new(8).expect("power of two")),
                ),
            ]
        })
        .chain(wrap_heavy)
        .collect()
}

/// Deterministic 200-write workload: single-bit deltas, sparse multi
/// byte updates, full-line rewrites, increments, and repeat writes —
/// enough to cross epoch boundaries and exercise every scheme mode.
fn drive_writes(mut write: impl FnMut(&[u8; 64]) -> (u64, u64, u64, bool)) -> String {
    let mut rng = DeuceRng::seed_from_u64(1234);
    let mut data = [0u8; 64];
    rng.fill(&mut data);
    let (mut df, mut mf, mut cf, mut es) = (0u64, 0u64, 0u64, 0u64);
    for step in 0..200u32 {
        match step % 5 {
            0 => {
                let i = rng.gen_range(0usize..64);
                data[i] ^= 1 << rng.gen_range(0u32..8);
            }
            1 => {
                for _ in 0..4 {
                    let i = rng.gen_range(0usize..64);
                    data[i] = rng.gen();
                }
            }
            2 => rng.fill(&mut data),
            3 => {
                let i = rng.gen_range(0usize..64);
                data[i] = data[i].wrapping_add(1);
            }
            _ => {} // rewrite identical data
        }
        let (d, m, c, epoch) = write(&data);
        df += d;
        mf += m;
        cf += c;
        es += u64::from(epoch);
    }
    format!("{df}\t{mf}\t{cf}\t{es}")
}

/// Fingerprints one scheme variant through the dyn `SchemeLine` path.
fn scheme_line_fingerprint(config: &SchemeConfig) -> String {
    let engine = OtpEngine::new(&SecretKey::from_seed(0xFEED));
    let addr = LineAddr::new(7);
    let mut init_rng = DeuceRng::seed_from_u64(99);
    let mut initial = [0u8; 64];
    init_rng.fill(&mut initial);
    let mut line = SchemeLine::new(config, &engine, addr, &initial);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let totals = drive_writes(|data| {
        let out = line.write(&engine, data);
        assert_eq!(&line.read(&engine).as_slice(), &data.as_slice(), "read-back mismatch");
        let image = line.image();
        fnv(&mut hash, image.data());
        fnv(&mut hash, &image.meta().raw().to_le_bytes());
        fnv(&mut hash, &image.meta().width().to_le_bytes());
        (
            u64::from(out.flips.data),
            u64::from(out.flips.meta),
            u64::from(out.counter_flips),
            out.epoch_started,
        )
    });
    format!("{totals}\t{}\t{hash:016x}", line.metadata_bits())
}

fn result_fingerprint(r: &SimResult) -> String {
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:016x}\t{}",
        r.writes,
        r.reads,
        r.data_flips,
        r.meta_flips,
        r.counter_flips,
        r.total_slots,
        r.epoch_starts,
        r.exec_time_ns.to_bits(),
        r.metadata_bits,
    )
}

/// Fingerprints one whole-simulator run for a kind.
fn simulator_fingerprint(kind: SchemeKind) -> String {
    let trace = TraceConfig::new(Benchmark::Mcf).lines(64).writes(2_000).seed(9).generate();
    let r = Simulator::new(SimConfig::new(kind)).run_trace(&trace);
    result_fingerprint(&r)
}

/// The same run, but through a `Simulator` monomorphised for the kind's
/// concrete scheme type instead of the runtime-dispatched `AnyScheme`.
fn monomorphised_fingerprint(kind: SchemeKind) -> String {
    let trace = TraceConfig::new(Benchmark::Mcf).lines(64).writes(2_000).seed(9).generate();
    let config = SimConfig::new(kind);
    let s = config.scheme;
    fn run<S: LineScheme + Copy>(config: SimConfig, scheme: S, trace: &deuce_trace::Trace) -> SimResult
    where
        S::State: deuce_schemes::StateCodec,
    {
        Simulator::with_line_scheme(config, scheme).run_trace(trace)
    }
    let r = match kind {
        SchemeKind::UnencryptedDcw => run(config, UnencryptedDcwScheme, &trace),
        SchemeKind::UnencryptedFnw => run(config, UnencryptedFnwScheme::new(s.fnw_segment_bits), &trace),
        SchemeKind::EncryptedDcw => run(config, EncryptedDcwScheme::new(s.counter_bits), &trace),
        SchemeKind::EncryptedFnw => {
            run(config, EncryptedFnwScheme::new(s.fnw_segment_bits, s.counter_bits), &trace)
        }
        SchemeKind::Ble => run(config, BleScheme::new(s.counter_bits), &trace),
        SchemeKind::Deuce => {
            run(config, DeuceScheme::new(s.word_size, s.epoch, s.counter_bits), &trace)
        }
        SchemeKind::DynDeuce => run(config, DynDeuceScheme::new(s.epoch, s.counter_bits), &trace),
        SchemeKind::DeuceFnw => run(config, DeuceFnwScheme::new(s.epoch, s.counter_bits), &trace),
        SchemeKind::BleDeuce => {
            run(config, BleDeuceScheme::new(s.word_size, s.epoch, s.counter_bits), &trace)
        }
        SchemeKind::AddrPad => run(config, AddrPadScheme, &trace),
    };
    result_fingerprint(&r)
}

/// Computes the current fixture text from the live implementation.
fn current_fixture() -> String {
    let mut out = String::new();
    for (variant, config) in variants() {
        out.push_str(&format!(
            "scheme\t{}\t{variant}\t{}\n",
            config.kind.label(),
            scheme_line_fingerprint(&config)
        ));
    }
    for kind in SchemeKind::ALL {
        out.push_str(&format!("sim\t{}\t{}\n", kind.label(), simulator_fingerprint(kind)));
    }
    out
}

/// Satellite 3 (golden half): the refactored stack reproduces the
/// pre-refactor fingerprints bit-for-bit, for every `SchemeKind`.
#[test]
fn golden_fixture_matches_pre_refactor_capture() {
    let current = current_fixture();
    for (want, got) in FIXTURE.lines().zip(current.lines()) {
        assert_eq!(got, want, "fingerprint drifted from the pre-refactor capture");
    }
    assert_eq!(current.lines().count(), FIXTURE.lines().count());
}

/// Satellite 3 (generic half): for every kind, the monomorphised
/// `Simulator<S>` hot loop produces exactly the runtime-dispatched
/// fingerprint — which the golden test above pins to the pre-refactor
/// capture.
#[test]
fn monomorphised_simulator_matches_dyn_path() {
    for kind in SchemeKind::ALL {
        assert_eq!(
            monomorphised_fingerprint(kind),
            simulator_fingerprint(kind),
            "generic and dyn paths diverged for {}",
            kind.label()
        );
    }
}

/// Satellite 3 (sweep half): `ParallelSweep` over every kind stays
/// bit-identical to a sequential loop for any shard count.
#[test]
fn all_kinds_sweep_is_shard_count_invariant() {
    let cells: Vec<SweepCell> = SchemeKind::ALL
        .into_iter()
        .map(|kind| {
            SweepCell::new(
                kind.label(),
                TraceConfig::new(Benchmark::Mcf).lines(64).writes(600).seed(9),
                SimConfig::new(kind),
            )
        })
        .collect();
    let fingerprint = |results: &[deuce_sim::SimResult]| -> Vec<(u64, u64, u64, u64, u64)> {
        results
            .iter()
            .map(|r| {
                (r.writes, r.data_flips, r.meta_flips, r.total_slots, r.exec_time_ns.to_bits())
            })
            .collect()
    };
    let sequential = fingerprint(&ParallelSweep::with_shards(1).run(&cells));
    for shards in [2, 3, 7, 16] {
        let parallel = fingerprint(&ParallelSweep::with_shards(shards).run(&cells));
        assert_eq!(parallel, sequential, "{shards} shards");
    }
}

/// Regenerates the fixture text; run with
/// `cargo test -p deuce-sim --test scheme_parity -- --ignored --nocapture`
/// and paste the output between the BEGIN/END markers into
/// `tests/fixtures/scheme_parity.tsv`. Only ever regenerate from a
/// commit whose scheme layer is known-good.
#[test]
#[ignore = "fixture regeneration helper, not a check"]
fn print_fixture() {
    println!("=== BEGIN FIXTURE ===");
    print!("{}", current_fixture());
    println!("=== END FIXTURE ===");
}
