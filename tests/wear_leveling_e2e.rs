//! End-to-end wear-leveling behaviour through the full simulator stack
//! (Figs. 12 and 14 mechanics).

use deuce::schemes::SchemeKind;
use deuce::sim::{HwlMode, LifetimePolicy, SimConfig, SimResult, Simulator, WearConfig};
use deuce::trace::{Benchmark, Trace, TraceConfig, TraceSource};

const LINES: usize = 48;

fn trace(benchmark: Benchmark) -> Trace {
    TraceConfig::new(benchmark)
        .lines(LINES)
        .writes(8_000)
        .seed(13)
        .generate()
}

fn run(config: SimConfig, trace: &Trace) -> SimResult {
    Simulator::new(config).run_source(&mut TraceSource::new(trace)).unwrap()
}

fn lifetime(kind: SchemeKind, trace: &Trace, hwl: Option<HwlMode>) -> f64 {
    let wear = match hwl {
        Some(mode) => WearConfig::with_hwl(LINES, mode).gap_interval(2),
        None => WearConfig::vertical_only(LINES),
    };
    run(SimConfig::new(kind).with_wear(wear), trace)
        .lifetime(LifetimePolicy::VerticalLeveled)
        .expect("wear tracking enabled")
}

/// Fig. 12: unencrypted workloads concentrate writes on a few bit
/// positions; encryption spreads them uniformly.
#[test]
fn encryption_uniformizes_bit_positions() {
    let t = trace(Benchmark::Libquantum);
    // Fig. 12's metric: per-bit-position totals aggregated across lines
    // (vertical wear leveling spreads the per-line intensity, so the
    // position profile is what remains).
    let skew_of = |kind: SchemeKind| {
        let totals = run(SimConfig::new(kind).with_wear(WearConfig::vertical_only(LINES)), &t)
            .cells
            .expect("wear on")
            .position_totals();
        let avg = totals.iter().sum::<u64>() as f64 / totals.len() as f64;
        totals.iter().copied().max().unwrap_or(0) as f64 / avg
    };
    let plain_skew = skew_of(SchemeKind::UnencryptedDcw);
    let enc_skew = skew_of(SchemeKind::EncryptedDcw);
    assert!(plain_skew > 5.0, "libq skew {plain_skew}");
    assert!(enc_skew < 1.5, "encrypted skew {enc_skew}");
}

/// Fig. 14 mechanics: DEUCE alone barely improves lifetime on a
/// footprint-stable workload; HWL unlocks the full bit-write reduction.
#[test]
fn hwl_unlocks_deuce_lifetime() {
    let t = trace(Benchmark::Libquantum);
    let encrypted = lifetime(SchemeKind::EncryptedDcw, &t, None);
    let deuce = lifetime(SchemeKind::Deuce, &t, None);
    let deuce_hwl = lifetime(SchemeKind::Deuce, &t, Some(HwlMode::Hashed));

    let deuce_gain = deuce / encrypted;
    let hwl_gain = deuce_hwl / encrypted;
    assert!(
        hwl_gain > deuce_gain * 1.5,
        "HWL {hwl_gain}x should far exceed bare DEUCE {deuce_gain}x"
    );
    assert!(hwl_gain > 2.0, "HWL gain {hwl_gain}");
}

/// HWL approaches the perfect-leveling oracle (§5.3: within 0.5% at
/// paper scale; we allow more slack at simulation scale).
#[test]
fn hwl_approaches_perfect_leveling() {
    let t = trace(Benchmark::Mcf);
    let wear = WearConfig::with_hwl(LINES, HwlMode::Hashed).gap_interval(2);
    let result = run(SimConfig::new(SchemeKind::Deuce).with_wear(wear), &t);
    let leveled = result.lifetime(LifetimePolicy::VerticalLeveled).unwrap();
    let perfect = result.lifetime(LifetimePolicy::Perfect).unwrap();
    assert!(
        leveled > perfect * 0.80,
        "HWL {leveled} vs perfect {perfect}"
    );
}

/// Both HWL modes must level; the hashed variant additionally
/// decorrelates lines (footnote 2).
#[test]
fn both_hwl_modes_improve_over_none() {
    let t = trace(Benchmark::Libquantum);
    let none = lifetime(SchemeKind::Deuce, &t, None);
    let algebraic = lifetime(SchemeKind::Deuce, &t, Some(HwlMode::Algebraic));
    let hashed = lifetime(SchemeKind::Deuce, &t, Some(HwlMode::Hashed));
    assert!(algebraic > none, "algebraic {algebraic} vs none {none}");
    assert!(hashed > none, "hashed {hashed} vs none {none}");
}

/// The wear model counts exactly the flips the scheme reports.
#[test]
fn cell_counts_reconcile_with_flip_counts() {
    let t = trace(Benchmark::Zeusmp);
    let config = SimConfig::new(SchemeKind::Deuce).with_wear(WearConfig::vertical_only(LINES));
    let result = run(config, &t);
    let cells = result.cells.as_ref().unwrap();
    assert_eq!(
        cells.wear_summary().total_bit_writes,
        result.data_flips + result.meta_flips,
        "every counted flip lands in exactly one cell"
    );
}
