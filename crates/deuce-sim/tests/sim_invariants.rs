//! Invariant tests over whole simulation runs.

use deuce_rng::{DeuceRng, Rng};
use deuce_schemes::{SchemeConfig, SchemeKind};
use deuce_sim::{SimConfig, SimResult, Simulator, WearConfig};
use deuce_trace::{Benchmark, Trace, TraceConfig, TraceSource};

fn run(config: SimConfig, trace: &Trace) -> SimResult {
    Simulator::new(config).run_source(&mut TraceSource::new(trace)).unwrap()
}

/// Aggregate invariants that must hold for any scheme and workload:
/// bounded flip rate, slot bounds, time/energy positivity.
#[test]
fn run_invariants() {
    let mut rng = DeuceRng::seed_from_u64(0x51A1_0001);
    for _ in 0..12 {
        let kind = SchemeKind::ALL[rng.gen_range(0..SchemeKind::ALL.len())];
        let benchmark = Benchmark::ALL[rng.gen_range(0..Benchmark::ALL.len())];
        let seed: u64 = rng.gen();
        let trace = TraceConfig::new(benchmark).lines(32).writes(800).seed(seed).generate();
        let result = run(SimConfig::new(kind), &trace);
        assert!(result.writes > 0);
        assert!(result.flip_rate() >= 0.0);
        assert!(result.flip_rate() <= (512.0 + 64.0) / 512.0);
        assert!(result.avg_slots_per_write() >= 1.0);
        assert!(result.avg_slots_per_write() <= 4.0);
        assert!(result.exec_time_ns > 0.0);
        assert!(result.energy_pj() > 0.0);
        assert!(result.edp() > 0.0);
    }
}

/// More writes can only increase total time, flips and energy.
#[test]
fn metrics_grow_with_trace_length() {
    let short = TraceConfig::new(Benchmark::Lbm).lines(32).writes(500).seed(3).generate();
    let long = TraceConfig::new(Benchmark::Lbm).lines(32).writes(2_000).seed(3).generate();
    let sim = Simulator::new(SimConfig::new(SchemeKind::Deuce));
    let a = sim.run_source(&mut TraceSource::new(&short)).unwrap();
    let b = sim.run_source(&mut TraceSource::new(&long)).unwrap();
    assert!(b.writes > a.writes);
    assert!(b.data_flips > a.data_flips);
    assert!(b.exec_time_ns > a.exec_time_ns);
    assert!(b.energy_pj() > a.energy_pj());
}

/// Epoch starts occur at the expected aggregate rate (writes / 32,
/// scattered across lines, minus truncation per line).
#[test]
fn epoch_start_rate_is_plausible() {
    let trace = TraceConfig::new(Benchmark::Libquantum)
        .lines(16)
        .writes(4_000)
        .seed(6)
        .generate();
    let result = run(SimConfig::new(SchemeKind::Deuce), &trace);
    let expected = result.writes as f64 / 32.0;
    let observed = result.epoch_starts as f64;
    assert!(
        (observed - expected).abs() / expected < 0.15,
        "epoch starts {observed} vs expected {expected}"
    );
}

/// The scheme changes write-side metrics but never the read count or
/// arrival structure.
#[test]
fn reads_are_scheme_independent() {
    let trace = TraceConfig::new(Benchmark::Mcf).lines(32).writes(1_000).seed(2).generate();
    let results: Vec<_> = [SchemeKind::EncryptedDcw, SchemeKind::Deuce, SchemeKind::UnencryptedFnw]
        .into_iter()
        .map(|kind| run(SimConfig::new(kind), &trace))
        .collect();
    assert!(results.windows(2).all(|w| w[0].reads == w[1].reads));
    assert!(results.windows(2).all(|w| w[0].writes == w[1].writes));
}

/// The counter-flip channel reports only for counter-bearing schemes.
#[test]
fn counter_flips_only_where_counters_exist() {
    let trace = TraceConfig::new(Benchmark::Astar).lines(32).writes(800).seed(1).generate();
    for kind in SchemeKind::ALL {
        let result = run(SimConfig::new(kind), &trace);
        let has_counters = SchemeConfig::new(kind).counter_storage_bits() > 0;
        assert_eq!(
            result.counter_flips > 0,
            has_counters,
            "{kind}: counter_flips = {}",
            result.counter_flips
        );
    }
}

/// Including counter bits in the metric strictly increases it for
/// counter-mode schemes and is a no-op for unencrypted ones.
#[test]
fn metric_config_counter_accounting() {
    let trace = TraceConfig::new(Benchmark::Milc).lines(32).writes(800).seed(4).generate();
    for (kind, should_grow) in [
        (SchemeKind::EncryptedDcw, true),
        (SchemeKind::UnencryptedDcw, false),
    ] {
        let mut with = SimConfig::new(kind);
        with.metric.count_counter_bits = true;
        let base = run(SimConfig::new(kind), &trace);
        let counted = run(with, &trace);
        assert_eq!(
            counted.flip_rate() > base.flip_rate(),
            should_grow,
            "{kind}"
        );
    }
}

/// Wear tracking does not perturb the functional metrics.
#[test]
fn wear_tracking_is_observation_only() {
    let trace = TraceConfig::new(Benchmark::Wrf).lines(32).writes(800).seed(5).generate();
    let plain = run(SimConfig::new(SchemeKind::Deuce), &trace);
    let wear = WearConfig::vertical_only(32);
    let tracked = run(SimConfig::new(SchemeKind::Deuce).with_wear(wear), &trace);
    assert_eq!(plain.data_flips, tracked.data_flips);
    assert_eq!(plain.total_slots, tracked.total_slots);
    assert!((plain.exec_time_ns - tracked.exec_time_ns).abs() < 1e-9);
}

/// Security Refresh as the vertical substrate levels just like
/// Start-Gap (the `ablation_hwl_substrate` study, as a regression test).
#[test]
fn security_refresh_substrate_levels_wear() {
    use deuce_sim::{HwlMode, LifetimePolicy, VerticalWl};
    let trace = TraceConfig::new(Benchmark::Libquantum)
        .lines(32)
        .writes(6_000)
        .seed(9)
        .generate();
    let lifetime = |hwl: Option<HwlMode>| {
        let mut wear = match hwl {
            Some(mode) => WearConfig::with_hwl(32, mode).gap_interval(2),
            None => WearConfig::vertical_only(32).gap_interval(2),
        };
        wear = wear.vertical_leveler(VerticalWl::SecurityRefresh);
        run(SimConfig::new(SchemeKind::Deuce).with_wear(wear), &trace)
            .lifetime(LifetimePolicy::VerticalLeveled)
            .expect("wear on")
    };
    let plain = lifetime(None);
    let hashed = lifetime(Some(HwlMode::Hashed));
    assert!(hashed > plain * 1.5, "SR+HWL {hashed} vs SR {plain}");
}
