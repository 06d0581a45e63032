//! End-to-end checks of the paper's headline claims, at reduced scale
//! (the full-scale numbers are regenerated by the `deuce-bench`
//! binaries and recorded in EXPERIMENTS.md).

use deuce::schemes::{SchemeConfig, SchemeKind};
use deuce::sim::{SimConfig, SimResult, Simulator};
use deuce::trace::{Benchmark, Trace, TraceConfig, TraceSource};

fn trace(benchmark: Benchmark) -> Trace {
    TraceConfig::new(benchmark)
        .lines(64)
        .writes(3_000)
        .seed(2026)
        .generate()
}

fn run(kind: SchemeKind, trace: &Trace) -> SimResult {
    let simulator = Simulator::new(SimConfig::with_scheme(SchemeConfig::new(kind)));
    simulator.run_source(&mut TraceSource::new(trace)).unwrap()
}

/// §2.5: counter-mode encryption flips 50% of the bits regardless of
/// the workload.
#[test]
fn encryption_flips_half_the_line() {
    for benchmark in [Benchmark::Libquantum, Benchmark::Gems] {
        let t = trace(benchmark);
        let r = run(SchemeKind::EncryptedDcw, &t);
        assert!(
            (r.flip_rate() - 0.5).abs() < 0.01,
            "{benchmark}: {}",
            r.flip_rate()
        );
    }
}

/// Fig. 5: encryption costs ~4x in bit writes over unencrypted DCW.
#[test]
fn encryption_overhead_is_about_4x() {
    let mut ratios = Vec::new();
    for benchmark in [Benchmark::Mcf, Benchmark::Lbm, Benchmark::Omnetpp] {
        let t = trace(benchmark);
        let plain = run(SchemeKind::UnencryptedDcw, &t).flip_rate();
        let enc = run(SchemeKind::EncryptedDcw, &t).flip_rate();
        ratios.push(enc / plain);
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(mean > 3.0 && mean < 15.0, "overhead {mean}x");
}

/// The abstract's headline: DEUCE cuts encrypted-memory flips from 50%
/// to ~24% on average, and by much more on sparse workloads.
#[test]
fn deuce_halves_bit_flips() {
    let mut rates = Vec::new();
    for benchmark in [
        Benchmark::Libquantum,
        Benchmark::Mcf,
        Benchmark::Lbm,
        Benchmark::Gems,
        Benchmark::Wrf,
        Benchmark::Astar,
    ] {
        rates.push(run(SchemeKind::Deuce, &trace(benchmark)).flip_rate());
    }
    let mean = rates.iter().sum::<f64>() / rates.len() as f64;
    assert!(mean < 0.30, "DEUCE average flip rate {mean}");
    assert!(mean > 0.10, "suspiciously low: {mean}");
}

/// Fig. 10 ordering: FNW(encr) > BLE > DEUCE > DynDEUCE >= DEUCE+FNW on
/// sparse workloads, with unencrypted FNW cheapest.
#[test]
fn scheme_ordering_on_sparse_workload() {
    let t = trace(Benchmark::Mcf);
    let fnw = run(SchemeKind::EncryptedFnw, &t).flip_rate();
    let ble = run(SchemeKind::Ble, &t).flip_rate();
    let deuce = run(SchemeKind::Deuce, &t).flip_rate();
    let dyn_deuce = run(SchemeKind::DynDeuce, &t).flip_rate();
    let combo = run(SchemeKind::DeuceFnw, &t).flip_rate();
    let plain_fnw = run(SchemeKind::UnencryptedFnw, &t).flip_rate();

    assert!(fnw > ble, "FNW {fnw} vs BLE {ble}");
    assert!(ble > deuce, "BLE {ble} vs DEUCE {deuce}");
    assert!(dyn_deuce <= deuce + 0.005, "DynDEUCE {dyn_deuce} vs DEUCE {deuce}");
    assert!(combo <= dyn_deuce + 0.005, "DEUCE+FNW {combo} vs DynDEUCE {dyn_deuce}");
    assert!(plain_fnw < combo, "NoEncr-FNW {plain_fnw} vs DEUCE+FNW {combo}");
}

/// §4.6: on dense workloads DEUCE degenerates past FNW, and DynDEUCE
/// recovers by morphing to FNW.
#[test]
fn dyn_deuce_rescues_dense_workloads() {
    let t = trace(Benchmark::Gems);
    let fnw = run(SchemeKind::EncryptedFnw, &t).flip_rate();
    let deuce = run(SchemeKind::Deuce, &t).flip_rate();
    let dyn_deuce = run(SchemeKind::DynDeuce, &t).flip_rate();
    assert!(deuce > fnw, "Gems should defeat DEUCE ({deuce} vs FNW {fnw})");
    assert!(dyn_deuce < deuce, "DynDEUCE {dyn_deuce} must beat DEUCE {deuce}");
    assert!(dyn_deuce <= fnw + 0.01, "DynDEUCE {dyn_deuce} ~ FNW {fnw}");
}

/// Fig. 18: BLE+DEUCE beats both parents.
#[test]
fn ble_deuce_combination_wins() {
    let t = trace(Benchmark::Lbm);
    let ble = run(SchemeKind::Ble, &t).flip_rate();
    let deuce = run(SchemeKind::Deuce, &t).flip_rate();
    let combo = run(SchemeKind::BleDeuce, &t).flip_rate();
    assert!(combo < ble, "BLE+DEUCE {combo} vs BLE {ble}");
    assert!(combo < deuce, "BLE+DEUCE {combo} vs DEUCE {deuce}");
}

/// Fig. 15/16: DEUCE needs fewer write slots than the encrypted
/// baseline and finishes sooner; unencrypted memory is fastest.
#[test]
fn write_slots_and_performance_ordering() {
    let t = TraceConfig::new(Benchmark::Libquantum)
        .lines(64)
        .writes(4_000)
        .cores(4)
        .seed(5)
        .generate();
    let enc = run(SchemeKind::EncryptedDcw, &t);
    let deuce = run(SchemeKind::Deuce, &t);
    let plain = run(SchemeKind::UnencryptedFnw, &t);

    assert!(enc.avg_slots_per_write() > 3.9);
    assert!(deuce.avg_slots_per_write() < enc.avg_slots_per_write() - 1.0);
    assert!(plain.avg_slots_per_write() <= deuce.avg_slots_per_write());

    let deuce_speedup = deuce.speedup_over(&enc);
    let plain_speedup = plain.speedup_over(&enc);
    assert!(deuce_speedup > 1.05, "DEUCE speedup {deuce_speedup}");
    assert!(plain_speedup >= deuce_speedup, "{plain_speedup} vs {deuce_speedup}");
}

/// Fig. 17: DEUCE's energy tracks its flip reduction. (The full 8-core
/// ratios live in EXPERIMENTS.md; a single-core trace dilutes the write
/// energy with background power, so the bound here is looser.)
#[test]
fn energy_tracks_bit_flips() {
    let t = trace(Benchmark::Milc);
    let enc = run(SchemeKind::EncryptedDcw, &t);
    let deuce = run(SchemeKind::Deuce, &t);
    let ratio = deuce.energy_pj() / enc.energy_pj();
    assert!(ratio < 0.90, "energy ratio {ratio}");
    assert!(deuce.edp() < enc.edp());
    // The write-energy component alone scales exactly with flips.
    let write_ratio = (deuce.data_flips + deuce.meta_flips) as f64
        / (enc.data_flips + enc.meta_flips) as f64;
    assert!(write_ratio < 0.6, "write-energy ratio {write_ratio}");
}

/// Table 3: metadata budgets.
#[test]
fn storage_overheads_match_table3() {
    assert_eq!(SchemeConfig::new(SchemeKind::EncryptedFnw).metadata_bits(), 32);
    assert_eq!(SchemeConfig::new(SchemeKind::Deuce).metadata_bits(), 32);
    assert_eq!(SchemeConfig::new(SchemeKind::DynDeuce).metadata_bits(), 33);
    assert_eq!(SchemeConfig::new(SchemeKind::DeuceFnw).metadata_bits(), 64);
}
