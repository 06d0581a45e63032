//! End-to-end endurance-attack scenarios (§7.3): malicious write
//! streams against the wear-leveling and detection defenses.

use deuce::schemes::SchemeKind;
use deuce::sim::{HwlMode, LifetimePolicy, SimConfig, SimResult, Simulator, WearConfig};
use deuce::trace::{AttackKind, AttackTrace, Benchmark, Trace, TraceConfig, TraceSource};
use deuce::wear::{AttackDetector, WriteVerdict};

fn run(config: SimConfig, trace: &Trace) -> SimResult {
    Simulator::new(config).run_source(&mut TraceSource::new(trace)).unwrap()
}

/// A single-bit hammering attack devastates un-leveled intra-line wear;
/// HWL restores most of the lifetime.
#[test]
fn hwl_defeats_single_bit_hammering() {
    let trace = AttackTrace::new(AttackKind::SingleBit).writes(20_000).generate();

    let lifetime = |hwl: Option<HwlMode>| {
        let wear = match hwl {
            Some(mode) => WearConfig::with_hwl(4, mode).gap_interval(2),
            None => WearConfig::vertical_only(4),
        };
        run(SimConfig::new(SchemeKind::UnencryptedDcw).with_wear(wear), &trace)
            .lifetime(LifetimePolicy::Raw)
            .expect("wear on")
    };

    let unleveled = lifetime(None);
    let leveled = lifetime(Some(HwlMode::Hashed));
    // Unleveled: every write hits the same cell -> lifetime metric ~1.
    assert!(unleveled < 1.5, "unleveled {unleveled}");
    // HWL spreads the bit across the 512-cell ring.
    assert!(
        leveled > unleveled * 50.0,
        "HWL should spread hammering: {leveled} vs {unleveled}"
    );
}

/// The detector flags hammering attacks within one window, including
/// the small-set evasion, while staying quiet on every benign SPEC
/// profile.
#[test]
fn detector_separates_attacks_from_benchmarks() {
    let run = |trace: &deuce::trace::Trace| {
        let mut detector = AttackDetector::new(2_000, 0.15);
        let mut alarms = 0u64;
        for event in trace.writes() {
            if detector.observe(event.line.value()) != WriteVerdict::Benign {
                alarms += 1;
            }
        }
        alarms
    };

    for kind in [
        AttackKind::SingleLine,
        AttackKind::SmallSet { lines: 4 },
        AttackKind::SingleBit,
    ] {
        let trace = AttackTrace::new(kind).writes(5_000).generate();
        assert!(run(&trace) > 0, "{kind:?} must be detected");
    }

    // Camouflaged attack: 4 benign writes per attack write still leaves
    // the target at ~20% of traffic — above the threshold, while every
    // benign benchmark's hottest line stays below it.
    let camo = AttackTrace::new(AttackKind::SingleLine)
        .writes(3_000)
        .camouflage(4)
        .seed(1)
        .generate();
    assert!(run(&camo) > 0, "camouflaged attack still crosses the threshold");

    for benchmark in Benchmark::ALL {
        let trace = TraceConfig::new(benchmark)
            .lines(256)
            .writes(6_000)
            .seed(11)
            .generate();
        assert_eq!(run(&trace), 0, "{benchmark} must not trip the detector");
    }
}

/// Footnote 2's point: a pattern that *chases the algebraic rotation*
/// (shifting its hot bit in lockstep with Start') keeps hammering the
/// same physical cell; the hashed rotation decorrelates and defeats it.
#[test]
fn hashed_rotation_resists_rotation_chasing() {
    use deuce::nvm::{CellArray, LineImage, MetaBits};
    use deuce::wear::{HorizontalWearLeveler, StartGap};

    let bits = 512u32;
    let writes = 6_000usize;

    let attack_run = |mode: HwlMode| {
        let mut sg = StartGap::new(4, 1);
        let hwl = HorizontalWearLeveler::new(mode, bits);
        // The adversary knows the algorithm and the public Start-Gap
        // registers, so it can compute the *algebraic* rotation exactly;
        // the hashed variant's per-line mixing is what it cannot know.
        let oracle = HorizontalWearLeveler::new(HwlMode::Algebraic, bits);
        let mut cells = CellArray::new(1, bits);
        let mut previous = LineImage::new([0u8; 64], MetaBits::new(0));
        for _ in 0..writes {
            // Place the flipped bit so that (bit + predicted) % bits == 0.
            let predicted = oracle.rotation(&sg, 0, 0);
            let target_bit = (bits - predicted) % bits;
            let mut data = [0u8; 64];
            // Toggle relative to previous image so exactly one cell flips.
            data.copy_from_slice(previous.data());
            data[(target_bit / 8) as usize] ^= 1 << (target_bit % 8);
            let next = LineImage::new(data, MetaBits::new(0));
            let rotation = hwl.rotation(&sg, 0, 0);
            cells.record_write(0, &previous, &next, rotation);
            previous = next;
            let _ = sg.record_write();
        }
        cells.wear_summary().max_cell_writes
    };

    let algebraic_max = attack_run(HwlMode::Algebraic);
    let hashed_max = attack_run(HwlMode::Hashed);
    // Against the algebraic rotation the prediction is perfect: every
    // write lands in physical cell 0.
    assert_eq!(algebraic_max, writes as u64, "algebraic rotation is chaseable");
    // The hash breaks the prediction; wear spreads by orders of magnitude.
    assert!(
        hashed_max < writes as u64 / 10,
        "hashed rotation should spread the attack: max {hashed_max}"
    );
}
