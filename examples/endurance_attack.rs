//! Endurance attacks and defenses (§7.3): a malicious program tries to
//! wear out PCM cells; wear leveling slows it and the online detector
//! catches it.
//!
//! ```text
//! cargo run --release --example endurance_attack
//! ```

use deuce::schemes::SchemeKind;
use deuce::sim::{HwlMode, LifetimePolicy, RunError, SimConfig, Simulator, WearConfig};
use deuce::trace::{AttackKind, AttackTrace, Benchmark, TraceConfig, TraceSource};
use deuce::wear::{AttackDetector, WriteVerdict};

fn main() -> Result<(), RunError> {
    println!("== Part 1: what hammering does to lifetime ==\n");
    let attack = AttackTrace::new(AttackKind::SingleBit).writes(20_000).generate();
    for (name, hwl) in [("no HWL", None), ("HWL (hashed)", Some(HwlMode::Hashed))] {
        let wear = match hwl {
            Some(mode) => WearConfig::with_hwl(4, mode).gap_interval(2),
            None => WearConfig::vertical_only(4),
        };
        let result = Simulator::new(SimConfig::new(SchemeKind::UnencryptedDcw).with_wear(wear))
            .run_source(&mut TraceSource::new(&attack))?;
        let lifetime = result.lifetime(LifetimePolicy::Raw).expect("wear on");
        println!(
            "single-bit hammering, {name:<13} lifetime metric {lifetime:>8.1} \
             (line writes per binding-cell write)"
        );
    }
    println!();
    println!("Without intra-line leveling every attack write lands on one");
    println!("cell; HWL rotates the target across the 512-bit ring.\n");

    println!("== Part 2: online detection ==\n");
    let mut detector = AttackDetector::new(2_000, 0.15);
    let mut first_alarm = None;
    let camo = AttackTrace::new(AttackKind::SingleLine)
        .writes(3_000)
        .camouflage(4)
        .seed(1)
        .generate();
    for (i, event) in camo.writes().enumerate() {
        if detector.observe(event.line.value()) != WriteVerdict::Benign && first_alarm.is_none() {
            first_alarm = Some(i);
        }
    }
    println!(
        "camouflaged attack (1 attack write per 4 benign): first alarm \
         after {} writes, {} alarms total",
        first_alarm.expect("attack must be detected"),
        detector.alarms(),
    );

    let mut detector = AttackDetector::new(2_000, 0.15);
    let benign = TraceConfig::new(Benchmark::Omnetpp)
        .lines(256)
        .writes(6_000)
        .seed(11)
        .generate();
    for event in benign.writes() {
        assert_eq!(detector.observe(event.line.value()), WriteVerdict::Benign);
    }
    println!("omnetpp (the most line-skewed benign profile): 0 alarms");
    println!();
    println!("The detector keys on sustained per-line traffic share; benign");
    println!("Zipf skew stays under the threshold that any wear-out-capable");
    println!("attack must exceed.");
    Ok(())
}
