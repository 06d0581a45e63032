//! One-shot reproduction of the paper's headline numbers, printed side
//! by side with the published values. Runs in under a minute in release
//! mode; the full per-figure studies live in `crates/deuce-bench`.
//!
//! ```text
//! cargo run --release --example reproduce_paper
//! ```

use deuce::schemes::{SchemeConfig, SchemeKind};
use deuce::sim::{HwlMode, LifetimePolicy, RunError, SimConfig, Simulator, WearConfig};
use deuce::trace::{Benchmark, TraceConfig, TraceSource};

fn main() -> Result<(), RunError> {
    let writes = 8_000;
    let lines = 64;

    // Flip rates averaged over all 12 workloads.
    let schemes = [
        (SchemeKind::UnencryptedDcw, 12.4),
        (SchemeKind::UnencryptedFnw, 10.5),
        (SchemeKind::EncryptedDcw, 50.0),
        (SchemeKind::EncryptedFnw, 42.7),
        (SchemeKind::Ble, 33.0),
        (SchemeKind::Deuce, 23.7),
        (SchemeKind::DynDeuce, 22.0),
        (SchemeKind::DeuceFnw, 20.3),
        (SchemeKind::BleDeuce, 19.9),
    ];

    println!("== modified bits per write (Figs. 5/10/18, Table 3) ==\n");
    println!("{:<12} {:>8} {:>10}", "scheme", "paper", "measured");
    for (kind, paper) in schemes {
        let mut total = 0.0;
        for benchmark in Benchmark::ALL {
            let trace = TraceConfig::new(benchmark)
                .lines(lines)
                .writes(writes)
                .seed(42)
                .generate();
            total += Simulator::new(SimConfig::with_scheme(SchemeConfig::new(kind)))
                .run_source(&mut TraceSource::new(&trace))?
                .flip_rate();
        }
        let measured = total / 12.0 * 100.0;
        println!("{:<12} {paper:>7.1}% {measured:>9.1}%", kind.label());
    }

    // Performance and lifetime, on a representative pair of workloads.
    println!("\n== system effects ==\n");
    let trace = TraceConfig::new(Benchmark::Mcf)
        .lines(lines)
        .writes(writes * 2)
        .cores(8)
        .seed(42)
        .generate();
    let run = |kind| Simulator::new(SimConfig::new(kind)).run_source(&mut TraceSource::new(&trace));
    let enc = run(SchemeKind::EncryptedDcw)?;
    let deuce = run(SchemeKind::Deuce)?;
    println!(
        "write slots/write    paper 4.00 -> 2.64   measured {:.2} -> {:.2}",
        enc.avg_slots_per_write(),
        deuce.avg_slots_per_write()
    );
    println!(
        "speedup vs encrypted paper 1.27x (avg)    measured {:.2}x (mcf)",
        deuce.speedup_over(&enc)
    );

    let wear_trace = TraceConfig::new(Benchmark::Libquantum)
        .lines(lines)
        .writes(30_000)
        .seed(42)
        .generate();
    let lifetime = |kind: SchemeKind, hwl: Option<HwlMode>| {
        let wear = match hwl {
            Some(mode) => WearConfig::with_hwl(lines, mode).gap_interval(2),
            None => WearConfig::vertical_only(lines),
        };
        let result = Simulator::new(SimConfig::new(kind).with_wear(wear))
            .run_source(&mut TraceSource::new(&wear_trace))?;
        Ok::<_, RunError>(result.lifetime(LifetimePolicy::VerticalLeveled).expect("wear on"))
    };
    let baseline = lifetime(SchemeKind::EncryptedDcw, None)?;
    println!(
        "lifetime vs encrypted: DEUCE paper 1.11x  measured {:.2}x; \
         DEUCE+HWL paper ~2x  measured {:.2}x (libq)",
        lifetime(SchemeKind::Deuce, None)? / baseline,
        lifetime(SchemeKind::Deuce, Some(HwlMode::Hashed))? / baseline,
    );
    println!("\nFull per-figure tables: cargo run -p deuce-bench --bin fig10_scheme_comparison ...");
    Ok(())
}
