//! End-to-end fault-injection scenarios: the online analogue of the
//! paper's Fig. 14 lifetime comparison. Under accelerated wear, DEUCE's
//! write reduction must translate into strictly more sustained line
//! writes before the first uncorrectable error than full-line
//! re-encryption — sequentially and under sharded parallel execution
//! with bit-identical results.

use deuce_sim::{FaultConfig, ParallelSweep, RunError, SimConfig, SimResult, Simulator, WearConfig};
use deuce_schemes::SchemeKind;
use deuce_trace::{LineAddr, Trace, TraceEvent, TraceSource};

const LINES: u64 = 2;
const WRITES_PER_LINE: usize = 4000;

/// A hot-word workload: every write changes the first 8 bytes of each
/// line pseudo-randomly and leaves the remaining 56 bytes untouched.
/// DEUCE re-encrypts only the hot words; full-line re-encryption flips
/// ~half of all 512 bits every write, wearing every cell in the line.
fn hot_word_trace() -> Trace {
    let mut events = Vec::new();
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut instr = 0;
    for _ in 0..=WRITES_PER_LINE {
        for line in 0..LINES {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let mut data = [0u8; 64];
            data[..8].copy_from_slice(&state.to_le_bytes());
            for (i, byte) in data[8..].iter_mut().enumerate() {
                *byte = (line as u8).wrapping_add(i as u8);
            }
            instr += 50;
            events.push(TraceEvent::write(0, instr, LineAddr::new(line), data));
        }
    }
    Trace::from_events(events)
}

/// Accelerated wear: ~200-write mean cell endurance (paper endurance
/// 1e8 × 2e-6), ECP-2, one spare line shared by the pool.
fn faulty_config(kind: SchemeKind) -> SimConfig {
    SimConfig::new(kind)
        .with_wear(WearConfig::vertical_only(LINES as usize))
        .with_faults(FaultConfig::accelerated(2e-6).ecp_entries(2).spare_lines(1))
}

fn run(config: SimConfig, trace: &Trace) -> SimResult {
    Simulator::new(config).run_source(&mut TraceSource::new(trace)).unwrap()
}

fn first_ue(result: &SimResult) -> Option<u64> {
    result.faults.as_ref().expect("faults enabled").first_uncorrectable_write
}

#[test]
fn deuce_outlives_full_line_reencryption() {
    let trace = hot_word_trace();
    let enc = run(faulty_config(SchemeKind::EncryptedDcw), &trace);
    let deuce = run(faulty_config(SchemeKind::Deuce), &trace);

    let enc_faults = enc.faults.as_ref().expect("faults enabled");
    let deuce_faults = deuce.faults.as_ref().expect("faults enabled");
    assert!(enc_faults.cell_deaths > 0, "accelerated wear must kill cells");
    assert!(deuce_faults.cell_deaths > 0, "DEUCE's hot words must wear out too");

    let enc_ue = first_ue(&enc).expect("full-line re-encryption must wear out within the trace");
    // DEUCE either dies strictly later or survives the whole trace.
    if let Some(deuce_ue) = first_ue(&deuce) {
        assert!(
            deuce_ue > enc_ue,
            "DEUCE must sustain more writes: DEUCE died at {deuce_ue}, encrypted at {enc_ue}"
        );
    }
    // Degradation went through the full ladder before dying: ECP
    // entries were consumed and the spare pool was used.
    assert!(enc_faults.ecp_entries_consumed > 0);
    assert!(enc_faults.lines_retired > 0);
    assert_eq!(enc_faults.spare_lines_left, 0);
    assert!(enc_faults.first_retirement_write.unwrap() < enc_ue);
}

#[test]
fn fault_reports_are_identical_under_parallel_sweep() {
    let trace = hot_word_trace();
    let configs = [
        faulty_config(SchemeKind::EncryptedDcw),
        faulty_config(SchemeKind::Deuce),
        faulty_config(SchemeKind::UnencryptedDcw),
    ];
    let sweep_with = |sweep: ParallelSweep| {
        sweep.map(&configs, None, |_, cfg| run(cfg.clone(), &trace))
    };
    let sequential = sweep_with(ParallelSweep::with_shards(1));
    for shards in [2, 4] {
        let parallel = sweep_with(ParallelSweep::with_shards(shards));
        for (seq, par) in sequential.iter().zip(&parallel) {
            assert_eq!(seq.writes, par.writes);
            assert_eq!(seq.data_flips, par.data_flips);
            assert_eq!(seq.faults, par.faults, "{shards} shards");
        }
    }
}

#[test]
fn faults_default_off_and_reports_absent() {
    let trace = hot_word_trace();
    let cfg = SimConfig::new(SchemeKind::Deuce).with_wear(WearConfig::vertical_only(LINES as usize));
    let r = run(cfg, &trace);
    assert!(r.faults.is_none(), "no fault report without fault injection");
    assert!(r.cells.is_some(), "wear tracking still on");
}

#[test]
fn faults_without_wear_is_rejected() {
    let cfg = SimConfig::new(SchemeKind::Deuce).with_faults(FaultConfig::accelerated(1e-6));
    let trace = hot_word_trace();
    let err = Simulator::new(cfg).run_source(&mut TraceSource::new(&trace)).unwrap_err();
    assert!(matches!(&err, RunError::Config(m) if m.contains("requires wear tracking")), "{err}");
}
