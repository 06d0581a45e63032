//! The out-of-core page-file store must be an invisible substrate: a
//! run over `FilePageBackend` is bit-identical to the same run over the
//! in-RAM arena — every counter, the fault-degradation timeline, and
//! the exact `f64` bits of simulated time. Only the `store` paging
//! block (faults/evictions/flushes/residency) may differ, because the
//! arena reports `None` there. Checkpoints additionally carry the
//! flushed-page fingerprint, so a resume is verified against the page
//! file's write-back history, not just the run counters.

use deuce_sim::{
    Checkpoints, FaultConfig, FileStoreConfig, RunError, SimConfig, SimResult, Simulator,
    StepSession, StoreBackend, WearConfig,
};
use deuce_schemes::{PageHeader, SchemeKind, SLOTS_PER_PAGE};
use deuce_telemetry::NullRecorder;
use deuce_trace::{Benchmark, LineAddr, Trace, TraceConfig, TraceEvent, TraceSource, LINE_BYTES};
use std::path::{Path, PathBuf};

fn workload() -> TraceConfig {
    // 192 distinct lines = 3 pages of 64 slots, so a one-page residency
    // budget must fault and evict continuously.
    TraceConfig::new(Benchmark::Mcf).lines(192).writes(1_500).cores(2).seed(23)
}

fn page_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("deuce-paged-parity-{tag}-{}.pages", std::process::id()))
}

fn paged(config: SimConfig, tag: &str, resident_pages: usize) -> SimConfig {
    config.with_store_backend(StoreBackend::File(FileStoreConfig::new(
        page_file(tag),
        resident_pages,
    )))
}

fn run(config: SimConfig, trace: &Trace) -> SimResult {
    Simulator::new(config).run_source(&mut TraceSource::new(trace)).unwrap()
}

/// Every counter that feeds a paper figure, plus exact simulated time.
fn fingerprint(r: &SimResult) -> (u64, u64, u64, u64, u64, u64, u64, u64) {
    (
        r.reads,
        r.writes,
        r.data_flips,
        r.meta_flips,
        r.counter_flips,
        r.epoch_starts,
        r.total_slots,
        r.exec_time_ns.to_bits(),
    )
}

#[test]
fn paged_runs_match_arena_across_schemes_under_eviction() {
    let trace = workload().generate();
    for kind in SchemeKind::ALL {
        let arena = run(SimConfig::new(kind), &trace);
        let tag = format!("schemes-{kind}");
        let paged_result = run(paged(SimConfig::new(kind), &tag, 1), &trace);
        assert_eq!(
            fingerprint(&paged_result),
            fingerprint(&arena),
            "{kind}: paged run must be bit-identical to the arena"
        );
        assert!(arena.store.is_none(), "arena reports no paging stats");
        let stats = paged_result.store.expect("paged run reports paging stats");
        assert!(stats.page_evictions > 0, "{kind}: one-page budget must evict");
        assert!(stats.pages_flushed > 0, "{kind}: evicted dirty pages flush");
        assert!(
            stats.resident_bytes <= stats.peak_resident_bytes,
            "{kind}: end-of-run residency within the peak"
        );
        std::fs::remove_file(page_file(&tag)).ok();
    }
}

#[test]
fn residency_stays_flat_under_a_fixed_budget() {
    let trace = workload().generate();
    let tag = "budget";
    let r = run(paged(SimConfig::new(SchemeKind::Deuce), tag, 2), &trace);
    let stats = r.store.expect("paged run");
    // 192 lines over a 2-page budget: peak residency is capped at the
    // budget even though the address space is 1.5× larger.
    let per_line = stats.peak_resident_bytes / 128;
    assert!(per_line > 0, "slots resident at peak");
    assert!(
        stats.peak_resident_bytes <= 2 * 64 * per_line + 2 * 64,
        "peak {} must be bounded by the two-page budget",
        stats.peak_resident_bytes
    );
    assert_eq!(r.line_store_bytes, stats.resident_bytes, "gauge matches the paging stats");
    std::fs::remove_file(page_file(tag)).ok();
}

#[test]
fn faulted_paged_run_reproduces_the_degradation_timeline() {
    // Accelerated wear with a tiny ECP budget: lines retire to spares
    // and the run crosses into uncorrectable writes. Both transitions
    // happen on lines that have been evicted and reloaded in the
    // one-page configuration, so this is the evict-then-retire and
    // UE-after-eviction check.
    let trace = workload().generate();
    let lines = trace
        .writes()
        .map(|e| e.line.value())
        .collect::<std::collections::HashSet<_>>()
        .len();
    let config_for = |store_tag: Option<&str>| {
        let base = SimConfig::new(SchemeKind::EncryptedDcw)
            .with_wear(WearConfig::vertical_only(lines))
            .with_faults(FaultConfig::accelerated(2e-8).ecp_entries(1).spare_lines(2));
        match store_tag {
            None => base,
            Some(tag) => paged(base, tag, 1),
        }
    };
    let arena = run(config_for(None), &trace);
    let paged_result = run(config_for(Some("faults")), &trace);
    assert_eq!(fingerprint(&paged_result), fingerprint(&arena));
    let arena_faults = arena.faults.as_ref().expect("faulted run reports");
    let paged_faults = paged_result.faults.as_ref().expect("faulted run reports");
    assert_eq!(paged_faults, arena_faults, "fault report is bit-identical");
    assert!(arena_faults.lines_retired > 0, "workload must exercise retirement");
    assert!(
        arena_faults.first_uncorrectable_write.is_some(),
        "workload must exhaust correction resources"
    );
    assert!(paged_result.store.unwrap().page_evictions > 0, "faulted lines were evicted");
    std::fs::remove_file(page_file("faults")).ok();
}

#[test]
fn checkpoints_carry_flush_state_and_resume_verifies_it() {
    let config = workload();
    let tag = "checkpoint";
    let simulator = Simulator::new(paged(SimConfig::new(SchemeKind::Deuce), tag, 1));

    let mut checkpoints = Vec::new();
    let mut sink = |cp: &_| checkpoints.push(*cp);
    let emit = Checkpoints::Emit { every_writes: 400, sink: &mut sink };
    let reference = simulator.run(&mut config.stream(), &mut NullRecorder, emit).unwrap();
    let last = checkpoints.last().unwrap();
    assert!(last.flushed_pages > 0, "evictions flushed pages before the final checkpoint");
    assert_ne!(last.flush_fp, 0, "fingerprint chains over flushed bytes");
    // The final checkpoint is captured at stream end, before the
    // end-of-run flush of still-dirty resident pages.
    assert!(last.flushed_pages <= reference.store.unwrap().pages_flushed);

    // Replay-verify from an intermediate checkpoint: evictions recur at
    // identical stream positions, so the flush state matches too.
    let mid = checkpoints[1];
    assert!(mid.flushed_pages > 0, "mid-stream checkpoint has flush history");
    let resumed =
        simulator.run(&mut config.stream(), &mut NullRecorder, Checkpoints::Verify(&mid)).unwrap();
    assert_eq!(fingerprint(&resumed), fingerprint(&reference));

    // An arena resume against a paged checkpoint must fail on the flush
    // state even though every run counter matches.
    let arena = Simulator::new(SimConfig::new(SchemeKind::Deuce));
    let err =
        arena.run(&mut config.stream(), &mut NullRecorder, Checkpoints::Verify(&mid)).unwrap_err();
    match err {
        RunError::CheckpointMismatch { field, .. } => {
            assert!(
                field == "flushed_pages" || field == "flush_fp",
                "mismatch must be on the flush state, got {field}"
            );
        }
        other => panic!("expected a checkpoint mismatch, got {other:?}"),
    }
    std::fs::remove_file(page_file(tag)).ok();
}

#[test]
fn unwritable_page_file_reports_a_store_error() {
    let missing_dir = std::env::temp_dir().join("deuce-paged-parity-no-such-dir").join("f.pages");
    let config = SimConfig::new(SchemeKind::Deuce)
        .with_store_backend(StoreBackend::File(FileStoreConfig::new(missing_dir, 4)));
    let err = Simulator::new(config).run_source(&mut workload().stream()).unwrap_err();
    assert!(matches!(err, RunError::Store(_)), "{err:?}");
}

/// One write of round `round` to line `line`, with data unique to both.
fn round_write(round: u8, line: u64) -> TraceEvent {
    let mut data = [round; LINE_BYTES];
    data[(line % 64) as usize] = line as u8;
    TraceEvent::write(0, u64::from(round) * 1_000 + line, LineAddr::new(line), data)
}

/// Steps `session` through one round of writes over lines `0..3 pages`,
/// in slot order.
fn step_round(session: &mut StepSession<deuce_schemes::AnyScheme>, round: u8) {
    for line in 0..3 * SLOTS_PER_PAGE as u64 {
        let _ = session.step(&round_write(round, line));
    }
}

/// A DEUCE session over a one-page budget after two rounds over three
/// pages: pages 0 and 1 are flushed, page 2 is resident and dirty.
fn flushed_session(tag: &str) -> StepSession<deuce_schemes::AnyScheme> {
    let simulator = Simulator::new(paged(SimConfig::new(SchemeKind::Deuce), tag, 1));
    let mut session = simulator.session(1).expect("create page file");
    step_round(&mut session, 1);
    step_round(&mut session, 2);
    assert!(session.checkpoint().flushed_pages >= 2, "pages 0 and 1 were flushed");
    session
}

/// One way to damage a flushed page record.
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// XOR 0xff into the byte at this offset within the record.
    Flip(usize),
    /// Cut the file back to its header.
    Truncate,
    /// Copy the next page's record over this one.
    CopyNext,
}

/// Damages page `page`'s record in the page file at `path`.
fn damage(path: &Path, page: usize, damage: Damage) {
    let mut file = std::fs::read(path).expect("read page file");
    let header = PageHeader::decode(file[..PageHeader::BYTES].try_into().expect("header"));
    let record = header.record_bytes();
    let at = PageHeader::BYTES + page * record;
    match damage {
        Damage::Flip(offset) => file[at + offset] ^= 0xff,
        Damage::Truncate => file.truncate(PageHeader::BYTES),
        Damage::CopyNext => file.copy_within(at + record..at + 2 * record, at),
    }
    std::fs::write(path, &file).expect("rewrite page file");
}

/// A page file corrupted under a running session never panics the
/// session: the page fails to load, the run keeps stepping on blank
/// states, and `finish` returns a store error naming the page.
#[test]
fn corrupted_page_files_fail_with_a_store_error_naming_the_page() {
    // DEUCE record offsets: presence word, 64 stored lines, 64 AnyState
    // slots of 41 bytes (tag byte first), checksum.
    let stored = 8;
    let states = stored + SLOTS_PER_PAGE * LINE_BYTES;
    let checksum = states + SLOTS_PER_PAGE * 41;
    let cases = [
        ("presence-word", Damage::Flip(3)),
        ("stored-line", Damage::Flip(stored + 5 * LINE_BYTES + 7)),
        ("state-tag", Damage::Flip(states)),
        ("checksum-word", Damage::Flip(checksum + 3)),
        ("truncated", Damage::Truncate),
        ("record-copied", Damage::CopyNext),
    ];
    for (case, corruption) in cases {
        let tag = format!("corrupt-{case}");
        let mut session = flushed_session(&tag);
        damage(&page_file(&tag), 0, corruption);
        step_round(&mut session, 3);
        match session.finish() {
            Err(RunError::Store(message)) => {
                assert!(message.contains("page 0:"), "{case}: {message}");
            }
            other => panic!("{case}: expected a store error naming page 0, got {other:?}"),
        }
        std::fs::remove_file(page_file(&tag)).ok();
    }
}
