//! `deuce watch` — live monitoring of checkpointed runs and sharded
//! sweeps.
//!
//! Watch tails the three progress formats other subcommands already
//! write: run checkpoint files (`run --stream --checkpoint`, JSONL
//! `run_checkpoint` lines plus an optional `run_total` stream-length
//! hint), sweep manifests (`sweep --manifest`, a header line plus
//! one line per finished cell), and serve telemetry streams
//! (`serve --progress`, `serve_progress` lines; the last intact line
//! wins). All are append-only and flushed per record, so polling is
//! just re-reading the file; a torn final line — a writer caught
//! mid-append — is skipped, never an error, and the intact prefix
//! still counts.
//!
//! `--once` prints a single snapshot with no rates (rates need two
//! samples) and exits — deterministic, so CI can diff it. Without it,
//! watch re-polls every `--interval-ms`, deriving throughput and ETA
//! from successive snapshots, flags sources whose progress has stopped
//! moving, and exits once every source is complete (sources whose
//! total is unknown are never complete; interrupt to stop watching).

use std::fs;
use std::io::Write;
use std::thread;
use std::time::{Duration, Instant};

use deuce_sim::telemetry::parse::parse_jsonl;

use crate::args::{CliError, WatchArgs};

/// What one poll of a source file showed.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Progress {
    /// File missing, empty, or not yet recognisable.
    Waiting,
    /// A run checkpoint file.
    Run {
        /// Trace events consumed at the last checkpoint.
        events: u64,
        /// Counted writes at the last checkpoint.
        writes: u64,
        /// Total trace events, when the writer knew its stream length.
        total: Option<u64>,
    },
    /// A sweep manifest.
    Sweep {
        /// Cells finished so far.
        done: u64,
        /// Cells in the whole grid.
        total: u64,
    },
    /// A serve progress stream (`serve --progress`).
    Serve {
        /// Requests applied across all tenants so far.
        applied: u64,
        /// Requests rejected with queue-full so far.
        rejected: u64,
        /// Requests the run will apply in total.
        total: u64,
    },
}

impl Progress {
    /// The scalar that must move for the source to count as live.
    fn value(self) -> u64 {
        match self {
            Progress::Waiting => 0,
            Progress::Run { events, .. } => events,
            Progress::Sweep { done, .. } => done,
            Progress::Serve { applied, .. } => applied,
        }
    }

    fn complete(self) -> bool {
        match self {
            Progress::Waiting => false,
            Progress::Run { events, total, .. } => total.is_some_and(|t| events >= t),
            Progress::Sweep { done, total } => done >= total,
            Progress::Serve { applied, total, .. } => applied >= total,
        }
    }

    fn kind(self) -> &'static str {
        match self {
            Progress::Waiting => "?",
            Progress::Run { .. } => "run",
            Progress::Sweep { .. } => "sweep",
            Progress::Serve { .. } => "serve",
        }
    }

    fn describe(self) -> String {
        match self {
            Progress::Waiting => "waiting for data".into(),
            Progress::Run { events, writes, total } => match total {
                Some(total) => format!("{events}/{total} events, {writes} writes"),
                None => format!("{events}/? events, {writes} writes"),
            },
            Progress::Sweep { done, total } => format!("{done}/{total} cells"),
            Progress::Serve { applied, rejected, total } => {
                format!("{applied}/{total} requests applied, {rejected} rejected")
            }
        }
    }
}

/// Reads one source file and classifies it, line by line so a torn
/// tail costs only that line.
fn poll(path: &str) -> Progress {
    let Ok(text) = fs::read_to_string(path) else {
        return Progress::Waiting;
    };
    let mut manifest_cells: Option<u64> = None;
    let mut cells_done: u64 = 0;
    let mut last_checkpoint: Option<(u64, u64)> = None;
    let mut run_total: Option<u64> = None;
    let mut serve: Option<(u64, u64, u64)> = None;
    for line in text.lines() {
        let Ok(events) = parse_jsonl(line) else { continue };
        for event in &events {
            if event.str("manifest").is_some() {
                manifest_cells = event.u64("cells");
            } else if event.u64("cell").is_some() {
                cells_done += 1;
            } else if event.kind() == "run_checkpoint" {
                if let (Some(e), Some(w)) = (event.u64("events"), event.u64("writes")) {
                    last_checkpoint = Some((e, w));
                }
            } else if event.kind() == "run_total" {
                run_total = event.u64("events");
            } else if event.kind() == "serve_progress" {
                if let (Some(a), Some(t)) = (event.u64("applied"), event.u64("total")) {
                    serve = Some((a, event.u64("rejected").unwrap_or(0), t));
                }
            }
        }
    }
    if let Some(total) = manifest_cells {
        Progress::Sweep { done: cells_done, total }
    } else if let Some((applied, rejected, total)) = serve {
        Progress::Serve { applied, rejected, total }
    } else if let Some((events, writes)) = last_checkpoint {
        Progress::Run { events, writes, total: run_total }
    } else if let Some(total) = run_total {
        Progress::Run { events: 0, writes: 0, total: Some(total) }
    } else {
        Progress::Waiting
    }
}

/// Per-source live-rate state between polls.
struct Tracker {
    path: String,
    progress: Progress,
    /// `value()` at the previous poll, for rate and stall detection.
    last_value: u64,
    /// Consecutive polls with no movement.
    stale_polls: u32,
}

/// A source is called stalled after this many consecutive polls with
/// no movement.
const STALL_POLLS: u32 = 5;

impl Tracker {
    fn new(path: String) -> Self {
        Self { path, progress: Progress::Waiting, last_value: 0, stale_polls: 0 }
    }

    /// Re-polls and returns the per-second progress rate since the
    /// last poll (`None` on the first).
    fn tick(&mut self, first: bool, elapsed: Duration) -> Option<f64> {
        self.progress = poll(&self.path);
        let value = self.progress.value();
        let moved = value != self.last_value;
        self.stale_polls = if moved || first { 0 } else { self.stale_polls + 1 };
        let rate = (!first && elapsed.as_secs_f64() > 0.0)
            .then(|| (value.saturating_sub(self.last_value)) as f64 / elapsed.as_secs_f64());
        self.last_value = value;
        rate
    }

    fn status(&self) -> &'static str {
        if self.progress.complete() {
            "done"
        } else if matches!(self.progress, Progress::Waiting) {
            "waiting"
        } else if self.stale_polls >= STALL_POLLS {
            "stalled"
        } else {
            "running"
        }
    }

    /// Seconds left at `rate`, when both a total and a rate exist.
    fn eta_secs(&self, rate: Option<f64>) -> Option<f64> {
        let rate = rate.filter(|r| *r > 0.0)?;
        let (value, total) = match self.progress {
            Progress::Run { events, total, .. } => (events, total?),
            Progress::Sweep { done, total } => (done, total),
            Progress::Serve { applied, total, .. } => (applied, total),
            Progress::Waiting => return None,
        };
        Some(total.saturating_sub(value) as f64 / rate)
    }
}

/// Renders one dashboard refresh for every source.
fn render<W: Write>(
    out: &mut W,
    trackers: &[Tracker],
    rates: &[Option<f64>],
) -> Result<(), CliError> {
    writeln!(out, "source\tkind\tprogress\trate_per_sec\teta\tstatus")?;
    for (tracker, &rate) in trackers.iter().zip(rates) {
        let rate_cell = match rate {
            Some(r) => format!("{r:.1}"),
            None => "n/a".into(),
        };
        let eta_cell = if tracker.progress.complete() {
            "done".into()
        } else {
            match tracker.eta_secs(rate) {
                Some(secs) => format!("{secs:.1}s"),
                None => "n/a".into(),
            }
        };
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            tracker.path,
            tracker.progress.kind(),
            tracker.progress.describe(),
            rate_cell,
            eta_cell,
            tracker.status(),
        )?;
    }
    out.flush()?;
    Ok(())
}

/// Tails checkpoint files, sweep manifests, and serve progress streams
/// until every source completes (or forever, for sources with no known
/// total).
///
/// # Errors
///
/// Returns [`CliError::Io`] when writing the dashboard fails. Missing
/// or partial source files are not errors — they show as `waiting`.
pub fn watch<W: Write>(args: &WatchArgs, out: &mut W) -> Result<(), CliError> {
    let mut trackers: Vec<Tracker> = args.paths.iter().cloned().map(Tracker::new).collect();
    let interval = Duration::from_millis(args.interval_ms);
    let mut first = true;
    let mut last_poll = Instant::now();
    loop {
        let elapsed = last_poll.elapsed();
        last_poll = Instant::now();
        let rates: Vec<Option<f64>> =
            trackers.iter_mut().map(|t| t.tick(first, elapsed)).collect();
        if !first {
            writeln!(out)?;
        }
        render(out, &trackers, &rates)?;
        if args.once || trackers.iter().all(|t| t.progress.complete()) {
            return Ok(());
        }
        first = false;
        thread::sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A directory of the test's own, removed when dropped.
    struct TestDir(std::path::PathBuf);

    impl TestDir {
        fn join(&self, name: &str) -> std::path::PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn dir() -> TestDir {
        let dir = std::env::temp_dir().join(format!(
            "deuce-watch-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        fs::create_dir_all(&dir).unwrap();
        TestDir(dir)
    }

    #[test]
    fn classifies_checkpoint_files_with_totals() {
        let d = dir();
        let path = d.join("cp.jsonl");
        fs::write(
            &path,
            "{\"type\":\"run_total\",\"events\":5000}\n\
             {\"type\":\"run_checkpoint\",\"version\":1,\"events\":1200,\"reads\":100,\
             \"writes\":1100,\"data_flips\":5,\"meta_flips\":1,\"counter_flips\":0,\
             \"epoch_starts\":2,\"total_slots\":9,\"exec_ns_bits\":\"0000000000000000\"}\n",
        )
        .unwrap();
        let p = poll(path.to_str().unwrap());
        assert_eq!(p, Progress::Run { events: 1200, writes: 1100, total: Some(5000) });
        assert!(!p.complete());
        assert_eq!(p.describe(), "1200/5000 events, 1100 writes");
    }

    #[test]
    fn classifies_manifests_and_tolerates_torn_tails() {
        let d = dir();
        let path = d.join("m.jsonl");
        fs::write(
            &path,
            "{\"manifest\":\"deuce-sweep\",\"version\":1,\"grid\":\"epoch x word\",\
             \"cells\":4,\"fingerprint\":\"00112233aabbccdd\",\"columns\":\"a\\tb\"}\n\
             {\"cell\":0,\"label\":\"w2 e32\",\"writes\":100,\"row\":\"2\\t32\"}\n\
             {\"cell\":1,\"label\":\"w2 e64\",\"writes\":100,\"row\":\"2\\t64\"}\n\
             {\"cell\":2,\"label\":\"w4 e3",
        )
        .unwrap();
        let p = poll(path.to_str().unwrap());
        assert_eq!(p, Progress::Sweep { done: 2, total: 4 }, "torn third cell is skipped");
        assert_eq!(p.describe(), "2/4 cells");
    }

    #[test]
    fn classifies_serve_streams_last_line_wins() {
        let d = dir();
        let path = d.join("serve.jsonl");
        fs::write(
            &path,
            "{\"type\":\"serve_progress\",\"submitted\":90,\"applied\":80,\
             \"rejected\":3,\"total\":200,\"elapsed_ms\":12}\n\
             {\"type\":\"serve_progress\",\"submitted\":200,\"applied\":150,\
             \"rejected\":7,\"total\":200,\"elapsed_ms\":40}\n\
             {\"type\":\"serve_progress\",\"submitted\":200,\"app",
        )
        .unwrap();
        let p = poll(path.to_str().unwrap());
        assert_eq!(
            p,
            Progress::Serve { applied: 150, rejected: 7, total: 200 },
            "torn third line is skipped, second wins"
        );
        assert!(!p.complete());
        assert_eq!(p.kind(), "serve");
        assert_eq!(p.describe(), "150/200 requests applied, 7 rejected");
    }

    #[test]
    fn serve_stream_completes_when_applied_reaches_total() {
        let d = dir();
        let path = d.join("serve-done.jsonl");
        fs::write(
            &path,
            "{\"type\":\"serve_progress\",\"submitted\":200,\"applied\":200,\
             \"rejected\":0,\"total\":200,\"elapsed_ms\":77}\n",
        )
        .unwrap();
        let p = poll(path.to_str().unwrap());
        assert!(p.complete());
        assert_eq!(p.describe(), "200/200 requests applied, 0 rejected");
    }

    #[test]
    fn missing_files_wait() {
        let p = poll("/nonexistent/deuce-watch-test.jsonl");
        assert_eq!(p, Progress::Waiting);
        assert!(!p.complete());
        assert_eq!(p.kind(), "?");
    }

    #[test]
    fn once_snapshot_is_deterministic() {
        let d = dir();
        let path = d.join("full.jsonl");
        fs::write(
            &path,
            "{\"manifest\":\"deuce-sweep\",\"version\":1,\"grid\":\"g\",\"cells\":1,\
             \"fingerprint\":\"0000000000000000\",\"columns\":\"c\"}\n\
             {\"cell\":0,\"label\":\"l\",\"writes\":10,\"row\":\"r\"}\n",
        )
        .unwrap();
        let args = WatchArgs {
            paths: vec![path.to_str().unwrap().to_string()],
            once: true,
            interval_ms: 2000,
        };
        let mut out = Vec::new();
        watch(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("1/1 cells"), "got {text}");
        assert!(text.contains("\tdone\n"), "got {text}");
        assert!(text.contains("n/a"), "a single snapshot has no rate");
        let mut again = Vec::new();
        watch(&args, &mut again).unwrap();
        assert_eq!(text, String::from_utf8(again).unwrap(), "snapshots diff clean");
    }

    #[test]
    fn live_watch_exits_when_all_sources_complete() {
        let d = dir();
        let path = d.join("live.jsonl");
        fs::write(
            &path,
            "{\"type\":\"run_total\",\"events\":10}\n\
             {\"type\":\"run_checkpoint\",\"version\":1,\"events\":10,\"reads\":0,\
             \"writes\":8,\"data_flips\":0,\"meta_flips\":0,\"counter_flips\":0,\
             \"epoch_starts\":0,\"total_slots\":0,\"exec_ns_bits\":\"0000000000000000\"}\n",
        )
        .unwrap();
        let args = WatchArgs {
            paths: vec![path.to_str().unwrap().to_string()],
            once: false,
            interval_ms: 1,
        };
        let mut out = Vec::new();
        watch(&args, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("10/10 events, 8 writes"), "got {text}");
        assert!(text.ends_with("done\n"), "got {text}");
    }
}
