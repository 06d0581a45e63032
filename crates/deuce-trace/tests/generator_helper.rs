//! The generator's helper thread: a long stream generates on a thread
//! of its own, named `deuce-generator`; a short stream, and
//! `generate()`, never start one; and dropping a half-read long stream
//! stops and joins its thread promptly.
//!
//! One test, so no other test in this binary starts a generator thread
//! while it counts them.

use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use deuce_trace::{Benchmark, TraceConfig, WriteSource, HELPER_MIN_WRITES};

/// Live threads of this process named `deuce-generator` (Linux only;
/// `None` where `/proc/self/task` cannot be read).
fn generator_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.trim_end() == "deuce-generator")
            .count(),
    )
}

/// Waits up to a second for the count to settle at `want`: a joined
/// thread can outlive `pthread_join` by a moment in `/proc`.
fn settles_at(want: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        match generator_threads() {
            None => return true,
            Some(n) if n == want => return true,
            Some(_) if Instant::now() > deadline => return false,
            Some(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn config(writes: usize) -> TraceConfig {
    TraceConfig::new(Benchmark::Mcf).lines(512).cores(2).seed(3).writes(writes)
}

#[test]
fn helper_thread_starts_only_for_long_streams_and_joins_on_drop() {
    // Below the threshold, a fully drained stream never starts one.
    let mut short = config(HELPER_MIN_WRITES - 1).stream();
    let mut pulled = 0u64;
    while short.next_event().unwrap().is_some() {
        pulled += 1;
        if pulled == 1_000 {
            assert!(settles_at(0), "a short stream generates inline");
        }
    }
    drop(short);
    let _ = config(2_000).generate();
    assert!(settles_at(0), "generate() runs on the caller's thread");

    // A long stream starts its thread at the first pull, not before.
    let mut long = config(HELPER_MIN_WRITES).stream();
    assert!(settles_at(0), "stream() alone starts no thread");
    for _ in 0..10 {
        assert!(long.next_event().unwrap().is_some());
    }
    assert!(settles_at(1), "the first pull starts the helper");

    // By now the helper has filled its queue and waits on it: dropping
    // the source must close the queue before it joins, or this hangs.
    let (done, dropped) = mpsc::channel();
    let started = Instant::now();
    thread::spawn(move || {
        drop(long);
        done.send(()).unwrap();
    });
    dropped
        .recv_timeout(Duration::from_secs(10))
        .expect("dropping a half-read long stream returns promptly");
    assert!(started.elapsed() < Duration::from_secs(10));
    assert!(settles_at(0), "drop joins the helper");
}
