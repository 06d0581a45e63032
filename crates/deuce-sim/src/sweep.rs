//! Sharded parallel sweep execution.
//!
//! Every figure in the paper is a *grid*: benchmarks × schemes,
//! benchmarks × epochs, word sizes × epochs. The cells are mutually
//! independent simulations, so [`ParallelSweep`] shards them across OS
//! threads — one shard per benchmark×config cell — while keeping the
//! results **bit-identical** to a sequential run:
//!
//! - results come back in input order, regardless of which thread
//!   finished first;
//! - each cell's randomness is derived only from its own seed (via
//!   [`deuce_rng::derive_seed`] in [`ParallelSweep::run_seeded`]), never
//!   from scheduling;
//! - workers take a fixed round-robin slice of the grid, so the shard
//!   assignment itself is deterministic too.
//!
//! ```
//! use deuce_sim::{ParallelSweep, SimConfig, SweepCell};
//! use deuce_schemes::SchemeKind;
//! use deuce_trace::{Benchmark, TraceConfig};
//!
//! let cells: Vec<SweepCell> = [SchemeKind::Deuce, SchemeKind::EncryptedDcw]
//!     .into_iter()
//!     .map(|kind| SweepCell {
//!         label: kind.to_string(),
//!         trace: TraceConfig::new(Benchmark::Mcf).writes(500),
//!         config: SimConfig::new(kind),
//!     })
//!     .collect();
//! let results = ParallelSweep::new().run(&cells);
//! assert_eq!(results.len(), 2);
//! assert!(results[0].flip_rate() < results[1].flip_rate(), "DEUCE beats full encryption");
//! ```

use std::collections::BTreeSet;
use std::io;
use std::panic;
use std::thread;

use deuce_rng::derive_seed;
use deuce_telemetry::SweepProgress;
use deuce_trace::TraceConfig;

use crate::manifest::{CellRecord, ManifestWriter, ShardSpec};
use crate::{SimConfig, SimResult, Simulator};

/// One cell of a sweep grid: a workload and a controller configuration.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Human-readable cell name (benchmark, scheme, parameter point…).
    pub label: String,
    /// Trace to generate for this cell.
    pub trace: TraceConfig,
    /// Simulator configuration for this cell.
    pub config: SimConfig,
}

impl SweepCell {
    /// Creates a cell.
    #[must_use]
    pub fn new(label: impl Into<String>, trace: TraceConfig, config: SimConfig) -> Self {
        Self { label: label.into(), trace, config }
    }
}

/// Deterministic sharded runner for independent simulations.
#[derive(Debug, Clone, Copy)]
pub struct ParallelSweep {
    shards: usize,
}

impl Default for ParallelSweep {
    fn default() -> Self {
        Self::new()
    }
}

impl ParallelSweep {
    /// A sweep sharded across the machine's available parallelism.
    #[must_use]
    pub fn new() -> Self {
        let shards = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self::with_shards(shards)
    }

    /// A sweep with an explicit shard count (clamped to at least 1).
    /// `with_shards(1)` is a plain sequential loop — useful as the
    /// reference when checking determinism.
    #[must_use]
    pub fn with_shards(shards: usize) -> Self {
        Self { shards: shards.max(1) }
    }

    /// Worker threads this sweep will use.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Maps `f` over `items` in parallel, returning results in input
    /// order. Worker `k` owns items `k, k + shards, k + 2·shards, …`,
    /// so both the output order and the shard assignment are
    /// independent of thread scheduling: any shard count produces the
    /// same `Vec` as a sequential loop (assuming `f` itself is a pure
    /// function of `(index, item)`).
    ///
    /// # Panics
    ///
    /// Propagates a panic from `f`.
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        self.map_observed(items, f, None)
    }

    /// Like [`map`](Self::map), with optional live progress: worker `k`
    /// ticks shard `k` of `progress` after each completed item.
    /// Progress is observation only — the returned `Vec` is
    /// bit-identical with and without it.
    ///
    /// # Panics
    ///
    /// Propagates a panic from `f`.
    pub fn map_observed<I, T, F>(
        &self,
        items: &[I],
        f: F,
        progress: Option<&SweepProgress>,
    ) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        self.map_observed_with(items, f, progress, |_| 0)
    }

    /// Like [`map_observed`](Self::map_observed), additionally
    /// crediting `writes_of(&value)` simulated writes to the worker's
    /// shard after each item, so [`SweepProgress`] can report per-shard
    /// throughput (writes/sec). Still observation only.
    ///
    /// # Panics
    ///
    /// Propagates a panic from `f`, with its original payload.
    pub fn map_observed_with<I, T, F, W>(
        &self,
        items: &[I],
        f: F,
        progress: Option<&SweepProgress>,
        writes_of: W,
    ) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
        W: Fn(&T) -> u64 + Sync,
    {
        let shards = self.shards.min(items.len()).max(1);
        if shards == 1 {
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    let value = f(i, item);
                    if let Some(p) = progress {
                        p.add_writes(0, writes_of(&value));
                        p.tick(0);
                    }
                    value
                })
                .collect();
        }
        let f = &f;
        let writes_of = &writes_of;
        thread::scope(|scope| {
            let workers: Vec<_> = (0..shards)
                .map(|k| {
                    scope.spawn(move || -> Vec<(usize, T)> {
                        items
                            .iter()
                            .enumerate()
                            .skip(k)
                            .step_by(shards)
                            .map(|(i, item)| {
                                let value = (i, f(i, item));
                                if let Some(p) = progress {
                                    p.add_writes(k, writes_of(&value.1));
                                    p.tick(k);
                                }
                                value
                            })
                            .collect()
                    })
                })
                .collect();
            let mut slots: Vec<Option<T>> = items.iter().map(|_| None).collect();
            for worker in workers {
                let results = worker.join().unwrap_or_else(|payload| panic::resume_unwind(payload));
                for (i, value) in results {
                    slots[i] = Some(value);
                }
            }
            slots.into_iter().map(|slot| slot.expect("every index filled")).collect()
        })
    }

    /// Runs this process's share of a manifest-tracked grid: cells
    /// owned by `shard` (cell index mod `shard.count`) and not already
    /// in `completed` are mapped through `f` in parallel, and each
    /// finished [`CellRecord`] is appended (and flushed) to `writer`
    /// the moment it completes — so a killed process loses at most the
    /// cells in flight, and `--resume` re-runs only the missing ones.
    /// A cell whose `f` fails appends nothing.
    ///
    /// Returns this invocation's records in cell order. `f` must be a
    /// pure function of `(cell_index, item)` for the manifest to merge
    /// deterministically.
    ///
    /// # Errors
    ///
    /// Returns the first error in cell order: a failed cell's own
    /// error, or a manifest-append I/O error. Records of the other
    /// cells are discarded, but those already appended stay in the
    /// manifest, so a resumed run re-runs only what is missing.
    ///
    /// # Panics
    ///
    /// Propagates a panic from `f`.
    pub fn run_manifest<I, F, E>(
        &self,
        items: &[I],
        shard: ShardSpec,
        completed: &BTreeSet<u64>,
        writer: &ManifestWriter,
        f: F,
        progress: Option<&SweepProgress>,
    ) -> Result<Vec<CellRecord>, E>
    where
        I: Sync,
        F: Fn(usize, &I) -> Result<CellRecord, E> + Sync,
        E: From<io::Error> + Send,
    {
        let pending: Vec<(usize, &I)> = items
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                let cell = *i as u64;
                shard.owns(cell) && !completed.contains(&cell)
            })
            .collect();
        let outcomes: Vec<Result<CellRecord, E>> = self.map_observed_with(
            &pending,
            |_, &(cell, item)| {
                let record = f(cell, item)?;
                writer.append(&record)?;
                Ok(record)
            },
            progress,
            |outcome| outcome.as_ref().map_or(0, |record| record.writes),
        );
        outcomes.into_iter().collect()
    }

    /// Runs every cell (generate its trace, simulate it), in cell
    /// order. Each cell uses the seed already in its [`TraceConfig`].
    #[must_use]
    pub fn run(&self, cells: &[SweepCell]) -> Vec<SimResult> {
        self.run_observed(cells, None)
    }

    /// Like [`run`](Self::run), with optional live progress reporting.
    #[must_use]
    pub fn run_observed(
        &self,
        cells: &[SweepCell],
        progress: Option<&SweepProgress>,
    ) -> Vec<SimResult> {
        self.map_observed(
            cells,
            |_, cell| {
                let trace = cell.trace.generate();
                Simulator::new(cell.config.clone()).run_trace(&trace)
            },
            progress,
        )
    }

    /// Like [`run`](Self::run), but re-seeds cell `i`'s trace with
    /// `derive_seed(base_seed, i)` so every shard draws from its own
    /// decorrelated stream while the whole sweep stays a pure function
    /// of `base_seed`.
    #[must_use]
    pub fn run_seeded(&self, base_seed: u64, cells: &[SweepCell]) -> Vec<SimResult> {
        self.map(cells, |i, cell| {
            let trace = cell.trace.clone().seed(derive_seed(base_seed, i as u64)).generate();
            Simulator::new(cell.config.clone()).run_trace(&trace)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deuce_crypto::EpochInterval;
    use deuce_schemes::{SchemeConfig, SchemeKind, WordSize};
    use deuce_trace::{Benchmark, TraceConfig};

    fn grid() -> Vec<SweepCell> {
        let mut cells = Vec::new();
        for benchmark in [Benchmark::Mcf, Benchmark::Libquantum] {
            for (kind, epoch) in [(SchemeKind::Deuce, 8), (SchemeKind::Deuce, 32)] {
                let scheme = SchemeConfig::new(kind)
                    .with_word_size(WordSize::Bytes2)
                    .with_epoch(EpochInterval::new(epoch).expect("power of two"));
                cells.push(SweepCell::new(
                    format!("{benchmark}/{kind}/e{epoch}"),
                    TraceConfig::new(benchmark).lines(64).writes(600).seed(9),
                    SimConfig::with_scheme(scheme),
                ));
            }
        }
        cells
    }

    fn fingerprint(results: &[SimResult]) -> Vec<(u64, u64, u64, u64, u64)> {
        results
            .iter()
            .map(|r| (r.writes, r.data_flips, r.meta_flips, r.total_slots, r.exec_time_ns.to_bits()))
            .collect()
    }

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<usize> = (0..37).collect();
        for shards in [1, 2, 3, 8, 64] {
            let out = ParallelSweep::with_shards(shards).map(&items, |i, &x| i * 100 + x);
            let expected: Vec<usize> = items.iter().map(|&x| x * 101).collect();
            assert_eq!(out, expected, "{shards} shards");
        }
    }

    #[test]
    fn parallel_run_is_bit_identical_to_sequential() {
        let cells = grid();
        let sequential = fingerprint(&ParallelSweep::with_shards(1).run(&cells));
        for shards in [2, 4, 16] {
            let parallel = fingerprint(&ParallelSweep::with_shards(shards).run(&cells));
            assert_eq!(parallel, sequential, "{shards} shards");
        }
    }

    #[test]
    fn seeded_run_is_deterministic_and_decorrelated() {
        let cells: Vec<SweepCell> = (0..3)
            .map(|i| {
                SweepCell::new(
                    format!("shard{i}"),
                    TraceConfig::new(Benchmark::Mcf).lines(64).writes(600),
                    SimConfig::new(SchemeKind::Deuce),
                )
            })
            .collect();
        let a = fingerprint(&ParallelSweep::with_shards(4).run_seeded(7, &cells));
        let b = fingerprint(&ParallelSweep::with_shards(2).run_seeded(7, &cells));
        assert_eq!(a, b, "same base seed, any sharding: same results");
        // Identical configs, distinct derived seeds: the cells must not
        // replay one another's trace.
        assert_ne!(a[0], a[1]);
        assert_ne!(a[1], a[2]);
        let c = fingerprint(&ParallelSweep::with_shards(4).run_seeded(8, &cells));
        assert_ne!(a, c, "different base seed: different sweep");
    }

    #[test]
    fn progress_counts_every_cell_without_changing_results() {
        let cells = grid();
        let plain = fingerprint(&ParallelSweep::with_shards(3).run(&cells));
        let progress = SweepProgress::new("test", cells.len(), 3);
        let observed =
            fingerprint(&ParallelSweep::with_shards(3).run_observed(&cells, Some(&progress)));
        assert_eq!(observed, plain, "progress must not perturb results");
        assert_eq!(progress.done(), cells.len());
        let per_shard: usize = (0..3).map(|s| progress.shard_done(s)).sum();
        assert_eq!(per_shard, cells.len(), "every tick lands on its worker's shard");
    }

    #[test]
    fn run_manifest_shards_merge_to_the_unsharded_grid() {
        use crate::manifest::{
            grid_fingerprint, merge_manifests, read_manifest, ManifestHeader, ManifestWriter,
        };

        let dir = std::env::temp_dir().join(format!("deuce-sweep-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let items: Vec<u64> = (0..7).map(|i| 100 + i).collect();
        let header = ManifestHeader {
            grid: "toy grid".into(),
            cells: items.len() as u64,
            fingerprint: grid_fingerprint("toy\t7"),
            columns: "value".into(),
        };
        let cell_of = |i: usize, &x: &u64| {
            Ok::<_, io::Error>(CellRecord {
                cell: i as u64,
                label: format!("cell{i}"),
                writes: x,
                row: format!("{}", x * 2),
            })
        };

        // Unsharded reference.
        let whole_path = dir.join("whole.jsonl");
        let writer = ManifestWriter::create(&whole_path, &header).unwrap();
        let whole = ParallelSweep::with_shards(2)
            .run_manifest(&items, ShardSpec::WHOLE, &BTreeSet::new(), &writer, cell_of, None)
            .unwrap();
        assert_eq!(whole.len(), items.len());
        assert!(whole.iter().enumerate().all(|(i, r)| r.cell == i as u64), "cell order");

        // Two process shards, merged.
        let mut shards = Vec::new();
        for spec in ["0/2", "1/2"] {
            let spec = ShardSpec::parse(spec).unwrap();
            let path = dir.join(format!("shard{}.jsonl", spec.index));
            let writer = ManifestWriter::create(&path, &header).unwrap();
            let records = ParallelSweep::with_shards(2)
                .run_manifest(&items, spec, &BTreeSet::new(), &writer, cell_of, None)
                .unwrap();
            assert!(records.iter().all(|r| spec.owns(r.cell)), "only owned cells run");
            shards.push(read_manifest(&path).unwrap());
        }
        let (_, merged) = merge_manifests(&shards).unwrap();
        assert_eq!(merged, whole, "sharded + merged == unsharded");

        // Resume: completed cells are skipped, the rest fill the gap.
        let resume_path = dir.join("resumed.jsonl");
        let writer = ManifestWriter::create(&resume_path, &header).unwrap();
        let done: BTreeSet<u64> = [0u64, 3, 5].into_iter().collect();
        for &cell in &done {
            writer.append(&whole[cell as usize]).unwrap();
        }
        let progress = SweepProgress::new("resume", items.len() - done.len(), 2);
        let rest = ParallelSweep::with_shards(2)
            .run_manifest(&items, ShardSpec::WHOLE, &done, &writer, cell_of, Some(&progress))
            .unwrap();
        let ran: Vec<u64> = rest.iter().map(|r| r.cell).collect();
        assert_eq!(ran, vec![1, 2, 4, 6], "only the missing cells ran");
        assert_eq!(progress.done(), 4);
        assert_eq!(progress.total_writes(), [1u64, 2, 4, 6].iter().map(|i| 100 + i).sum::<u64>());
        let (_, records) = read_manifest(&resume_path).unwrap();
        assert_eq!(records.len(), items.len(), "manifest now covers the grid");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_cell_ends_the_run_and_appends_nothing() {
        use crate::manifest::{grid_fingerprint, read_manifest, ManifestHeader, ManifestWriter};

        let dir = std::env::temp_dir().join(format!("deuce-sweep-failed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("failed.jsonl");
        let items: Vec<u64> = (0..5).collect();
        let header = ManifestHeader {
            grid: "toy grid".into(),
            cells: items.len() as u64,
            fingerprint: grid_fingerprint("toy\t5"),
            columns: "value".into(),
        };
        let writer = ManifestWriter::create(&path, &header).unwrap();
        let cell_of = |i: usize, &x: &u64| {
            if x == 3 {
                return Err(io::Error::other("cell 3 failed"));
            }
            Ok(CellRecord {
                cell: i as u64,
                label: format!("cell{i}"),
                writes: x,
                row: x.to_string(),
            })
        };
        let err = ParallelSweep::with_shards(2)
            .run_manifest(&items, ShardSpec::WHOLE, &BTreeSet::new(), &writer, cell_of, None)
            .unwrap_err();
        assert_eq!(err.to_string(), "cell 3 failed");
        let (_, records) = read_manifest(&path).unwrap();
        let mut cells: Vec<u64> = records.iter().map(|r| r.cell).collect();
        cells.sort_unstable();
        assert_eq!(cells, vec![0, 1, 2, 4], "only the failed cell is missing");

        std::fs::remove_dir_all(&dir).ok();
    }

    /// A cell's panic reaches the caller with its own payload, so the
    /// process's last words name the cause.
    #[test]
    fn a_cell_panic_reaches_the_caller_with_its_message() {
        let items: Vec<usize> = (0..8).collect();
        let payload = panic::catch_unwind(|| {
            ParallelSweep::with_shards(2).map(&items, |_, &i| {
                assert!(i != 5, "cell {i} failed on purpose");
                i
            })
        })
        .expect_err("the cell's panic reaches the caller");
        let message = payload.downcast_ref::<String>().expect("a formatted panic message");
        assert_eq!(message, "cell 5 failed on purpose");
    }

    #[test]
    fn shards_clamp_to_one() {
        assert_eq!(ParallelSweep::with_shards(0).shards(), 1);
        assert!(ParallelSweep::new().shards() >= 1);
    }

    /// Wall-clock speedup check; meaningful only with real cores, so it
    /// is a no-op on small machines (CI containers often expose 1).
    #[test]
    fn parallel_run_is_faster_on_big_machines() {
        let cores = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        if cores < 4 {
            return;
        }
        let cells: Vec<SweepCell> = (0..cores.min(8))
            .map(|i| {
                SweepCell::new(
                    format!("cell{i}"),
                    TraceConfig::new(Benchmark::Mcf).lines(256).writes(20_000).seed(i as u64),
                    SimConfig::new(SchemeKind::Deuce),
                )
            })
            .collect();
        let t0 = std::time::Instant::now();
        let sequential = ParallelSweep::with_shards(1).run(&cells);
        let sequential_time = t0.elapsed();
        let t1 = std::time::Instant::now();
        let parallel = ParallelSweep::new().run(&cells);
        let parallel_time = t1.elapsed();
        assert_eq!(fingerprint(&sequential), fingerprint(&parallel));
        assert!(
            sequential_time.as_secs_f64() >= 2.0 * parallel_time.as_secs_f64(),
            "expected >=2x speedup on {cores} cores: sequential {sequential_time:?}, \
             parallel {parallel_time:?}"
        );
    }
}
