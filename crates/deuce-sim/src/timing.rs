//! The memory-controller timing model.
//!
//! A deliberately compact trace-driven model that reproduces the
//! mechanism behind Fig. 15–16: PCM banks are occupied by writes for
//! `slots × 150 ns`, reads are blocking for the issuing core and must
//! wait for their bank, so schemes that need fewer write slots free the
//! banks sooner and speed reads (and the whole system) up.

use deuce_nvm::{Geometry, TimingParams};

use crate::config::CpuParams;

/// Per-bank, per-core timing state driven event by event.
#[derive(Debug, Clone)]
pub struct MemoryTimingModel {
    timing: TimingParams,
    cpu: CpuParams,
    geometry: Geometry,
    bank_free_ns: Vec<f64>,
    /// Global write-power channels (§6.1 / \[22\]): each channel can drive
    /// one slot's worth of current; empty = unlimited power delivery.
    power_free_ns: Vec<f64>,
    core_time_ns: Vec<f64>,
    core_last_instr: Vec<u64>,
    total_read_latency_ns: f64,
    reads: u64,
}

impl MemoryTimingModel {
    /// Creates the model for `cores` cores with unlimited write power
    /// (banks are the only write-concurrency limit).
    #[must_use]
    pub fn new(timing: TimingParams, cpu: CpuParams, geometry: Geometry, cores: usize) -> Self {
        Self::with_power_channels(timing, cpu, geometry, cores, None)
    }

    /// Creates the model with a global current budget of `channels`
    /// concurrent write slots across the whole module ("multiple writes
    /// can be scheduled concurrently, provided the total number of bit
    /// flips does not exceed the current capacity", §6.1).
    #[must_use]
    pub fn with_power_channels(
        timing: TimingParams,
        cpu: CpuParams,
        geometry: Geometry,
        cores: usize,
        channels: Option<usize>,
    ) -> Self {
        Self {
            timing,
            cpu,
            geometry,
            bank_free_ns: vec![0.0; geometry.total_banks() as usize],
            power_free_ns: vec![0.0; channels.unwrap_or(0)],
            core_time_ns: vec![0.0; cores.max(1)],
            core_last_instr: vec![0; cores.max(1)],
            total_read_latency_ns: 0.0,
            reads: 0,
        }
    }

    fn arrival(&mut self, core: usize, instr: u64) -> f64 {
        let delta = instr.saturating_sub(self.core_last_instr[core]);
        self.core_last_instr[core] = instr;
        self.core_time_ns[core] += delta as f64 / self.cpu.instr_per_ns;
        self.core_time_ns[core]
    }

    fn bank_index(&self, line: deuce_crypto::LineAddr) -> usize {
        self.geometry.bank_of(line).0 as usize
    }

    /// Issues a blocking read: the core stalls until the bank can service
    /// it and the array read completes. Reads have priority over the
    /// bank's write backlog — they wait only for a
    /// `read_priority_weight` fraction of it (write pausing /
    /// cancellation; see [`TimingParams::read_priority_weight`]).
    pub fn read(&mut self, core: usize, instr: u64, line: deuce_crypto::LineAddr) {
        let arrival = self.arrival(core, instr);
        let bank = self.bank_index(line);
        let backlog = (self.bank_free_ns[bank] - arrival).max(0.0);
        let start = arrival + backlog * self.timing.read_priority_weight;
        let finish =
            start + (self.timing.read_ns + self.timing.read_overhead_ns) as f64;
        self.bank_free_ns[bank] = self.bank_free_ns[bank].max(finish);
        self.total_read_latency_ns += finish - arrival;
        self.reads += 1;
        self.core_time_ns[core] = finish;
    }

    /// Issues a non-blocking write consuming `slots` write slots: the
    /// bank is occupied but the core continues. With a power budget
    /// configured, the write also needs a free current channel.
    pub fn write(&mut self, core: usize, instr: u64, line: deuce_crypto::LineAddr, slots: u32) {
        let arrival = self.arrival(core, instr);
        let bank = self.bank_index(line);
        let mut start = arrival.max(self.bank_free_ns[bank]);
        let duration = self.timing.write_latency_ns(slots) as f64;
        if !self.power_free_ns.is_empty() {
            // Claim the earliest-free current channel.
            let channel = self
                .power_free_ns
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .expect("non-empty");
            start = start.max(self.power_free_ns[channel]);
            self.power_free_ns[channel] = start + duration;
        }
        self.bank_free_ns[bank] = start + duration;
    }

    /// Execution time: the slowest core's time, extended to cover any
    /// still-draining bank.
    #[must_use]
    pub fn exec_time_ns(&self) -> f64 {
        let core_max = self.core_time_ns.iter().copied().fold(0.0, f64::max);
        let bank_max = self.bank_free_ns.iter().copied().fold(0.0, f64::max);
        core_max.max(bank_max)
    }

    /// Mean read latency (queueing + service) observed so far.
    #[must_use]
    pub fn avg_read_latency_ns(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.total_read_latency_ns / self.reads as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deuce_crypto::LineAddr;

    fn model(cores: usize) -> MemoryTimingModel {
        // Strict FIFO keeps the arithmetic in these tests exact.
        MemoryTimingModel::new(
            TimingParams::STRICT_FIFO,
            CpuParams::PAPER,
            Geometry::PAPER,
            cores,
        )
    }

    #[test]
    fn read_priority_shortens_the_wait() {
        let mut strict = model(1);
        strict.write(0, 0, LineAddr::new(0), 4);
        strict.read(0, 1600, LineAddr::new(32));
        let mut prioritized = MemoryTimingModel::new(
            TimingParams::PAPER,
            CpuParams::PAPER,
            Geometry::PAPER,
            1,
        );
        prioritized.write(0, 0, LineAddr::new(0), 4);
        prioritized.read(0, 1600, LineAddr::new(32));
        // Strict: waits 500 ns of backlog. Prioritized: 35% of it, plus
        // the controller overhead the PAPER config includes.
        assert!((strict.avg_read_latency_ns() - 575.0).abs() < 1e-9);
        let expected = 500.0 * 0.35 + (75 + TimingParams::PAPER.read_overhead_ns) as f64;
        assert!((prioritized.avg_read_latency_ns() - expected).abs() < 1e-9);
    }

    #[test]
    fn uncontended_read_takes_array_latency() {
        let mut m = model(1);
        m.read(0, 1600, LineAddr::new(0)); // arrival at 100 ns
        assert!((m.exec_time_ns() - 175.0).abs() < 1e-9);
        assert!((m.avg_read_latency_ns() - 75.0).abs() < 1e-9);
    }

    #[test]
    fn read_behind_write_waits_for_slots() {
        let mut m = model(1);
        // Write at t=0 to bank 0 using 4 slots: bank busy until 600 ns.
        m.write(0, 0, LineAddr::new(0), 4);
        // Read arrives (same bank) at 100 ns: starts at 600, ends 675.
        m.read(0, 1600, LineAddr::new(32)); // 32 % 32 banks = bank 0
        assert!((m.exec_time_ns() - 675.0).abs() < 1e-9, "{}", m.exec_time_ns());
        assert!((m.avg_read_latency_ns() - 575.0).abs() < 1e-9);
    }

    #[test]
    fn fewer_slots_mean_faster_reads_behind_writes() {
        let mut slow = model(1);
        slow.write(0, 0, LineAddr::new(0), 4);
        slow.read(0, 160, LineAddr::new(32));
        let mut fast = model(1);
        fast.write(0, 0, LineAddr::new(0), 2);
        fast.read(0, 160, LineAddr::new(32));
        assert!(fast.exec_time_ns() < slow.exec_time_ns());
    }

    #[test]
    fn different_banks_do_not_interfere() {
        let mut m = model(1);
        m.write(0, 0, LineAddr::new(0), 4); // bank 0
        m.read(0, 160, LineAddr::new(1)); // bank 1: no wait
        // arrival 10 ns, finish 85 ns; bank 0 still busy till 600.
        assert!((m.avg_read_latency_ns() - 75.0).abs() < 1e-9);
        assert!((m.exec_time_ns() - 600.0).abs() < 1e-9, "bank drain dominates");
    }

    #[test]
    fn cores_progress_independently() {
        let mut m = model(2);
        m.read(0, 16_000, LineAddr::new(0));
        m.read(1, 1_600, LineAddr::new(1));
        // Core 0: arrival 1000, finish 1075. Core 1: arrival 100, finish 175.
        assert!((m.exec_time_ns() - 1075.0).abs() < 1e-9);
    }

    #[test]
    fn power_budget_serializes_writes_across_banks() {
        // Two 4-slot writes to different banks: with one power channel
        // they serialize; with unlimited power they overlap.
        let mut limited = MemoryTimingModel::with_power_channels(
            TimingParams::STRICT_FIFO,
            CpuParams::PAPER,
            Geometry::PAPER,
            1,
            Some(1),
        );
        limited.write(0, 0, LineAddr::new(0), 4);
        limited.write(0, 0, LineAddr::new(1), 4);
        assert!((limited.exec_time_ns() - 1200.0).abs() < 1e-9, "{}", limited.exec_time_ns());

        let mut unlimited = model(1);
        unlimited.write(0, 0, LineAddr::new(0), 4);
        unlimited.write(0, 0, LineAddr::new(1), 4);
        assert!((unlimited.exec_time_ns() - 600.0).abs() < 1e-9);
    }

    #[test]
    fn two_power_channels_allow_two_concurrent_writes() {
        let mut m = MemoryTimingModel::with_power_channels(
            TimingParams::STRICT_FIFO,
            CpuParams::PAPER,
            Geometry::PAPER,
            1,
            Some(2),
        );
        m.write(0, 0, LineAddr::new(0), 4);
        m.write(0, 0, LineAddr::new(1), 4);
        m.write(0, 0, LineAddr::new(2), 4);
        // Third write waits for a channel: 600 + 600 = 1200.
        assert!((m.exec_time_ns() - 1200.0).abs() < 1e-9);
    }

    #[test]
    fn writes_do_not_stall_the_core() {
        let mut m = model(1);
        m.write(0, 1600, LineAddr::new(0), 4);
        m.read(0, 1616, LineAddr::new(1)); // different bank
        // Core reached 100 ns at the write, 101 at the read; read ends 176.
        assert!((m.avg_read_latency_ns() - 75.0).abs() < 1e-9);
    }
}
