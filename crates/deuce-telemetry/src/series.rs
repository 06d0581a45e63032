//! Windowed time-series sampling keyed on simulated time.
//!
//! Every `sample_every` counted writes the sampler closes a window and
//! emits one [`Sample`]: flips/write, slots/write, counter-cache hit
//! ratio, and estimated write power over that window. All inputs are
//! simulated quantities, so the series is a deterministic function of
//! the run — wall-clock time never appears here.

use crate::recorder::WriteEvent;

/// One closed window of the time-series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Cumulative counted writes at the window's close.
    pub writes: u64,
    /// Simulated time at the window's close, in nanoseconds.
    pub sim_ns: f64,
    /// Mean figure-of-merit flips per write within the window.
    pub flips_per_write: f64,
    /// Mean write slots per write within the window.
    pub slots_per_write: f64,
    /// Counter-cache hit ratio within the window (0 without a cache).
    pub hit_ratio: f64,
    /// Estimated write power within the window, in milliwatts
    /// (window flips × pJ/flip ÷ window duration; 0 when unknown).
    pub power_mw: f64,
}

/// Accumulates counted writes into fixed-size windows.
#[derive(Debug, Clone)]
pub struct SeriesSampler {
    every: u64,
    energy_pj_per_flip: f64,
    writes: u64,
    window_flips: u64,
    window_slots: u64,
    window_start_ns: f64,
    window_start_hits: u64,
    window_start_misses: u64,
    samples: Vec<Sample>,
}

impl SeriesSampler {
    /// A sampler emitting one sample per `every` writes (clamped to at
    /// least 1); `energy_pj_per_flip` scales the power column.
    #[must_use]
    pub fn new(every: u64, energy_pj_per_flip: f64) -> Self {
        Self {
            every: every.max(1),
            energy_pj_per_flip,
            writes: 0,
            window_flips: 0,
            window_slots: 0,
            window_start_ns: 0.0,
            window_start_hits: 0,
            window_start_misses: 0,
            samples: Vec::new(),
        }
    }

    /// Feeds one counted write; closes the window when it fills.
    pub fn observe(&mut self, obs: &WriteEvent) {
        self.writes += 1;
        self.window_flips += obs.flips;
        self.window_slots += u64::from(obs.slots);
        if !self.writes.is_multiple_of(self.every) {
            return;
        }
        let in_window = self.every as f64;
        let dt_ns = obs.sim_ns - self.window_start_ns;
        let hits = obs.cache_hits - self.window_start_hits;
        let misses = obs.cache_misses - self.window_start_misses;
        let accesses = hits + misses;
        self.samples.push(Sample {
            writes: self.writes,
            sim_ns: obs.sim_ns,
            flips_per_write: self.window_flips as f64 / in_window,
            slots_per_write: self.window_slots as f64 / in_window,
            hit_ratio: if accesses == 0 { 0.0 } else { hits as f64 / accesses as f64 },
            power_mw: if dt_ns > 0.0 {
                self.window_flips as f64 * self.energy_pj_per_flip / dt_ns
            } else {
                0.0
            },
        });
        self.window_flips = 0;
        self.window_slots = 0;
        self.window_start_ns = obs.sim_ns;
        self.window_start_hits = obs.cache_hits;
        self.window_start_misses = obs.cache_misses;
    }

    /// Samples emitted so far.
    #[must_use]
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(sim_ns: f64, flips: u64, hits: u64, misses: u64) -> WriteEvent {
        WriteEvent {
            sim_ns,
            flips,
            slots: 2,
            cache_hits: hits,
            cache_misses: misses,
            ..WriteEvent::default()
        }
    }

    #[test]
    fn windows_close_on_the_boundary() {
        let mut s = SeriesSampler::new(4, 10.0);
        for i in 1..=10u64 {
            s.observe(&obs(100.0 * i as f64, 8, i, i));
        }
        assert_eq!(s.samples().len(), 2, "10 writes / windows of 4");
        let first = s.samples()[0];
        assert_eq!(first.writes, 4);
        assert!((first.sim_ns - 400.0).abs() < 1e-12);
        assert!((first.flips_per_write - 8.0).abs() < 1e-12);
        assert!((first.slots_per_write - 2.0).abs() < 1e-12);
        assert!((first.hit_ratio - 0.5).abs() < 1e-12);
        // 32 flips × 10 pJ over 400 ns = 0.8 mW.
        assert!((first.power_mw - 0.8).abs() < 1e-12);
        let second = s.samples()[1];
        assert_eq!(second.writes, 8);
        assert!((second.sim_ns - 800.0).abs() < 1e-12, "windows are disjoint");
    }

    #[test]
    fn zero_window_duration_reports_zero_power() {
        let mut s = SeriesSampler::new(1, 5.0);
        s.observe(&obs(0.0, 3, 0, 0));
        assert_eq!(s.samples().len(), 1);
        assert_eq!(s.samples()[0].power_mw, 0.0);
        assert_eq!(s.samples()[0].hit_ratio, 0.0, "no cache, no ratio");
    }

    #[test]
    fn every_clamps_to_one() {
        let mut s = SeriesSampler::new(0, 0.0);
        s.observe(&obs(10.0, 1, 0, 0));
        assert_eq!(s.samples().len(), 1);
    }
}
