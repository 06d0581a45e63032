//! Counter-storage traffic: the cost the paper's configuration keeps
//! implicit.
//!
//! Per-line counters live in PCM as well (the paper stores them in
//! plain text next to the data, §2.4); the controller caches recently
//! used *counter lines* on chip, Bonsai-style, so most accesses find
//! their counter without extra memory traffic. This model charges a
//! counter-line read on each miss and a counter-line writeback on each
//! dirty eviction, quantifying how large the counter cache must be
//! before counter traffic becomes negligible (the
//! `ablation_counter_cache` experiment).

use deuce_crypto::LineAddr;

/// Counter lines live in a dedicated address region so bank mapping
/// keeps them apart from data lines.
pub const COUNTER_REGION: u64 = 1 << 40;

/// The address of the counter line holding `line`'s encryption counter,
/// with `counters_per_line` counters packed per 64-byte counter line.
#[must_use]
pub fn counter_line_addr(line: LineAddr, counters_per_line: usize) -> LineAddr {
    LineAddr::new(COUNTER_REGION | (line.value() / counters_per_line as u64))
}

/// Counter-cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterCacheConfig {
    /// Cached counter lines (fully associative, LRU).
    pub entries: usize,
    /// Line counters packed per 64-byte counter line (16 four-byte
    /// slots holding 28-bit counters).
    pub counters_per_line: usize,
}

impl CounterCacheConfig {
    /// A representative on-chip counter cache (holds 1024 counters).
    pub const DEFAULT: Self = Self {
        entries: 64,
        counters_per_line: 16,
    };
}

/// Traffic generated by one counter access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterTraffic {
    /// A counter line had to be fetched from memory.
    pub fill: bool,
    /// A dirty counter line was evicted to memory.
    pub writeback: bool,
}

/// Fully-associative LRU cache of counter lines.
#[derive(Debug, Clone)]
pub struct CounterCache {
    config: CounterCacheConfig,
    /// (tag, dirty), most recently used last.
    entries: Vec<(u64, bool)>,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl CounterCache {
    /// Creates an empty counter cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero entries or zero counters
    /// per line.
    #[must_use]
    pub fn new(config: CounterCacheConfig) -> Self {
        assert!(config.entries > 0, "counter cache needs entries");
        assert!(config.counters_per_line > 0, "counters per line must be positive");
        Self {
            config,
            entries: Vec::with_capacity(config.entries),
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// Hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses (counter-line fetches) so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty counter-line evictions so far.
    #[must_use]
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Counter lines currently resident.
    #[must_use]
    pub fn occupancy(&self) -> u64 {
        self.entries.len() as u64
    }

    /// The address of the counter line holding `line`'s counter.
    pub(crate) fn counter_line(&self, line: LineAddr) -> LineAddr {
        counter_line_addr(line, self.config.counters_per_line)
    }

    /// Hit ratio in `[0, 1]`.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accesses the counter for data line `line`; `dirtying` is true on
    /// the write path (the counter increments, dirtying its line).
    pub fn access(&mut self, line: u64, dirtying: bool) -> CounterTraffic {
        let tag = line / self.config.counters_per_line as u64;
        let mut traffic = CounterTraffic::default();
        if let Some(position) = self.entries.iter().position(|&(t, _)| t == tag) {
            self.hits += 1;
            let (_, dirty) = self.entries.remove(position);
            self.entries.push((tag, dirty || dirtying));
            return traffic;
        }
        self.misses += 1;
        traffic.fill = true;
        if self.entries.len() == self.config.entries {
            let (_, dirty) = self.entries.remove(0);
            if dirty {
                self.writebacks += 1;
                traffic.writeback = true;
            }
        }
        self.entries.push((tag, dirtying));
        traffic
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CounterCache {
        CounterCache::new(CounterCacheConfig {
            entries: 2,
            counters_per_line: 16,
        })
    }

    #[test]
    fn neighbouring_lines_share_a_counter_line() {
        let mut c = tiny();
        assert!(c.access(0, false).fill);
        // Lines 1..15 share tag 0: all hits.
        for line in 1..16 {
            assert!(!c.access(line, false).fill, "line {line}");
        }
        assert_eq!(c.hits(), 15);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_oldest_and_writes_back_dirty() {
        let mut c = tiny();
        let _ = c.access(0, true); // tag 0, dirty
        let _ = c.access(16, false); // tag 1, clean
        let traffic = c.access(32, false); // tag 2: evicts dirty tag 0
        assert!(traffic.fill);
        assert!(traffic.writeback);
        assert_eq!(c.writebacks(), 1);
        // Tag 0 is gone: re-access misses but evicts *clean* tag 1.
        let traffic = c.access(0, false);
        assert!(traffic.fill);
        assert!(!traffic.writeback);
    }

    #[test]
    fn touch_refreshes_lru_position() {
        let mut c = tiny();
        let _ = c.access(0, false); // tag 0
        let _ = c.access(16, false); // tag 1
        let _ = c.access(0, false); // refresh tag 0
        let _ = c.access(32, false); // evicts tag 1, not tag 0
        assert!(!c.access(0, false).fill, "tag 0 must still be cached");
    }

    #[test]
    fn hit_ratio_tracks() {
        let mut c = tiny();
        for _ in 0..9 {
            let _ = c.access(0, false);
        }
        let _ = c.access(1024, false);
        assert!((c.hit_ratio() - 0.8).abs() < 1e-12);
    }
}
