//! End-to-end tests of the counter-storage path: the controller's
//! stage 1 (counter cache) as seen from a whole simulation —
//! fill-on-miss blocking reads, dirty-eviction writebacks, and the
//! counter-region address mapping the timing model is charged with.

use deuce_sim::{counter_line_addr, CounterCacheConfig, SimConfig, Simulator, COUNTER_REGION};
use deuce_schemes::SchemeKind;
use deuce_trace::{Benchmark, TraceConfig};

fn trace(lines: usize, writes: usize) -> deuce_trace::Trace {
    TraceConfig::new(Benchmark::Mcf).lines(lines).writes(writes).seed(11).generate()
}

fn run(cache: Option<CounterCacheConfig>, lines: usize, writes: usize) -> deuce_sim::SimResult {
    let mut config = SimConfig::new(SchemeKind::Deuce);
    if let Some(cache) = cache {
        config = config.with_counter_cache(cache);
    }
    Simulator::new(config).run_trace(&trace(lines, writes))
}

#[test]
fn counter_region_maps_lines_to_shared_counter_lines() {
    let line = |v: u64| deuce_crypto::LineAddr::new(v);
    // 16 counters per 64-byte counter line: lines 0..15 share one
    // counter line, line 16 starts the next.
    let first = counter_line_addr(line(0), 16);
    assert_eq!(first.value() & COUNTER_REGION, COUNTER_REGION, "counter space is disjoint");
    for data_line in 1..16 {
        assert_eq!(counter_line_addr(line(data_line), 16), first, "line {data_line}");
    }
    let second = counter_line_addr(line(16), 16);
    assert_ne!(second, first);
    assert_eq!(second.value(), first.value() + 1, "counter lines are packed densely");
    // The region tag keeps counter traffic off the data lines' addresses
    // without colliding for any realistic data address.
    assert_eq!(counter_line_addr(line(COUNTER_REGION - 1), 16).value() & COUNTER_REGION, COUNTER_REGION);
}

#[test]
fn fill_on_miss_issues_blocking_reads_that_cost_time() {
    // A cache big enough for the whole footprint warms up after one
    // compulsory miss per counter line; a 1-entry cache thrashes and
    // every miss is a blocking counter-line read that delays the core.
    let big = run(Some(CounterCacheConfig { entries: 1024, counters_per_line: 16 }), 256, 4_000);
    let tiny = run(Some(CounterCacheConfig { entries: 1, counters_per_line: 16 }), 256, 4_000);
    assert!(big.counter_cache_misses >= 256 / 16, "compulsory misses at minimum");
    assert!(
        tiny.counter_cache_misses > 4 * big.counter_cache_misses,
        "thrashing cache must miss far more: tiny {} vs big {}",
        tiny.counter_cache_misses,
        big.counter_cache_misses
    );
    assert!(tiny.counter_cache_hit_ratio < big.counter_cache_hit_ratio);
    assert!(
        tiny.exec_time_ns > big.exec_time_ns,
        "extra blocking counter fills must show up in execution time: tiny {} vs big {}",
        tiny.exec_time_ns,
        big.exec_time_ns
    );
    // Flip metrics are a property of the data stream, not of counter
    // caching: both runs saw the identical trace.
    assert_eq!(tiny.data_flips, big.data_flips);
    assert_eq!(tiny.writes, big.writes);
}

#[test]
fn dirty_evictions_are_counted_as_writebacks() {
    // Write-heavy traffic over a footprint larger than the cache: dirty
    // counter lines get evicted and written back.
    let result = run(Some(CounterCacheConfig { entries: 2, counters_per_line: 16 }), 512, 4_000);
    assert!(result.counter_cache_writebacks > 0, "dirty evictions must be observed");
    assert!(
        result.counter_cache_writebacks <= result.counter_cache_misses,
        "each writeback rides an eviction, which rides a miss: {} > {}",
        result.counter_cache_writebacks,
        result.counter_cache_misses
    );
    // With the model disabled the counters stay silent.
    let off = run(None, 512, 4_000);
    assert_eq!(off.counter_cache_misses, 0);
    assert_eq!(off.counter_cache_writebacks, 0);
    assert_eq!(off.counter_cache_hit_ratio, 0.0);
}

#[test]
fn read_only_traffic_never_dirties_counter_lines() {
    // A trace is writebacks + reads; restrict the footprint so reads
    // dominate per counter line. Reads fill counter lines but never
    // dirty them, so a pure-read eviction costs no writeback. We can't
    // make a write-free trace, so check the invariant instead:
    // writebacks never exceed the number of *written* counter lines.
    let result = run(Some(CounterCacheConfig { entries: 4, counters_per_line: 16 }), 1024, 2_000);
    assert!(result.counter_cache_writebacks <= result.writes + result.counter_cache_misses);
    assert!(result.counter_cache_hit_ratio > 0.0 && result.counter_cache_hit_ratio < 1.0);
}
