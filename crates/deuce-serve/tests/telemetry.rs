//! The service's aggregate telemetry carries every counter a tenant's
//! result holds, counter-cache traffic included.

use deuce_serve::{Request, ServiceBuilder, SubmitError};
use deuce_sim::telemetry::Counter;
use deuce_sim::{CounterCacheConfig, SchemeKind, SimConfig};
use deuce_trace::LineAddr;

#[test]
fn aggregate_telemetry_counts_counter_cache_traffic() {
    // 300 counter lines against the default cache's 64 entries: the
    // cache misses and writes dirty lines back throughout.
    let requests: Vec<Request> = (0..2_000u64)
        .map(|i| {
            let addr = LineAddr::new(i * 97 % 300 * 16);
            if i % 4 == 3 {
                Request::read(addr)
            } else {
                Request::write(addr, [i as u8; 64])
            }
        })
        .collect();
    let config =
        SimConfig::new(SchemeKind::Deuce).with_counter_cache(CounterCacheConfig::DEFAULT);
    let handle = ServiceBuilder::new().tenant("cached", config).start().unwrap();
    let id = handle.tenant("cached").unwrap();
    for chunk in requests.chunks(64) {
        while let Err(error) = handle.submit(id, chunk) {
            let SubmitError::QueueFull { retry_after, .. } = error else {
                panic!("unexpected submit error: {error}");
            };
            std::thread::sleep(retry_after);
        }
    }
    let report = handle.shutdown();
    let result = report.tenants[0].result.as_ref().unwrap();
    assert!(result.counter_cache_misses > 0 && result.counter_cache_writebacks > 0);

    let aggregate = &report.recorder;
    assert_eq!(aggregate.counter(Counter::CounterAccesses), requests.len() as u64);
    assert_eq!(aggregate.counter(Counter::CounterFills), result.counter_cache_misses);
    assert_eq!(aggregate.counter(Counter::CounterWritebacks), result.counter_cache_writebacks);
    for counter in Counter::ALL {
        assert_eq!(aggregate.counter(counter), result.counter(counter), "{}", counter.name());
    }
}
