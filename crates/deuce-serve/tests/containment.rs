//! Failure containment: tenant `i` is owned by shard `i % shards`, so a
//! full shard affects only the tenants it owns, and a failing tenant
//! only itself.
//!
//! Each test checks the unaffected tenants against a single-threaded
//! replay of exactly the requests the service accepted for them.

use deuce_serve::{request_event, Request, ServiceBuilder, SubmitError, TenantReport};
use deuce_sim::{SchemeKind, SimConfig, SimResult, Simulator, WearConfig};
use deuce_trace::LineAddr;

fn config(tenant: u64) -> SimConfig {
    SimConfig::new(SchemeKind::Deuce).key_seed(0xC0DE + tenant)
}

/// `n` requests over 48 lines, every fourth a read.
fn stream(tenant: u64, n: u64) -> Vec<Request> {
    (0..n)
        .map(|i| {
            let addr = LineAddr::new((i * 7 + tenant) % 48);
            if i % 4 == 3 {
                Request::read(addr)
            } else {
                Request::write(addr, [(i as u8) ^ (tenant as u8).wrapping_mul(31); 64])
            }
        })
        .collect()
}

/// Single-threaded ground truth: summary and memory fingerprint.
fn replay(config: SimConfig, requests: &[Request]) -> (SimResult, u64) {
    let mut session = Simulator::new(config).session(1).expect("arena backend");
    for (seq, request) in requests.iter().enumerate() {
        session.step(&request_event(seq as u64, request));
    }
    let fingerprint = session.content_fingerprint();
    (session.finish().expect("arena replay cannot fail"), fingerprint)
}

fn assert_matches_replay(report: &TenantReport, config: SimConfig, accepted: &[Request]) {
    let (expected, fingerprint) = replay(config, accepted);
    let name = &report.name;
    let got = report.result.as_ref().expect("tenant finished clean");
    assert_eq!(report.requests_applied, accepted.len() as u64, "{name}: applied");
    assert_eq!(report.fingerprint, fingerprint, "{name}: memory image");
    assert_eq!(got.writes, expected.writes, "{name}: writes");
    assert_eq!(got.reads, expected.reads, "{name}: reads");
    assert_eq!(got.data_flips, expected.data_flips, "{name}: data_flips");
    assert_eq!(
        got.exec_time_ns.to_bits(),
        expected.exec_time_ns.to_bits(),
        "{name}: exec_time_ns"
    );
}

#[test]
fn backpressure_stays_on_the_owning_shard() {
    let handle = ServiceBuilder::new()
        .start_paused()
        .shards(2)
        .queue_depth(4)
        .tenant("a", config(0))
        .tenant("b", config(1))
        .start()
        .unwrap();
    let (a, b) = (handle.tenant("a").unwrap(), handle.tenant("b").unwrap());

    let mut a_accepted = Vec::new();
    let mut full_shard = None;
    for chunk in stream(0, 40).chunks(2) {
        match handle.submit(a, chunk) {
            Ok(()) => a_accepted.extend_from_slice(chunk),
            Err(SubmitError::QueueFull { shard, .. }) => {
                full_shard = Some(shard);
                break;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert_eq!(full_shard, Some(0), "a's shard fills up");
    assert_eq!(a_accepted.len(), 4);

    // a's full queue must not push back on b, which lives on shard 1.
    let b_batch = stream(1, 4);
    handle.submit(b, &b_batch).expect("b's shard has room");

    handle.resume();
    let report = handle.shutdown();
    assert!(report.clean());
    assert_matches_replay(&report.tenants[0], config(0), &a_accepted);
    assert_matches_replay(&report.tenants[1], config(1), &b_batch);
}

#[test]
fn an_oversized_stream_fails_only_its_own_tenant() {
    // Two wear-tracked lines: the third distinct line to take a counted
    // write overflows bad's wear tracking. That fails bad's report when
    // its session finishes; the shard never panics, so neighbour, which
    // shares bad's shard, and good, on the other shard, both finish
    // clean and match their replays.
    let handle = ServiceBuilder::new()
        .start_paused()
        .shards(2)
        .tenant("bad", config(0).with_wear(WearConfig::vertical_only(2)))
        .tenant("good", config(1))
        .tenant("neighbour", config(2))
        .start()
        .unwrap();
    let bad = handle.tenant("bad").unwrap();
    let good = handle.tenant("good").unwrap();
    let neighbour = handle.tenant("neighbour").unwrap();

    let lines: Vec<Request> = (0..10)
        .map(|i| Request::write(LineAddr::new(i), [i as u8; 64]))
        .collect();
    handle.submit(bad, &lines).unwrap();
    handle.submit(bad, &lines).unwrap();
    let good_requests = stream(1, 300);
    let neighbour_requests = stream(2, 300);
    for (g, n) in good_requests.chunks(25).zip(neighbour_requests.chunks(25)) {
        handle.submit(good, g).unwrap();
        handle.submit(neighbour, n).unwrap();
    }

    handle.resume();
    let report = handle.shutdown();
    assert!(report.panicked_shards.is_empty(), "no shard panics");
    let names: Vec<&str> = report.tenants.iter().map(|t| t.name.as_str()).collect();
    assert_eq!(names, ["bad", "good", "neighbour"], "every tenant is reported");
    match &report.tenants[0].result {
        Err(msg) => assert!(msg.contains("configured 2 wear-tracked lines"), "{msg}"),
        Ok(_) => panic!("bad's oversized stream must fail its report"),
    }
    assert_matches_replay(&report.tenants[1], config(1), &good_requests);
    assert_matches_replay(&report.tenants[2], config(2), &neighbour_requests);

    // Every request was applied, bad's included, and every total agrees.
    assert_eq!(report.tenants[0].requests_applied, 20);
    assert_eq!(report.shards[0].drained, 320);
    assert_eq!(report.shards[1].drained, 300);
    assert_eq!(report.applied, 620);
}
