//! Integration: a recorder filled by a synthetic "run" exports JSONL
//! that parses back to the same numbers, deterministically.

use deuce_telemetry::{
    export, parse, Counter, Gauge, Recorder, Stage, TelemetryConfig, TelemetryRecorder, WriteEvent,
};

fn synthetic_run(sample_every: u64) -> TelemetryRecorder {
    let mut rec = TelemetryRecorder::new(TelemetryConfig {
        sample_every,
        energy_pj_per_flip: 13.5,
    });
    let mut hits = 0u64;
    let mut misses = 0u64;
    for i in 1..=300u64 {
        rec.add(Counter::Writes, 1);
        rec.add(Counter::CounterAccesses, 1);
        if i % 5 == 0 {
            misses += 1;
            rec.add(Counter::CounterFills, 1);
        } else {
            hits += 1;
        }
        rec.residency(i.min(64));
        rec.stage_ns(Stage::Scheme, 40 + i % 17);
        let flips = 40 + (i * 7) % 90;
        rec.add(Counter::DataFlips, flips);
        rec.write_observed(&WriteEvent {
            write_index: i,
            sim_ns: 150.0 * i as f64,
            flips,
            slots: 1 + (i % 4) as u32,
            cache_hits: hits,
            cache_misses: misses,
            ..WriteEvent::default()
        });
    }
    rec.gauge(Gauge::ExecTimeNs, 45_000.0);
    rec.gauge(Gauge::HitRatio, hits as f64 / 300.0);
    rec
}

#[test]
fn export_parse_round_trip_preserves_the_numbers() {
    let rec = synthetic_run(32);
    let mut buf = Vec::new();
    export::write_jsonl(&mut buf, "synthetic", &rec).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let events = parse::parse_jsonl(&text).unwrap();

    let counter = |name: &str| {
        events
            .iter()
            .find(|e| e.kind() == "counter" && e.str("name") == Some(name))
            .and_then(|e| e.u64("value"))
            .unwrap()
    };
    assert_eq!(counter("writes"), 300);
    assert_eq!(counter("counter_fills"), 60);
    assert_eq!(counter("data_flips"), rec.counter(Counter::DataFlips));

    let samples: Vec<_> = events.iter().filter(|e| e.kind() == "sample").collect();
    assert_eq!(samples.len(), rec.samples().len());
    assert_eq!(samples.len(), 300 / 32);
    for (event, sample) in samples.iter().zip(rec.samples()) {
        assert_eq!(event.u64("writes"), Some(sample.writes));
        assert_eq!(event.num("sim_ns"), Some(sample.sim_ns), "f64 round-trips exactly");
        assert_eq!(event.num("flips_per_write"), Some(sample.flips_per_write));
        assert_eq!(event.num("power_mw"), Some(sample.power_mw));
    }

    let hist = events
        .iter()
        .find(|e| e.kind() == "hist" && e.str("name") == Some("flips_per_write"))
        .unwrap();
    assert_eq!(hist.u64("count"), Some(300));
    assert_eq!(hist.u64("sum"), Some(rec.flips_hist().sum()));
    let bucket_total: u64 = events
        .iter()
        .filter(|e| e.kind() == "hist_bucket" && e.str("name") == Some("flips_per_write"))
        .map(|e| e.u64("count").unwrap())
        .sum();
    assert_eq!(bucket_total, 300, "buckets partition the samples");
}

#[test]
fn identical_runs_export_identical_deterministic_sections() {
    let render = |rec: &TelemetryRecorder| {
        let mut buf = Vec::new();
        export::write_jsonl(&mut buf, "r", rec).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Drop wall-clock profile events; everything else must be stable.
        text.lines()
            .filter(|l| !l.contains("\"type\":\"profile\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(render(&synthetic_run(64)), render(&synthetic_run(64)));
    assert_ne!(render(&synthetic_run(64)), render(&synthetic_run(16)));
}

#[test]
fn csv_summary_matches_recorder_state() {
    let rec = synthetic_run(50);
    let mut buf = Vec::new();
    export::write_csv_header(&mut buf).unwrap();
    export::write_csv(&mut buf, "synthetic", &rec).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains(&format!("synthetic,writes,{}", rec.counter(Counter::Writes))));
    assert!(text.contains("synthetic,series_samples,6"));
    assert!(text.contains("synthetic,exec_time_ns,45000.0"));
}
