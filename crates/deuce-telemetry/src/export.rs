//! Hand-rolled JSONL event and CSV summary exporters.
//!
//! No serde: the event model is flat (one JSON object per line, string
//! and number values only), so the writers are a few format strings and
//! the escaping rules of RFC 8259 §7. Everything exported here is
//! derived from simulated quantities except the `profile` events, which
//! carry wall-clock stage times and are explicitly nondeterministic
//! (consumers that diff runs should skip them).

use std::io::{self, Write};

use crate::hist::Histogram;
use crate::recorder::{Counter, Gauge, Stage, TelemetryRecorder};

/// Escapes a string for inclusion in a JSON document.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number (shortest round-trip form; never
/// `NaN`/`inf`, which JSON cannot carry — those become 0).
#[must_use]
pub fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0".to_string()
    }
}

fn write_hist<W: Write>(out: &mut W, run: &str, name: &str, hist: &Histogram) -> io::Result<()> {
    writeln!(
        out,
        "{{\"type\":\"hist\",\"run\":\"{run}\",\"name\":\"{name}\",\"count\":{},\"sum\":{},\
         \"min\":{},\"max\":{},\"mean\":{}}}",
        hist.count(),
        hist.sum(),
        hist.min().unwrap_or(0),
        hist.max().unwrap_or(0),
        json_num(hist.mean()),
    )?;
    for (lo, hi, count) in hist.rows() {
        writeln!(
            out,
            "{{\"type\":\"hist_bucket\",\"run\":\"{run}\",\"name\":\"{name}\",\
             \"lo\":{lo},\"hi\":{hi},\"count\":{count}}}",
        )?;
    }
    Ok(())
}

/// Writes one run's telemetry as JSONL events. Multiple runs (a
/// `compare` or `sweep` grid) concatenate into one file, distinguished
/// by the `run` field on every event. Deterministic except for the
/// trailing `profile` events (wall-clock).
///
/// # Errors
///
/// Returns I/O errors from the writer.
pub fn write_jsonl<W: Write>(
    out: &mut W,
    run: &str,
    recorder: &TelemetryRecorder,
) -> io::Result<()> {
    let run = json_escape(run);
    writeln!(
        out,
        "{{\"type\":\"meta\",\"run\":\"{run}\",\"version\":1,\"sample_every\":{},\
         \"energy_pj_per_flip\":{}}}",
        recorder.config().sample_every,
        json_num(recorder.config().energy_pj_per_flip),
    )?;
    for counter in Counter::ALL {
        writeln!(
            out,
            "{{\"type\":\"counter\",\"run\":\"{run}\",\"name\":\"{}\",\"value\":{}}}",
            counter.name(),
            recorder.counter(counter),
        )?;
    }
    for gauge in Gauge::ALL {
        writeln!(
            out,
            "{{\"type\":\"gauge\",\"run\":\"{run}\",\"name\":\"{}\",\"value\":{}}}",
            gauge.name(),
            json_num(recorder.gauge_value(gauge)),
        )?;
    }
    write_hist(out, &run, "flips_per_write", recorder.flips_hist())?;
    write_hist(out, &run, "slots_per_write", recorder.slots_hist())?;
    write_hist(out, &run, "counter_residency", recorder.residency_hist())?;
    // Fault events exist only for fault-injecting runs, so fault-free
    // exports are byte-identical to pre-fault builds.
    if let Some(faults) = recorder.faults() {
        for (name, value) in [
            ("fault_cell_deaths", faults.cell_deaths),
            ("fault_ecp_consumed", faults.ecp_consumed),
            ("fault_lines_retired", faults.lines_retired),
            ("fault_uncorrectable_writes", faults.uncorrectable_writes),
        ] {
            writeln!(
                out,
                "{{\"type\":\"counter\",\"run\":\"{run}\",\"name\":\"{name}\",\"value\":{value}}}",
            )?;
        }
        write_hist(out, &run, "ecp_entries_used", &faults.ecp_used_hist)?;
        for &(write, sim_ns) in &faults.retirements {
            writeln!(
                out,
                "{{\"type\":\"retirement\",\"run\":\"{run}\",\"write\":{write},\"sim_ns\":{}}}",
                json_num(sim_ns),
            )?;
        }
        if let Some((write, sim_ns)) = faults.first_uncorrectable {
            writeln!(
                out,
                "{{\"type\":\"uncorrectable\",\"run\":\"{run}\",\"write\":{write},\
                 \"sim_ns\":{}}}",
                json_num(sim_ns),
            )?;
        }
    }
    // The AES dispatch record exists only for runs that reported a
    // tier, so exports fed by pre-dispatch drivers are byte-identical.
    if let Some(backend) = recorder.aes_backend_name() {
        writeln!(
            out,
            "{{\"type\":\"aes_backend\",\"run\":\"{run}\",\"backend\":\"{backend}\"}}",
        )?;
    }
    // Store-paging counters exist only for runs that page the line
    // store, so arena-backed exports are byte-identical to pre-paging
    // builds.
    if let Some(store) = recorder.store() {
        for (name, value) in [
            ("store_page_faults", store.page_faults),
            ("store_page_evictions", store.page_evictions),
            ("store_pages_flushed", store.pages_flushed),
            ("store_resident_bytes", store.resident_bytes),
            ("store_peak_resident_bytes", store.peak_resident_bytes),
        ] {
            writeln!(
                out,
                "{{\"type\":\"counter\",\"run\":\"{run}\",\"name\":\"{name}\",\"value\":{value}}}",
            )?;
        }
    }
    for sample in recorder.samples() {
        writeln!(
            out,
            "{{\"type\":\"sample\",\"run\":\"{run}\",\"writes\":{},\"sim_ns\":{},\
             \"flips_per_write\":{},\"slots_per_write\":{},\"hit_ratio\":{},\"power_mw\":{}}}",
            sample.writes,
            json_num(sample.sim_ns),
            json_num(sample.flips_per_write),
            json_num(sample.slots_per_write),
            json_num(sample.hit_ratio),
            json_num(sample.power_mw),
        )?;
    }
    for stage in Stage::ALL {
        let hist = recorder.stage_hist(stage);
        if hist.count() == 0 {
            continue;
        }
        writeln!(
            out,
            "{{\"type\":\"profile\",\"run\":\"{run}\",\"stage\":\"{}\",\"events\":{},\
             \"total_ns\":{},\"mean_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
            stage.name(),
            hist.count(),
            hist.sum(),
            json_num(hist.mean()),
            hist.quantile(0.5).unwrap_or(0),
            hist.quantile(0.99).unwrap_or(0),
        )?;
    }
    // Span records exist only for runs that enable span tracing, so
    // span-free exports are byte-identical to pre-span builds. They
    // carry wall-clock times and are nondeterministic, like `profile`.
    if let Some(spans) = recorder.spans() {
        for span in spans.self_times() {
            let range = span.write_range.map_or_else(String::new, |(first, last)| {
                format!(",\"write_first\":{first},\"write_last\":{last}")
            });
            writeln!(
                out,
                "{{\"type\":\"span\",\"run\":\"{run}\",\"name\":\"{}\",\"parent\":\"{}\",\
                 \"count\":{},\"total_ns\":{},\"self_ns\":{}{range}}}",
                span.name, span.parent, span.count, span.total_ns, span.self_ns,
            )?;
        }
    }
    Ok(())
}

fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Writes the CSV summary header (`run,metric,value`).
///
/// # Errors
///
/// Returns I/O errors from the writer.
pub fn write_csv_header<W: Write>(out: &mut W) -> io::Result<()> {
    writeln!(out, "run,metric,value")
}

/// Writes one run's summary rows: every counter, every gauge, and the
/// histogram means. Deterministic (wall-clock profiling is not
/// summarized here).
///
/// # Errors
///
/// Returns I/O errors from the writer.
pub fn write_csv<W: Write>(
    out: &mut W,
    run: &str,
    recorder: &TelemetryRecorder,
) -> io::Result<()> {
    let run = csv_escape(run);
    for counter in Counter::ALL {
        writeln!(out, "{run},{},{}", counter.name(), recorder.counter(counter))?;
    }
    for gauge in Gauge::ALL {
        writeln!(out, "{run},{},{}", gauge.name(), json_num(recorder.gauge_value(gauge)))?;
    }
    for (name, hist) in [
        ("flips_per_write_mean", recorder.flips_hist()),
        ("slots_per_write_mean", recorder.slots_hist()),
        ("counter_residency_mean", recorder.residency_hist()),
    ] {
        writeln!(out, "{run},{name},{}", json_num(hist.mean()))?;
    }
    if let Some(faults) = recorder.faults() {
        for (name, value) in [
            ("fault_cell_deaths", faults.cell_deaths),
            ("fault_ecp_consumed", faults.ecp_consumed),
            ("fault_lines_retired", faults.lines_retired),
            ("fault_uncorrectable_writes", faults.uncorrectable_writes),
        ] {
            writeln!(out, "{run},{name},{value}")?;
        }
        writeln!(out, "{run},ecp_entries_used_mean,{}", json_num(faults.ecp_used_hist.mean()))?;
    }
    if let Some(store) = recorder.store() {
        writeln!(out, "{run},store_page_faults,{}", store.page_faults)?;
        writeln!(out, "{run},store_page_evictions,{}", store.page_evictions)?;
        writeln!(out, "{run},store_pages_flushed,{}", store.pages_flushed)?;
        writeln!(out, "{run},store_resident_bytes,{}", store.resident_bytes)?;
        writeln!(out, "{run},store_peak_resident_bytes,{}", store.peak_resident_bytes)?;
    }
    writeln!(out, "{run},series_samples,{}", recorder.samples().len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Recorder, TelemetryConfig, WriteObservation};

    fn sample_recorder() -> TelemetryRecorder {
        let mut r = TelemetryRecorder::new(TelemetryConfig {
            sample_every: 2,
            energy_pj_per_flip: 13.5,
        });
        r.add(Counter::Writes, 4);
        r.gauge(Gauge::ExecTimeNs, 1234.5);
        r.stage_ns(Stage::Scheme, 90);
        r.residency(8);
        for i in 1..=4u64 {
            r.write_observed(&WriteObservation {
                sim_ns: 250.0 * i as f64,
                flips: 60 + i,
                slots: 2,
                cache_hits: 3 * i,
                cache_misses: i,
            });
        }
        r
    }

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("plain"), "plain");
    }

    #[test]
    fn numbers_round_trip() {
        assert_eq!(json_num(0.5), "0.5");
        assert_eq!(json_num(500.0), "500.0");
        assert_eq!(json_num(f64::NAN), "0");
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let mut buf = Vec::new();
        write_jsonl(&mut buf, "deuce", &sample_recorder()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"run\":\"deuce\""), "{line}");
        }
        assert!(text.contains("\"type\":\"meta\""));
        assert!(text.contains("\"name\":\"writes\",\"value\":4"));
        assert!(text.contains("\"type\":\"sample\""));
        assert!(text.contains("\"type\":\"profile\""));
    }

    #[test]
    fn fault_section_appears_only_for_fault_runs() {
        use crate::recorder::FaultObservation;
        // Fault-free: no fault events anywhere.
        let mut buf = Vec::new();
        write_jsonl(&mut buf, "plain", &sample_recorder()).unwrap();
        let plain = String::from_utf8(buf).unwrap();
        assert!(!plain.contains("fault_"), "fault-free export must be unchanged");
        assert!(!plain.contains("\"type\":\"retirement\""));

        // Fault-injecting run: counters, hist, retirement and
        // uncorrectable events all flow.
        let mut r = sample_recorder();
        r.fault_injection_active();
        r.fault_observed(&FaultObservation {
            sim_ns: 500.0,
            write_index: 3,
            cell_deaths: 2,
            ecp_consumed: 1,
            retired: true,
            uncorrectable: false,
        });
        r.fault_observed(&FaultObservation {
            sim_ns: 750.0,
            write_index: 4,
            cell_deaths: 1,
            ecp_consumed: 0,
            retired: false,
            uncorrectable: true,
        });
        r.ecp_entries_used(1);
        let mut buf = Vec::new();
        write_jsonl(&mut buf, "faulty", &r).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"name\":\"fault_cell_deaths\",\"value\":3"));
        assert!(text.contains("\"name\":\"fault_lines_retired\",\"value\":1"));
        assert!(text.contains("\"name\":\"ecp_entries_used\""));
        assert!(text.contains("\"type\":\"retirement\",\"run\":\"faulty\",\"write\":3"));
        assert!(text.contains("\"type\":\"uncorrectable\",\"run\":\"faulty\",\"write\":4"));
        // And it still parses back.
        let events = crate::parse::parse_jsonl(&text).unwrap();
        assert!(events.iter().any(|e| e.kind() == "retirement"));

        // CSV summary mirrors the gating.
        let mut buf = Vec::new();
        write_csv(&mut buf, "faulty", &r).unwrap();
        let csv = String::from_utf8(buf).unwrap();
        assert!(csv.contains("faulty,fault_cell_deaths,3"));
        assert!(csv.contains("faulty,ecp_entries_used_mean,1.0"));
    }

    #[test]
    fn aes_backend_record_appears_only_when_reported() {
        // Pre-dispatch drivers never call the hook: no record anywhere.
        let mut buf = Vec::new();
        write_jsonl(&mut buf, "plain", &sample_recorder()).unwrap();
        let plain = String::from_utf8(buf).unwrap();
        assert!(
            !plain.contains("aes_backend"),
            "dispatch-free export must be unchanged"
        );

        let mut r = sample_recorder();
        r.aes_backend("hw");
        let mut buf = Vec::new();
        write_jsonl(&mut buf, "dispatched", &r).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains(
            "{\"type\":\"aes_backend\",\"run\":\"dispatched\",\"backend\":\"hw\"}"
        ));
        let events = crate::parse::parse_jsonl(&text).unwrap();
        let rec = events.iter().find(|e| e.kind() == "aes_backend").unwrap();
        assert_eq!(rec.str("backend"), Some("hw"));
    }

    #[test]
    fn store_section_appears_only_for_paged_runs() {
        use crate::recorder::StoreTelemetry;
        // Arena-backed: no store counters anywhere.
        let mut buf = Vec::new();
        write_jsonl(&mut buf, "plain", &sample_recorder()).unwrap();
        let plain = String::from_utf8(buf).unwrap();
        assert!(
            !plain.contains("store_page") && !plain.contains("store_resident"),
            "arena-backed export must be unchanged"
        );

        let mut r = sample_recorder();
        r.store_totals(&StoreTelemetry {
            page_faults: 20,
            page_evictions: 11,
            pages_flushed: 13,
            resident_bytes: 9216,
            peak_resident_bytes: 18_432,
        });
        let mut buf = Vec::new();
        write_jsonl(&mut buf, "paged", &r).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"name\":\"store_page_faults\",\"value\":20"));
        assert!(text.contains("\"name\":\"store_page_evictions\",\"value\":11"));
        assert!(text.contains("\"name\":\"store_pages_flushed\",\"value\":13"));
        assert!(text.contains("\"name\":\"store_peak_resident_bytes\",\"value\":18432"));
        assert!(crate::parse::parse_jsonl(&text).is_ok());

        let mut buf = Vec::new();
        write_csv(&mut buf, "paged", &r).unwrap();
        let csv = String::from_utf8(buf).unwrap();
        assert!(csv.contains("paged,store_page_faults,20"));
        assert!(csv.contains("paged,store_resident_bytes,9216"));
    }

    #[test]
    fn span_section_appears_only_for_span_traced_runs() {
        // Span-free: no span records anywhere.
        let mut buf = Vec::new();
        write_jsonl(&mut buf, "plain", &sample_recorder()).unwrap();
        let plain = String::from_utf8(buf).unwrap();
        assert!(!plain.contains("\"type\":\"span\""), "span-free export must be unchanged");

        let mut r = sample_recorder().with_spans();
        r.span_begin("run");
        r.stage_ns(Stage::Scheme, 400);
        r.span_attach(Some("stage:scheme"), "pad_generation", 150, 3);
        r.span_end();
        let mut buf = Vec::new();
        write_jsonl(&mut buf, "traced", &r).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"type\":\"span\",\"run\":\"traced\",\"name\":\"run\""));
        assert!(text.contains(
            "\"name\":\"pad_generation\",\"parent\":\"stage:scheme\",\"count\":3,\
             \"total_ns\":150,\"self_ns\":150"
        ));
        assert!(crate::parse::parse_jsonl(&text).is_ok());
    }

    /// Satellite coverage: a seeded export exercising *every* event
    /// kind — including the gated fault, store, and span records —
    /// round-trips through the parser with values intact.
    #[test]
    fn every_event_kind_round_trips_through_the_parser() {
        use crate::recorder::FaultObservation;
        let mut r = sample_recorder().with_spans();
        r.fault_injection_active();
        r.fault_observed(&FaultObservation {
            sim_ns: 500.0,
            write_index: 3,
            cell_deaths: 2,
            ecp_consumed: 1,
            retired: true,
            uncorrectable: false,
        });
        r.fault_observed(&FaultObservation {
            sim_ns: 750.0,
            write_index: 4,
            cell_deaths: 1,
            ecp_consumed: 0,
            retired: false,
            uncorrectable: true,
        });
        r.ecp_entries_used(1);
        r.store_totals(&crate::recorder::StoreTelemetry {
            page_faults: 40,
            page_evictions: 8,
            pages_flushed: 6,
            resident_bytes: 4096,
            peak_resident_bytes: 8192,
        });
        r.aes_backend("ttable");
        r.span_begin("run");
        r.stage_ns(Stage::Counter, 90);
        r.span_end();

        let mut buf = Vec::new();
        write_jsonl(&mut buf, "full", &r).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let events = crate::parse::parse_jsonl(&text).unwrap();
        let kinds: std::collections::BTreeSet<&str> =
            events.iter().map(|e| e.kind()).collect();
        for kind in [
            "meta",
            "counter",
            "gauge",
            "hist",
            "hist_bucket",
            "retirement",
            "uncorrectable",
            "aes_backend",
            "sample",
            "profile",
            "span",
        ] {
            assert!(kinds.contains(kind), "missing kind {kind} in {kinds:?}");
        }
        // Spot-check values through the parse layer.
        let counter = |name: &str| {
            events
                .iter()
                .find(|e| e.kind() == "counter" && e.str("name") == Some(name))
                .and_then(|e| e.u64("value"))
        };
        assert_eq!(counter("writes"), Some(4));
        assert_eq!(counter("fault_cell_deaths"), Some(3));
        assert_eq!(counter("store_page_faults"), Some(40));
        let ue = events.iter().find(|e| e.kind() == "uncorrectable").unwrap();
        assert_eq!(ue.u64("write"), Some(4));
        assert_eq!(ue.num("sim_ns"), Some(750.0));
        let span = events
            .iter()
            .find(|e| e.kind() == "span" && e.str("name") == Some("stage:counter"))
            .unwrap();
        assert_eq!(span.u64("total_ns"), Some(90));
        assert_eq!(span.str("parent"), Some("run"));
    }

    #[test]
    fn csv_summary_has_counters_and_means() {
        let mut buf = Vec::new();
        write_csv_header(&mut buf).unwrap();
        write_csv(&mut buf, "deuce", &sample_recorder()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("run,metric,value\n"));
        assert!(text.contains("deuce,writes,4"));
        assert!(text.contains("deuce,flips_per_write_mean,"));
        assert!(text.contains("deuce,series_samples,2"));
    }
}
