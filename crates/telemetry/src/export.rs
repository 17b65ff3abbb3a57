//! The three exporters: human-readable summary table, `metrics.json`
//! (`tangled-metrics/v2`), and Chrome `trace_event` JSON.
//!
//! All output is deterministic: keys are emitted in sorted order, values
//! are simulated-cycle counts, and nothing depends on wall-clock time.

use std::fmt::Write as _;

use crate::{Mode, Snapshot, TraceKind, TraceLog};

/// Schema identifier written into the `metrics.json` `schema` field.
/// Bump the suffix on breaking changes to field names or types.
///
/// v2 adds the top-level `quantiles` object (per-histogram p50/p95/p99
/// derived from the bucket layout); the `counters` payload is unchanged
/// from v1.
pub const METRICS_SCHEMA: &str = "tangled-metrics/v2";

/// Everything the `metrics.json` exporter needs for one run.
pub struct MetricsDoc<'a> {
    /// Counter values for the run (usually a [`Snapshot::delta`]).
    pub snapshot: &'a Snapshot,
    /// The telemetry mode the run executed under.
    pub mode: Mode,
    /// Trace events retained for the run (0 when tracing was off).
    pub trace_events: u64,
    /// Trace events lost to ring-buffer overwrite.
    pub trace_dropped: u64,
}

/// `s` as the body of a JSON string literal: quotes, backslashes and
/// control characters escaped, everything else verbatim.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render the stable `tangled-metrics/v2` JSON document.
///
/// ```json
/// {
///   "counters": { "tangled.retire.lex": 42, ... },
///   "mode": "counters",
///   "quantiles": {
///     "serve.job.cycles.run": { "count": 8, "p50": 512, "p95": 1024, "p99": 1024 }
///   },
///   "schema": "tangled-metrics/v2",
///   "trace": { "dropped": 0, "events": 0 }
/// }
/// ```
///
/// Top-level keys, counter names, and quantile families are sorted, so
/// identical runs produce byte-identical files. The `quantiles` object
/// holds one entry per histogram family in the snapshot (upper-bound
/// percentiles derived with [`crate::bucket_quantile`]); it is `{}` when
/// no histogram recorded.
pub fn metrics_json(doc: &MetricsDoc) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"counters\": {");
    let mut first = true;
    for (name, value) in doc.snapshot.iter() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n    \"");
        out.push_str(&escape(name));
        let _ = write!(out, "\": {value}");
    }
    if !first {
        out.push_str("\n  ");
    }
    out.push_str("},\n");
    let _ = writeln!(out, "  \"mode\": \"{}\",", doc.mode.name());
    out.push_str("  \"quantiles\": {");
    let mut first = true;
    for (name, q) in doc.snapshot.histogram_quantiles() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n    \"");
        out.push_str(&escape(&name));
        let _ = write!(
            out,
            "\": {{ \"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {} }}",
            q.count, q.p50, q.p95, q.p99
        );
    }
    if !first {
        out.push_str("\n  ");
    }
    out.push_str("},\n");
    let _ = writeln!(out, "  \"schema\": \"{METRICS_SCHEMA}\",");
    let _ = writeln!(
        out,
        "  \"trace\": {{ \"dropped\": {}, \"events\": {} }}",
        doc.trace_dropped, doc.trace_events
    );
    out.push_str("}\n");
    out
}

/// Render a [`TraceLog`] as Chrome `trace_event` JSON (the "JSON object
/// format"), loadable in `chrome://tracing` and Perfetto.
///
/// One simulated cycle maps to one microsecond of trace time. `threads`
/// names the track ids (e.g. `[(0, "IF"), (1, "ID"), …]`); tracks are
/// sorted in the viewer by their id.
pub fn chrome_trace(log: &TraceLog, threads: &[(u32, &str)]) -> String {
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut push_event = |line: String, out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&line);
    };
    push_event(
        "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"tangled-sim\"}}"
            .to_string(),
        &mut out,
    );
    for (tid, name) in threads {
        let escaped = escape(name);
        push_event(
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{escaped}\"}}}}"
            ),
            &mut out,
        );
        push_event(
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_sort_index\",\
                 \"args\":{{\"sort_index\":{tid}}}}}"
            ),
            &mut out,
        );
    }
    for ev in &log.events {
        let name = escape(ev.name);
        let cat = escape(ev.cat);
        let line = match ev.kind {
            TraceKind::Complete => format!(
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\
                 \"tid\":{},\"ts\":{},\"dur\":{}}}",
                ev.tid, ev.ts, ev.dur
            ),
            TraceKind::Instant => format!(
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\
                 \"tid\":{},\"ts\":{}}}",
                ev.tid, ev.ts
            ),
        };
        push_event(line, &mut out);
    }
    out.push_str("\n]}\n");
    out
}

/// Render a one-screen, aligned summary table of a snapshot, with a
/// derived intern-hit-rate line when the chunk-store counters are
/// present and a p50/p95/p99 table for every histogram family. This is
/// the `--telemetry` console output.
pub fn render_summary(snap: &Snapshot) -> String {
    let mut out = String::from("telemetry counters\n");
    if snap.is_empty() {
        out.push_str("  (none recorded)\n");
        return out;
    }
    let width = snap.iter().map(|(name, _)| name.len()).max().unwrap_or(0);
    for (name, value) in snap.iter() {
        let _ = writeln!(out, "  {name:<width$}  {value:>12}");
    }
    let hits = snap.get("intern.hits");
    let lookups = hits + snap.get("intern.misses");
    if lookups > 0 {
        let _ = writeln!(
            out,
            "  intern op-cache hit rate: {:.1}% ({hits}/{lookups})",
            hits as f64 / lookups as f64 * 100.0
        );
    }
    let quantiles = snap.histogram_quantiles();
    if !quantiles.is_empty() {
        out.push_str("histogram quantiles (bucket upper bounds)\n");
        let name_w = quantiles.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, q) in &quantiles {
            let _ = writeln!(
                out,
                "  {name:<name_w$}  count {:>9}  p50 {:>9}  p95 {:>9}  p99 {:>9}",
                q.count, q.p50, q.p95, q.p99
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        set_mode, take_trace, trace_complete, Counter, Histogram, Snapshot,
        TraceEvent, TRACE_CAPACITY,
    };
    use std::sync::Mutex;

    /// Serializes tests that touch the global mode/registry/ring.
    static GLOBAL: Mutex<()> = Mutex::new(());

    fn with_mode<R>(mode: Mode, f: impl FnOnce() -> R) -> R {
        // A panic in another test must not poison the whole suite.
        let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        crate::reset();
        set_mode(mode);
        let r = f();
        set_mode(Mode::Off);
        crate::reset();
        r
    }

    #[test]
    fn off_mode_records_nothing() {
        static OFF_COUNTER: Counter = Counter::new("test.off.counter");
        with_mode(Mode::Off, || {
            OFF_COUNTER.add(5);
            trace_complete("x", "t", 0, 0, 1);
            assert_eq!(OFF_COUNTER.value(), 0);
            assert_eq!(Snapshot::take().get("test.off.counter"), 0);
            assert!(take_trace().events.is_empty());
        });
    }

    #[test]
    fn counters_accumulate_and_delta() {
        static DELTA_COUNTER: Counter = Counter::new("test.delta.counter");
        with_mode(Mode::Counters, || {
            DELTA_COUNTER.add(3);
            let base = Snapshot::take();
            DELTA_COUNTER.add(4);
            let end = Snapshot::take();
            assert_eq!(end.get("test.delta.counter"), 7);
            assert_eq!(end.delta(&base).get("test.delta.counter"), 4);
        });
    }

    #[test]
    fn counters_mode_does_not_trace() {
        with_mode(Mode::Counters, || {
            trace_complete("x", "t", 0, 0, 1);
            assert!(take_trace().events.is_empty());
        });
    }

    #[test]
    fn histogram_buckets_and_stats() {
        static HIST: Histogram = Histogram::new("test.hist");
        with_mode(Mode::Counters, || {
            for v in [0, 1, 2, 3, 900, 1 << 40] {
                HIST.record(v);
            }
            let snap = Snapshot::take();
            assert_eq!(snap.get("test.hist.count"), 6);
            assert_eq!(snap.get("test.hist.sum"), 6 + 900 + (1 << 40));
            assert_eq!(snap.get("test.hist.max"), 1 << 40);
            assert_eq!(snap.get("test.hist.le_1"), 2); // 0 and 1
            assert_eq!(snap.get("test.hist.le_2"), 1);
            assert_eq!(snap.get("test.hist.le_4"), 1);
            assert_eq!(snap.get("test.hist.le_1024"), 1);
            assert_eq!(snap.get("test.hist.inf"), 1);
        });
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        with_mode(Mode::Trace, || {
            for i in 0..(TRACE_CAPACITY as u64 + 10) {
                trace_complete("ev", "t", 0, i, 1);
            }
            let log = take_trace();
            assert_eq!(log.events.len(), TRACE_CAPACITY);
            assert_eq!(log.dropped, 10);
            // Oldest events were overwritten: the log starts at ts=10.
            assert_eq!(log.events.first().unwrap().ts, 10);
            assert_eq!(log.events.last().unwrap().ts, TRACE_CAPACITY as u64 + 9);
            // Chronological (insertion) order is preserved across the wrap.
            assert!(log.events.windows(2).all(|w| w[0].ts < w[1].ts));
        });
    }

    #[test]
    fn metrics_json_is_deterministic_and_escaped() {
        static WEIRD: Counter = Counter::new("test.weird.\"quoted\"\\name");
        let (a, b) = with_mode(Mode::Counters, || {
            WEIRD.add(1);
            let snap = Snapshot::take();
            let doc = MetricsDoc {
                snapshot: &snap,
                mode: Mode::Counters,
                trace_events: 0,
                trace_dropped: 0,
            };
            (metrics_json(&doc), metrics_json(&doc))
        });
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"tangled-metrics/v2\""), "{a}");
        assert!(a.contains("\"quantiles\": {"), "{a}");
        assert!(a.contains("\"mode\": \"counters\""), "{a}");
        assert!(a.contains("test.weird.\\\"quoted\\\"\\\\name"), "{a}");
    }

    #[test]
    fn metrics_json_v2_emits_quantiles_for_histograms() {
        static QJ_HIST: Histogram = Histogram::new("test.qjson.hist");
        let json = with_mode(Mode::Counters, || {
            let (_, snap) = crate::scoped(|| {
                for v in [1u64, 2, 3, 4, 900] {
                    QJ_HIST.record(v);
                }
            });
            metrics_json(&MetricsDoc {
                snapshot: &snap,
                mode: Mode::Counters,
                trace_events: 0,
                trace_dropped: 0,
            })
        });
        assert!(
            json.contains(
                "\"test.qjson.hist\": { \"count\": 5, \"p50\": 4, \"p95\": 900, \"p99\": 900 }"
            ),
            "{json}"
        );
    }

    #[test]
    fn gauge_levels_and_high_water_mark() {
        static G: crate::Gauge = crate::Gauge::new("test.gauge.depth");
        with_mode(Mode::Counters, || {
            G.set(3);
            G.add(4);
            G.sub(5);
            G.inc();
            G.dec();
            let snap = Snapshot::take();
            assert_eq!(snap.get("test.gauge.depth"), 2);
            assert_eq!(snap.get("test.gauge.depth.max"), 7);
            // sub saturates at zero.
            G.sub(100);
            assert_eq!(G.value(), 0);
            assert_eq!(G.high_water_mark(), 7);
        });
    }

    #[test]
    fn gauge_off_mode_records_nothing() {
        static G_OFF: crate::Gauge = crate::Gauge::new("test.gauge.off");
        with_mode(Mode::Off, || {
            G_OFF.set(9);
            G_OFF.add(9);
            assert_eq!(G_OFF.value(), 0);
            assert_eq!(Snapshot::take().get("test.gauge.off"), 0);
        });
    }

    #[test]
    fn gauge_scoped_capture_takes_only_the_max_cell() {
        static G_SC: crate::Gauge = crate::Gauge::new("test.gauge.scoped");
        with_mode(Mode::Counters, || {
            let (_, snap) = crate::scoped(|| {
                G_SC.set(5);
                G_SC.set(2);
            });
            // The instantaneous level is process state, not job state:
            // scoped snapshots carry only the high-water mark, which
            // max-merges, so merged job snapshots stay order-invariant.
            assert_eq!(snap.get("test.gauge.scoped"), 0);
            assert_eq!(snap.get("test.gauge.scoped.max"), 5);
        });
    }

    #[test]
    fn bucket_quantile_integer_math() {
        use crate::{bucket_quantile, HISTOGRAM_BUCKETS};
        let mut b = [0u64; HISTOGRAM_BUCKETS];
        assert_eq!(bucket_quantile(&b, 0, 50), 0);
        // 10 samples of exactly 8 (bucket le_8 = index 3).
        b[3] = 10;
        assert_eq!(bucket_quantile(&b, 8, 50), 8);
        assert_eq!(bucket_quantile(&b, 8, 99), 8);
        // 99 small + 1 huge: p50 small bucket, p99 picks the tail.
        let mut b = [0u64; HISTOGRAM_BUCKETS];
        b[0] = 99;
        b[HISTOGRAM_BUCKETS - 1] = 1;
        assert_eq!(bucket_quantile(&b, 1 << 40, 50), 1);
        assert_eq!(bucket_quantile(&b, 1 << 40, 99), 1);
        assert_eq!(bucket_quantile(&b, 1 << 40, 100), 1 << 40);
        // Upper bound clamps to the recorded max.
        let mut b = [0u64; HISTOGRAM_BUCKETS];
        b[10] = 4; // le_1024
        assert_eq!(bucket_quantile(&b, 900, 95), 900);
    }

    #[test]
    fn snapshot_histogram_quantiles_detects_families() {
        static QF_HIST: Histogram = Histogram::new("test.qfam.hist");
        static QF_PLAIN: Counter = Counter::new("test.qfam.plain");
        let qs = with_mode(Mode::Counters, || {
            let (_, snap) = crate::scoped(|| {
                QF_PLAIN.add(2);
                for v in [1u64, 1, 1, 1, 16] {
                    QF_HIST.record(v);
                }
            });
            snap.histogram_quantiles()
        });
        assert_eq!(qs.len(), 1);
        assert_eq!(qs[0].0, "test.qfam.hist");
        assert_eq!(qs[0].1.count, 5);
        assert_eq!(qs[0].1.p50, 1);
        assert_eq!(qs[0].1.p95, 16);
        assert_eq!(qs[0].1.p99, 16);
    }

    #[test]
    fn summary_includes_quantile_table() {
        static SQ_HIST: Histogram = Histogram::new("test.sq.hist");
        let text = with_mode(Mode::Counters, || {
            let (_, snap) = crate::scoped(|| {
                for v in [4u64, 4, 4, 64] {
                    SQ_HIST.record(v);
                }
            });
            render_summary(&snap)
        });
        assert!(text.contains("histogram quantiles"), "{text}");
        assert!(text.contains("test.sq.hist"), "{text}");
        assert!(text.contains("p50"), "{text}");
        assert!(text.contains("p99"), "{text}");
    }

    #[test]
    fn peek_trace_does_not_drain() {
        with_mode(Mode::Trace, || {
            trace_complete("ev", "t", 0, 1, 2);
            let peeked = crate::peek_trace();
            assert_eq!(peeked.events.len(), 1);
            let taken = take_trace();
            assert_eq!(taken.events.len(), 1, "peek must leave the ring intact");
            assert_eq!(peeked.events[0], taken.events[0]);
        });
    }

    #[test]
    fn chrome_trace_emits_metadata_and_events() {
        let log = TraceLog {
            events: vec![
                TraceEvent { name: "lex", cat: "tangled", kind: TraceKind::Complete, ts: 0, dur: 2, tid: 0 },
                TraceEvent { name: "halt", cat: "tangled", kind: TraceKind::Instant, ts: 5, dur: 0, tid: 1 },
            ],
            dropped: 0,
        };
        let json = chrome_trace(&log, &[(0, "IF"), (1, "ID")]);
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("\"thread_name\""), "{json}");
        assert!(json.contains("\"name\":\"IF\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        assert!(json.contains("\"dur\":2"), "{json}");
    }

    #[test]
    fn scoped_capture_matches_global_delta_single_threaded() {
        static SC_COUNTER: Counter = Counter::new("test.scoped.counter");
        static SC_HIST: Histogram = Histogram::new("test.scoped.hist");
        with_mode(Mode::Counters, || {
            let base = Snapshot::take();
            let ((), local) = crate::scoped(|| {
                SC_COUNTER.add(3);
                for v in [1, 5, 900] {
                    SC_HIST.record(v);
                }
            });
            let global = Snapshot::take().delta(&base);
            // The scoped view is a faithful single-thread slice of the
            // registry: every key it holds matches the global delta, and
            // every change the registry saw is in the scoped view. (The
            // global delta also carries zero entries for counters other
            // tests registered — those are schema padding, not activity.)
            for (name, value) in local.iter() {
                assert_eq!(value, global.get(name), "key {name}");
            }
            for (name, value) in global.iter().filter(|(_, v)| *v != 0) {
                assert_eq!(local.get(name), value, "key {name}");
            }
            assert_eq!(local.get("test.scoped.counter"), 3);
            assert_eq!(local.get("test.scoped.hist.count"), 3);
            assert_eq!(local.get("test.scoped.hist.sum"), 906);
            assert_eq!(local.get("test.scoped.hist.max"), 900);
            assert_eq!(local.get("test.scoped.hist.le_1"), 1);
        });
    }

    #[test]
    fn scoped_capture_is_isolated_from_other_threads() {
        static ISO_COUNTER: Counter = Counter::new("test.scoped.iso");
        with_mode(Mode::Counters, || {
            let stop = std::sync::atomic::AtomicBool::new(false);
            let (_, captured) = std::thread::scope(|s| {
                s.spawn(|| {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        ISO_COUNTER.add(1_000);
                    }
                });
                let out = crate::scoped(|| {
                    ISO_COUNTER.add(7);
                });
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
                out
            });
            assert_eq!(captured.get("test.scoped.iso"), 7);
            let (_, local) = crate::scoped(|| ISO_COUNTER.add(7));
            assert_eq!(local.get("test.scoped.iso"), 7);
        });
    }

    #[test]
    fn scoped_nesting_and_panic_folding() {
        static NEST_COUNTER: Counter = Counter::new("test.scoped.nest");
        with_mode(Mode::Counters, || {
            let ((), outer) = crate::scoped(|| {
                NEST_COUNTER.add(1);
                let ((), inner) = crate::scoped(|| NEST_COUNTER.add(10));
                assert_eq!(inner.get("test.scoped.nest"), 10);
                // A panicking inner scope still folds into the outer one.
                let _ = std::panic::catch_unwind(|| {
                    crate::scoped(|| {
                        NEST_COUNTER.add(100);
                        panic!("job died");
                    })
                });
            });
            assert_eq!(outer.get("test.scoped.nest"), 111);
            // After unwinding, no scope is active on this thread.
            NEST_COUNTER.add(5000);
            let (_, empty) = crate::scoped(|| {});
            assert!(empty.is_empty());
        });
    }

    #[test]
    fn snapshot_merge_is_permutation_invariant() {
        static M_COUNTER: Counter = Counter::new("test.merge.counter");
        static M_HIST: Histogram = Histogram::new("test.merge.hist");
        let parts = with_mode(Mode::Counters, || {
            [3u64, 11, 7]
                .map(|n| {
                    crate::scoped(|| {
                        M_COUNTER.add(n);
                        M_HIST.record(n);
                    })
                    .1
                })
        });
        let forward = Snapshot::merged(parts.iter());
        let reverse = Snapshot::merged(parts.iter().rev());
        let rotated = Snapshot::merged([&parts[1], &parts[2], &parts[0]]);
        assert_eq!(forward, reverse);
        assert_eq!(forward, rotated);
        assert_eq!(forward.get("test.merge.counter"), 21);
        assert_eq!(forward.get("test.merge.hist.count"), 3);
        // `.max` keys combine with max, not +.
        assert_eq!(forward.get("test.merge.hist.max"), 11);
    }

    #[test]
    fn summary_table_lists_counters_and_hit_rate() {
        static SUM_HITS: Counter = Counter::new("intern.hits");
        static SUM_MISSES: Counter = Counter::new("intern.misses");
        let text = with_mode(Mode::Counters, || {
            SUM_HITS.add(3);
            SUM_MISSES.add(1);
            render_summary(&Snapshot::take())
        });
        assert!(text.starts_with("telemetry counters\n"), "{text}");
        assert!(text.contains("intern.hits"), "{text}");
        assert!(text.contains("hit rate: 75.0% (3/4)"), "{text}");
    }
}
