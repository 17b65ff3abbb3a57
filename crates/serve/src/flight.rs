//! The pool's flight recorder: periodic live snapshot lines while a
//! campaign runs, and post-mortem crash bundles when a job panics (or
//! the client is interrupted).
//!
//! ## Live lines
//!
//! The recorder counts completed jobs and, every
//! [`FlightConfig::interval`] completions, formats one single-line JSON
//! snapshot ([`LIVE_SCHEMA`]) and hands it to a heartbeat thread that
//! owns the actual I/O (so workers never block on a slow terminal). Line
//! *content* is built synchronously under the recorder lock from
//! deterministic inputs only — completion counts, cumulative simulated
//! cycles, and integer latency quantiles — so a single-worker run of a
//! fixed job set produces byte-identical lines every time. Wall-clock
//! time never appears; the `cycles` field is the stamp.
//!
//! ## Crash bundles
//!
//! With [`FlightConfig::crash_dir`] set, a panicking job writes
//! `crash-<jobid>.json` ([`CRASH_SCHEMA`]) before its result is
//! delivered: the failing [`JobSpec`], the dying job's scoped metrics,
//! the recorder's final snapshot, the last [`RECENT_JOBS`] completed job
//! ids, and the span ring (via [`tangled_telemetry::peek_trace`], which
//! does not drain, so a normal trace export at exit still works).
//! Clients can force a bundle for other reasons — the fuzzer's SIGINT
//! path calls [`crate::Pool::write_crash_bundle`].

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use tangled_telemetry::export::escape;
use tangled_telemetry::{bucket_quantile, TraceKind, HISTOGRAM_BUCKETS};

use crate::job::{JobError, JobKind, JobResult, JobSpec};

/// Schema identifier on every live snapshot line.
pub const LIVE_SCHEMA: &str = "tangled-live/v1";

/// Schema identifier inside every crash bundle.
pub const CRASH_SCHEMA: &str = "tangled-crash/v1";

/// How many recently completed job ids a crash bundle retains.
pub const RECENT_JOBS: usize = 16;

/// Most recent trace events embedded in a crash bundle (the ring holds
/// up to [`tangled_telemetry::TRACE_CAPACITY`]; a post-mortem wants the
/// tail, not megabytes).
const CRASH_TRACE_CAP: usize = 1024;

/// Where live snapshot lines are written.
#[derive(Clone, Debug, Default)]
pub enum LineSink {
    /// Standard error (the default: stdout stays machine-readable).
    #[default]
    Stderr,
    /// Append to a shared buffer; tests pin byte-stability here.
    Buffer(Arc<Mutex<Vec<u8>>>),
}

impl LineSink {
    fn write_line(&self, line: &str) {
        match self {
            LineSink::Stderr => {
                let _ = writeln!(std::io::stderr().lock(), "{line}");
            }
            LineSink::Buffer(buf) => {
                let mut buf = buf.lock().unwrap();
                buf.extend_from_slice(line.as_bytes());
                buf.push(b'\n');
            }
        }
    }
}

/// Flight-recorder knobs, carried in
/// [`ServeConfig::flight`](crate::ServeConfig::flight).
#[derive(Clone, Debug)]
pub struct FlightConfig {
    /// Emit one live line every `interval` completed jobs. 0 disables
    /// periodic lines; the shutdown summary line is always emitted.
    pub interval: u64,
    /// Directory for `crash-*.json` bundles; `None` disables them.
    pub crash_dir: Option<PathBuf>,
    /// Where live lines go.
    pub sink: LineSink,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig { interval: 8, crash_dir: None, sink: LineSink::Stderr }
    }
}

/// Deterministic completion statistics guarded by the recorder lock.
#[derive(Default)]
struct FlightState {
    /// Line sequence number (1-based on the first emitted line).
    seq: u64,
    /// Completed jobs (delivered results, including errors).
    jobs: u64,
    /// Cumulative simulated cycles across completed jobs.
    cycles: u64,
    /// Completions per kind: run / differential / generate.
    kinds: [u64; 3],
    /// Findings reported by successful jobs.
    findings: u64,
    /// Jobs that completed as [`JobError::Panic`] or
    /// [`JobError::UnknownModel`].
    errors: u64,
    /// Jobs completed as [`JobError::Cancelled`].
    cancelled: u64,
    /// Power-of-two latency buckets over per-job simulated cycles
    /// (the [`tangled_telemetry::Histogram`] layout).
    buckets: [u64; HISTOGRAM_BUCKETS],
    /// Largest per-job cycle count seen.
    max_cycles: u64,
    /// Most recent completed job ids, oldest first.
    recent: VecDeque<u64>,
}

impl FlightState {
    fn bucket_of(v: u64) -> usize {
        let k = (64 - v.saturating_sub(1).leading_zeros()) as usize;
        k.min(HISTOGRAM_BUCKETS - 1)
    }

    /// One live snapshot line. Every field is derived from completion
    /// counts and simulated cycles, never wall-clock time.
    fn line(&mut self) -> String {
        self.seq += 1;
        let p50 = bucket_quantile(&self.buckets, self.max_cycles, 50);
        let p95 = bucket_quantile(&self.buckets, self.max_cycles, 95);
        let p99 = bucket_quantile(&self.buckets, self.max_cycles, 99);
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"{LIVE_SCHEMA}\",\"seq\":{},\"jobs\":{},\"cycles\":{},\
             \"run\":{},\"differential\":{},\"generate\":{},\"findings\":{},\
             \"errors\":{},\"cancelled\":{},\"lat_p50\":{p50},\"lat_p95\":{p95},\
             \"lat_p99\":{p99}}}",
            self.seq,
            self.jobs,
            self.cycles,
            self.kinds[0],
            self.kinds[1],
            self.kinds[2],
            self.findings,
            self.errors,
            self.cancelled,
        );
        out
    }

    /// The same fields as [`FlightState::line`] rendered as a nested
    /// object for crash bundles (no `seq` bump — a bundle is a read).
    fn snapshot_object(&self) -> String {
        let p50 = bucket_quantile(&self.buckets, self.max_cycles, 50);
        let p95 = bucket_quantile(&self.buckets, self.max_cycles, 95);
        let p99 = bucket_quantile(&self.buckets, self.max_cycles, 99);
        format!(
            "{{\"jobs\":{},\"cycles\":{},\"run\":{},\"differential\":{},\"generate\":{},\
             \"findings\":{},\"errors\":{},\"cancelled\":{},\"lat_p50\":{p50},\
             \"lat_p95\":{p95},\"lat_p99\":{p99}}}",
            self.jobs,
            self.cycles,
            self.kinds[0],
            self.kinds[1],
            self.kinds[2],
            self.findings,
            self.errors,
            self.cancelled,
        )
    }
}

/// The recorder proper: deterministic state plus the heartbeat writer.
pub(crate) struct FlightRecorder {
    cfg: FlightConfig,
    state: Mutex<FlightState>,
    /// Formatted lines travel to the heartbeat thread over this channel;
    /// dropping the sender is the shutdown signal.
    tx: Mutex<Option<mpsc::Sender<String>>>,
    writer: Mutex<Option<JoinHandle<()>>>,
}

impl FlightRecorder {
    pub(crate) fn new(cfg: FlightConfig) -> FlightRecorder {
        let (tx, rx) = mpsc::channel::<String>();
        let sink = cfg.sink.clone();
        let writer = std::thread::Builder::new()
            .name("serve-flight".into())
            .spawn(move || {
                // Ends once the sender is dropped and every queued line
                // is written.
                for line in rx {
                    sink.write_line(&line);
                }
            })
            .expect("spawn flight heartbeat");
        FlightRecorder {
            cfg,
            state: Mutex::new(FlightState::default()),
            tx: Mutex::new(Some(tx)),
            writer: Mutex::new(Some(writer)),
        }
    }

    fn send_line(&self, line: String) {
        if let Some(tx) = self.tx.lock().unwrap().as_ref() {
            let _ = tx.send(line);
        }
    }

    /// Fold one delivered result into the recorder; called by the
    /// executing worker *before* the result is published, so at one
    /// worker the line sequence is fully ordered by job completion.
    pub(crate) fn note_completed(&self, spec: &JobSpec, result: &JobResult) {
        let cycles = match &result.result {
            Ok(out) => out.outcome.as_ref().map_or(0, |o| o.steps),
            Err(_) => 0,
        };
        let line = {
            let mut st = self.state.lock().unwrap();
            st.jobs += 1;
            st.cycles += cycles;
            let kind_ix = match spec.kind {
                JobKind::Run { .. } => 0,
                JobKind::Differential { .. } => 1,
                JobKind::Generate { .. } => 2,
            };
            st.kinds[kind_ix] += 1;
            match &result.result {
                Ok(out) => st.findings += out.findings.len() as u64,
                Err(JobError::Cancelled) => st.cancelled += 1,
                Err(_) => st.errors += 1,
            }
            let b = FlightState::bucket_of(cycles);
            st.buckets[b] += 1;
            st.max_cycles = st.max_cycles.max(cycles);
            if st.recent.len() == RECENT_JOBS {
                st.recent.pop_front();
            }
            st.recent.push_back(result.id);
            (self.cfg.interval > 0 && st.jobs.is_multiple_of(self.cfg.interval)).then(|| st.line())
        };
        if let Some(line) = line {
            self.send_line(line);
        }
    }

    /// Emit the final summary line and join the heartbeat thread.
    /// Idempotent — both `Pool::shutdown` and `Drop` call it.
    pub(crate) fn finish(&self) {
        let Some(tx) = self.tx.lock().unwrap().take() else { return };
        let final_line = self.state.lock().unwrap().line();
        let _ = tx.send(final_line);
        // Dropping the sender disconnects the channel after the queued
        // lines (including the final one) are drained.
        drop(tx);
        if let Some(writer) = self.writer.lock().unwrap().take() {
            let _ = writer.join();
        }
    }

    /// Write `crash-<tag>.json` into the configured crash directory.
    /// `failing` carries the spec/result pair of a dying job (absent for
    /// client-initiated bundles such as SIGINT).
    pub(crate) fn write_crash_bundle(
        &self,
        reason: &str,
        failing: Option<(&JobSpec, &JobResult)>,
    ) -> Option<PathBuf> {
        let dir = self.cfg.crash_dir.as_ref()?;
        let tag = match failing {
            Some((_, result)) => result.id.to_string(),
            None => sanitize(reason),
        };
        let path = dir.join(format!("crash-{tag}.json"));
        let body = self.render_bundle(reason, failing);
        if std::fs::create_dir_all(dir).is_err() {
            return None;
        }
        std::fs::write(&path, body).ok()?;
        Some(path)
    }

    fn render_bundle(&self, reason: &str, failing: Option<(&JobSpec, &JobResult)>) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"{CRASH_SCHEMA}\",");
        let _ = writeln!(out, "  \"reason\": \"{}\",", escape(reason));
        match failing {
            Some((spec, result)) => {
                let error = match &result.result {
                    Err(e) => e.to_string(),
                    Ok(_) => String::new(),
                };
                let _ = writeln!(
                    out,
                    "  \"job\": {{ \"id\": {}, \"label\": \"{}\", \"worker\": {}, \
                     \"error\": \"{}\" }},",
                    result.id,
                    escape(&result.label),
                    result.worker,
                    escape(&error)
                );
                let _ = writeln!(out, "  \"spec\": {},", spec_json(spec));
                out.push_str("  \"metrics\": {");
                let mut first = true;
                for (name, value) in result.metrics.iter() {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let _ = write!(out, "\n    \"{}\": {value}", escape(name));
                }
                if !first {
                    out.push_str("\n  ");
                }
                out.push_str("},\n");
            }
            None => {
                out.push_str("  \"job\": null,\n  \"spec\": null,\n  \"metrics\": {},\n");
            }
        }
        {
            let st = self.state.lock().unwrap();
            let _ = writeln!(out, "  \"snapshot\": {},", st.snapshot_object());
            let ids: Vec<String> = st.recent.iter().map(u64::to_string).collect();
            let _ = writeln!(out, "  \"recent_completed\": [{}],", ids.join(", "));
        }
        let log = tangled_telemetry::peek_trace();
        let skipped = log.events.len().saturating_sub(CRASH_TRACE_CAP);
        let _ = write!(
            out,
            "  \"trace\": {{ \"dropped\": {}, \"truncated\": {skipped}, \"events\": [",
            log.dropped
        );
        let mut first = true;
        for ev in &log.events[skipped..] {
            if !first {
                out.push(',');
            }
            first = false;
            let kind = match ev.kind {
                TraceKind::Complete => "X",
                TraceKind::Instant => "i",
            };
            let _ = write!(
                out,
                "\n    {{ \"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"{kind}\", \
                 \"ts\": {}, \"dur\": {}, \"tid\": {} }}",
                escape(ev.name),
                escape(ev.cat),
                ev.ts,
                ev.dur,
                ev.tid
            );
        }
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("] }\n}\n");
        out
    }
}

/// Serialize a [`JobSpec`] for a crash bundle: kind-tagged fields plus
/// the oracle configuration, enough to re-submit the exact job.
fn spec_json(spec: &JobSpec) -> String {
    let mut out = String::from("{ ");
    match &spec.kind {
        JobKind::Run { words, model } => {
            let _ = write!(
                out,
                "\"kind\": \"run\", \"model\": \"{}\", \"words\": \"{}\"",
                escape(model),
                words_hex(words)
            );
        }
        JobKind::Differential { words } => {
            let _ = write!(out, "\"kind\": \"differential\", \"words\": \"{}\"", words_hex(words));
        }
        JobKind::Generate { seed, profile, len, crosscheck } => {
            let profile = match profile {
                Some(p) => format!("\"{p:?}\""),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "\"kind\": \"generate\", \"seed\": {seed}, \"profile\": {profile}, \
                 \"len\": {len}, \"crosscheck\": {crosscheck}"
            );
        }
    }
    let _ = write!(
        out,
        ", \"ways\": {}, \"constant_registers\": {}, \"backend\": \"{}\", \
         \"max_steps\": {}, \"label\": \"{}\" }}",
        spec.cfg.ways,
        spec.cfg.constant_registers,
        spec.cfg.backend.name(),
        spec.cfg.max_steps,
        escape(&spec.label)
    );
    out
}

fn words_hex(words: &[u16]) -> String {
    let mut out = String::with_capacity(words.len() * 4);
    for w in words {
        let _ = write!(out, "{w:04x}");
    }
    out
}

/// Crash-file tags come from client-supplied reasons; keep them
/// filesystem-safe.
fn sanitize(reason: &str) -> String {
    let tag: String = reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '-' })
        .collect();
    if tag.is_empty() { "client".to_string() } else { tag }
}
