#![warn(missing_docs)]
//! # tangled-telemetry — unified counters, spans, and exporters
//!
//! One registry for every performance counter in the workspace and one
//! bounded ring buffer for span/event traces, with three exporters:
//!
//! * [`export::render_summary`] — human-readable table (the CLI's
//!   `--telemetry` output);
//! * [`export::metrics_json`] — the stable `tangled-metrics/v2` JSON
//!   schema (counters + derived histogram quantiles) consumed by the
//!   bench harness and CI;
//! * [`export::chrome_trace`] — Chrome `trace_event` JSON loadable in
//!   `chrome://tracing` and [Perfetto](https://ui.perfetto.dev).
//!
//! ## Design: static handles, runtime switch
//!
//! Instrumentation sites declare `static` handles and call them
//! unconditionally:
//!
//! ```
//! use tangled_telemetry::{self as telemetry, Counter};
//!
//! static CACHE_HITS: Counter = Counter::new("demo.cache.hits");
//!
//! telemetry::set_mode(telemetry::Mode::Counters);
//! CACHE_HITS.add(1);
//! assert_eq!(telemetry::Snapshot::take().get("demo.cache.hits"), 1);
//! # telemetry::set_mode(telemetry::Mode::Off);
//! ```
//!
//! When telemetry is [`Mode::Off`] (the default) every handle call is a
//! single relaxed atomic load plus a predictable branch — no allocation,
//! no locking, no registration. When enabled, a handle registers itself
//! in the global registry on first use (via [`std::sync::Once`], so the
//! steady-state cost is one extra acquire load) and then performs one
//! relaxed `fetch_add` per call. Handles hold no heap state, so they can
//! live in `static`s inside hot loops: simulator configs stay `Copy` and
//! no plumbing threads through constructors.
//!
//! Counters are *additive by name*: two statics sharing a name (e.g. the
//! energy meter instrumented in both `pbp-aob` and `qat-coproc`) merge
//! into one reported value.
//!
//! ## Per-job isolation ([`scoped`])
//!
//! The registry is global, so concurrent work on several threads lands in
//! the same counters. When one thread needs its *own* delta — the serve
//! layer attaches a metrics snapshot to every job — wrap the work in
//! [`scoped`], which captures exactly what the calling thread recorded,
//! immune to other threads, and combines with [`Snapshot::merge_from`].
//!
//! ## Timestamps
//!
//! Trace timestamps are **simulated cycles**, not wall-clock time, so
//! traces are deterministic and diffable. Exporters map one cycle to one
//! microsecond in the Chrome `trace_event` clock.

pub mod export;
mod metrics;
mod tracer;

pub use metrics::{
    bucket_quantile, scoped, Counter, CounterBank, Gauge, HistQuantiles, Histogram, Snapshot,
    HISTOGRAM_BUCKETS,
};
pub use tracer::{
    peek_trace, take_trace, trace_complete, trace_instant, TraceEvent, TraceKind, TraceLog,
    TRACE_CAPACITY,
};

use std::sync::atomic::{AtomicU8, Ordering};

/// Global telemetry mode. Higher modes include all lower ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mode {
    /// All handles are no-ops (the default).
    Off = 0,
    /// Counter/histogram handles record; the tracer is off.
    Counters = 1,
    /// Counters plus span/event tracing into the ring buffer.
    Trace = 2,
}

impl Mode {
    /// Stable lowercase name, used in the `metrics.json` `mode` field.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Off => "off",
            Mode::Counters => "counters",
            Mode::Trace => "trace",
        }
    }
}

static MODE: AtomicU8 = AtomicU8::new(Mode::Off as u8);

/// Set the global telemetry mode.
pub fn set_mode(mode: Mode) {
    MODE.store(mode as u8, Ordering::Relaxed);
}

/// The current global telemetry mode.
pub fn mode() -> Mode {
    match MODE.load(Ordering::Relaxed) {
        1 => Mode::Counters,
        2 => Mode::Trace,
        _ => Mode::Off,
    }
}

/// True when counter handles should record (Counters or Trace mode).
#[inline(always)]
pub fn counters_on() -> bool {
    MODE.load(Ordering::Relaxed) >= Mode::Counters as u8
}

/// True when the span tracer should record (Trace mode only).
#[inline(always)]
pub fn trace_on() -> bool {
    MODE.load(Ordering::Relaxed) >= Mode::Trace as u8
}

/// Zero every registered counter, histogram, and bank, and clear the
/// trace ring buffer. Registration is retained (the names stay known).
pub fn reset() {
    metrics::reset_registered();
    tracer::clear();
}
