#![warn(missing_docs)]
//! # tangled-serve — the simulator job-queue service layer
//!
//! Turns the one-shot simulators into a throughput machine: clients
//! submit typed jobs — an assembled program for one model, a program for
//! the full differential oracle, or a proggen seed to fuzz — and a
//! FIFO pool of worker threads executes them on per-job
//! [`Machine`](tangled_sim::Machine)s built from the engine and Qat
//! storage registries, streaming back [`JobResult`]s.
//!
//! ```
//! use tangled_serve::{JobKind, JobSpec, Pool, ServeConfig};
//! use tangled_sim::difftest::DiffConfig;
//!
//! let pool = Pool::new(ServeConfig { workers: 2, ..Default::default() });
//! let words = tangled_asm::assemble("lex $1,21\nadd $1,$1\nsys\n").unwrap().words;
//! for _ in 0..4 {
//!     pool.submit(JobSpec::new(
//!         JobKind::Differential { words: words.clone() },
//!         DiffConfig::default(),
//!     ))
//!     .unwrap();
//! }
//! let results = pool.drain();
//! assert_eq!(results.len(), 4);
//! for r in &results {
//!     let out = r.result.as_ref().unwrap().outcome.as_ref().unwrap();
//!     assert_eq!(out.regs[1], 42);
//! }
//! ```
//!
//! ## Queue semantics
//!
//! `submit` applies back-pressure by blocking at `queue_cap` accepted-
//! but-unfinished jobs; `try_submit` returns [`SubmitError::Full`]
//! instead so interactive producers (the fuzzer's SIGINT-aware campaign
//! loop) can interleave submission with result collection. Every
//! accepted job yields exactly one result: worker panics become
//! [`JobError::Panic`] on that job alone, and [`Pool::discard_queued`]
//! completes not-yet-started jobs as [`JobError::Cancelled`] rather
//! than silently dropping them. Jobs start in submission order: the
//! pool keeps one FIFO queue under one lock.
//!
//! ## Determinism
//!
//! Job execution touches no shared mutable state — each job builds its
//! own machine, and telemetry is captured per job with
//! [`tangled_telemetry::scoped`] — so a job set produces identical
//! per-job payloads at any worker count, and the merged metrics
//! snapshot ([`tangled_telemetry::Snapshot::merge_from`]) is invariant
//! under result arrival order. `tests/serve_determinism.rs` pins both
//! properties.

//!
//! ## Flight recorder
//!
//! With [`ServeConfig::flight`] set, the pool runs a [flight
//! recorder](flight): a heartbeat thread emits one deterministic
//! single-line JSON snapshot ([`LIVE_SCHEMA`]) every
//! [`FlightConfig::interval`] completed jobs (plus a final summary at
//! shutdown), per-`JobKind` latency histograms land in each job's
//! scoped metrics (`serve.job.cycles.<kind>`), pool pressure shows up
//! as `serve.pool.{queue_depth,in_flight,workers_busy}` gauges, and a
//! panicking job dumps a `crash-<jobid>.json` post-mortem
//! ([`CRASH_SCHEMA`]) with its spec, metrics, the span ring, and the
//! last few completed job ids.

mod flight;
mod job;
mod pool;

pub use flight::{FlightConfig, LineSink, CRASH_SCHEMA, LIVE_SCHEMA, RECENT_JOBS};
pub use job::{
    Finding, FindingKind, JobError, JobKind, JobOutput, JobResult, JobSpec, ModelResolver,
    run_model_once,
};
pub use pool::{Pool, ServeConfig, SubmitError};

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tangled_sim::difftest::DiffConfig;

    fn add_prog() -> Vec<u16> {
        tangled_asm::assemble("lex $1,21\nadd $1,$1\nsys\n").unwrap().words
    }

    fn diff_job(words: Vec<u16>) -> JobSpec {
        JobSpec::new(JobKind::Differential { words }, DiffConfig::default())
    }

    #[test]
    fn run_job_executes_named_model() {
        let pool = Pool::new(ServeConfig::default());
        let id = pool
            .submit(JobSpec {
                kind: JobKind::Run { words: add_prog(), model: "pipeline-4-fw".into() },
                cfg: DiffConfig::default(),
                label: "smoke".into(),
            })
            .unwrap();
        let r = pool.recv_timeout(Duration::from_secs(30)).expect("result");
        assert_eq!(r.id, id);
        assert_eq!(r.label, "smoke");
        let out = r.result.unwrap();
        assert!(out.report.contains("cycles"), "{}", out.report);
        assert_eq!(out.outcome.unwrap().regs[1], 42);
    }

    #[test]
    fn unknown_model_is_a_typed_error_not_a_crash() {
        let pool = Pool::new(ServeConfig::default());
        pool.submit(JobSpec::new(
            JobKind::Run { words: add_prog(), model: "no-such-model".into() },
            DiffConfig::default(),
        ))
        .unwrap();
        let r = pool.recv_timeout(Duration::from_secs(30)).expect("result");
        assert_eq!(r.result.unwrap_err(), JobError::UnknownModel("no-such-model".into()));
        // The pool is still alive for the next job.
        pool.submit(diff_job(add_prog())).unwrap();
        assert!(pool.drain().iter().all(|r| r.id <= 1));
    }

    #[test]
    fn try_submit_applies_backpressure_at_queue_cap() {
        // One worker, capacity two: fill the queue with slow-ish jobs and
        // observe Full, then drain and observe acceptance again.
        let pool = Pool::new(ServeConfig { workers: 1, queue_cap: 2, ..Default::default() });
        let mut accepted = 0;
        let mut inline = 0;
        let mut saw_full = false;
        for _ in 0..64 {
            match pool.try_submit(diff_job(add_prog())) {
                Ok(_) => accepted += 1,
                Err(SubmitError::Full) => {
                    saw_full = true;
                    pool.recv_timeout(Duration::from_secs(30)).expect("a queued job finishes");
                    inline += 1;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(saw_full, "cap 2 never filled");
        let drained = pool.drain().len();
        // Results collected inline plus drained ones account for every
        // accepted job.
        assert_eq!(inline + drained, accepted);
        assert_eq!(pool.pending(), 0);
    }

    #[test]
    fn discard_queued_cancels_with_exact_accounting() {
        let pool = Pool::new(ServeConfig { workers: 1, queue_cap: 64, ..Default::default() });
        for _ in 0..16 {
            pool.submit(diff_job(add_prog())).unwrap();
        }
        pool.discard_queued();
        let results = pool.drain();
        assert_eq!(results.len(), 16);
        // One worker takes jobs in submission order, so the jobs it
        // started before the discard form a prefix of the ids.
        let (cancelled, finished): (Vec<&JobResult>, Vec<&JobResult>) =
            results.iter().partition(|r| r.result == Err(JobError::Cancelled));
        if let (Some(last), Some(first)) = (finished.last(), cancelled.first()) {
            assert!(last.id < first.id, "job {} ran after job {} was cancelled", last.id, first.id);
        }
        // Ids are dense: nothing dropped, nothing duplicated.
        for (ix, r) in results.iter().enumerate() {
            assert_eq!(r.id, ix as u64);
        }
    }

    #[test]
    fn one_worker_returns_results_in_submission_order() {
        let pool = Pool::new(ServeConfig { workers: 1, queue_cap: 64, ..Default::default() });
        let ids: Vec<u64> = (0..8).map(|_| pool.submit(diff_job(add_prog())).unwrap()).collect();
        for id in ids {
            let r = pool.recv_timeout(Duration::from_secs(30)).expect("result");
            assert_eq!(r.id, id);
        }
        assert!(pool.drain().is_empty());
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let pool = Pool::new(ServeConfig::default());
        pool.submit(diff_job(add_prog())).unwrap();
        let results = pool.shutdown();
        assert_eq!(results.len(), 1);
        // `shutdown` consumed the pool; a fresh pool still accepts work,
        // which is the API contract the CLI relies on between campaigns.
        let pool = Pool::new(ServeConfig::default());
        assert!(pool.submit(diff_job(add_prog())).is_ok());
    }

    #[test]
    fn generate_job_reports_coverage_and_no_findings_on_clean_seed() {
        telemetry_on();
        let pool = Pool::new(ServeConfig { workers: 2, ..Default::default() });
        pool.submit(JobSpec::new(
            JobKind::Generate { seed: 7, profile: None, len: 40, crosscheck: true },
            DiffConfig::default(),
        ))
        .unwrap();
        let r = pool.recv_timeout(Duration::from_secs(60)).expect("result");
        let out = r.result.unwrap();
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert!(out.outcome.is_some());
        let cov = out.coverage.unwrap();
        assert!(cov.generated.iter().sum::<u64>() > 0);
        // The job ran gate kernels, so its scoped metrics are non-empty.
        assert!(!r.metrics.is_empty());
    }

    fn telemetry_on() {
        tangled_telemetry::set_mode(tangled_telemetry::Mode::Counters);
    }

    #[test]
    fn flight_recorder_emits_live_lines_and_final_summary() {
        use std::sync::{Arc, Mutex};
        let buf = Arc::new(Mutex::new(Vec::new()));
        let pool = Pool::new(ServeConfig {
            workers: 1,
            flight: Some(FlightConfig {
                interval: 2,
                crash_dir: None,
                sink: LineSink::Buffer(Arc::clone(&buf)),
            }),
            ..Default::default()
        });
        for _ in 0..4 {
            pool.submit(diff_job(add_prog())).unwrap();
        }
        let results = pool.drain();
        assert_eq!(results.len(), 4);
        let _ = pool.shutdown();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Two periodic lines (after jobs 2 and 4) plus the final summary.
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines.iter().all(|l| l.contains("\"schema\":\"tangled-live/v1\"")), "{text}");
        assert!(lines[0].contains("\"seq\":1,\"jobs\":2,"), "{text}");
        assert!(lines[2].contains("\"seq\":3,\"jobs\":4,"), "{text}");
        assert!(lines[2].contains("\"differential\":4"), "{text}");
        // Simulated cycles accumulated and quantiles derived from them.
        assert!(!lines[2].contains("\"cycles\":0,"), "{text}");
        assert!(lines[2].contains("\"lat_p50\":"), "{text}");
    }
}
