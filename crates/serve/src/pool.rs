//! The worker pool: one FIFO job queue and one results queue, both
//! owned by the pool's single `state` mutex.
//!
//! `submit` pushes an accepted job to the back of the queue. A worker
//! pops the oldest job and reads the discard flag in one critical
//! section, runs the job outside the lock, then publishes the result and
//! releases the job's capacity in another. Jobs therefore start in
//! submission order. Every state change a thread waits for is made under
//! the lock and followed by a notify, so workers, blocked submitters and
//! [`Pool::drain`] wait on their condvars without a timeout.
//!
//! ## Accounting invariant
//!
//! Every accepted submission produces **exactly one** [`JobResult`] —
//! panicking jobs yield [`JobError::Panic`], discarded jobs yield
//! [`JobError::Cancelled`]. `pending` counts accepted-but-undelivered
//! jobs and is decremented in the critical section that makes the result
//! visible, so [`Pool::drain`] observing `pending == 0` has seen every
//! result.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use tangled_telemetry::Gauge;

use crate::flight::{FlightConfig, FlightRecorder};
use crate::job::{execute, JobError, JobResult, JobSpec, ModelResolver};

/// Jobs accepted but not yet picked up by a worker.
static QUEUE_DEPTH: Gauge = Gauge::new("serve.pool.queue_depth");
/// Jobs a worker has picked up and not yet delivered.
static IN_FLIGHT: Gauge = Gauge::new("serve.pool.in_flight");
/// Workers currently executing a real (non-cancelled) job — the
/// utilization gauge; its `.max` is peak concurrency.
static WORKERS_BUSY: Gauge = Gauge::new("serve.pool.workers_busy");

/// Pool construction knobs.
#[derive(Clone)]
pub struct ServeConfig {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Max accepted-but-unfinished jobs before [`Pool::submit`] blocks
    /// and [`Pool::try_submit`] reports [`SubmitError::Full`].
    pub queue_cap: usize,
    /// Model-name resolver for run jobs (tests inject synthetic cores
    /// here; production uses the engine registry).
    pub resolve_model: ModelResolver,
    /// Flight-recorder configuration: live snapshot lines and crash
    /// bundles. `None` (the default) records nothing.
    pub flight: Option<FlightConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            queue_cap: 256,
            resolve_model: tangled_sim::engine::model,
            flight: None,
        }
    }
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("workers", &self.workers)
            .field("queue_cap", &self.queue_cap)
            .field("flight", &self.flight)
            .finish_non_exhaustive()
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The pool is at [`ServeConfig::queue_cap`] (back-pressure; only
    /// [`Pool::try_submit`] reports this — `submit` blocks instead).
    Full,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full => write!(f, "job queue full"),
        }
    }
}

struct Job {
    id: u64,
    spec: JobSpec,
}

#[derive(Default)]
struct State {
    /// Accepted jobs no worker has picked up yet, oldest first.
    jobs: VecDeque<Job>,
    /// Delivered results no client has collected yet.
    results: VecDeque<JobResult>,
    /// Accepted jobs whose result has not yet been delivered.
    pending: usize,
    /// Monotonic id source for accepted jobs.
    next_id: u64,
    /// Workers exit once the queue is empty.
    shutdown: bool,
    /// Queued (not yet started) jobs complete as [`JobError::Cancelled`].
    discard: bool,
}

struct Shared {
    resolve: ModelResolver,
    flight: Option<FlightRecorder>,
    state: Mutex<State>,
    /// Workers park here; signalled on submit and shutdown.
    work_cv: Condvar,
    /// Blocked submitters park here; signalled when `pending` drops.
    space_cv: Condvar,
    /// Consumers park here; signalled on every delivered result.
    results_cv: Condvar,
}

impl Shared {
    /// The pool's one lock. No code panics while holding it.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("serve pool state lock poisoned")
    }

    /// Publish a result and release one unit of queue capacity in one
    /// critical section, so `pending == 0` means "all results visible".
    fn deliver(&self, result: JobResult) {
        let mut st = self.lock();
        st.results.push_back(result);
        st.pending -= 1;
        drop(st);
        IN_FLIGHT.dec();
        self.results_cv.notify_all();
        self.space_cv.notify_all();
    }
}

/// A running worker pool over simulator jobs. See the crate docs for the
/// full lifecycle; dropping the pool performs a graceful [`Pool::shutdown`].
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    queue_cap: usize,
}

impl Pool {
    /// Spawn `cfg.workers` threads and return the handle used to submit
    /// jobs and collect results.
    pub fn new(cfg: ServeConfig) -> Pool {
        let shared = Arc::new(Shared {
            resolve: cfg.resolve_model,
            flight: cfg.flight.map(FlightRecorder::new),
            state: Mutex::new(State::default()),
            work_cv: Condvar::new(),
            space_cv: Condvar::new(),
            results_cv: Condvar::new(),
        });
        let handles = (0..cfg.workers.max(1))
            .map(|ix| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{ix}"))
                    .spawn(move || worker_loop(ix, &shared))
                    .expect("spawn serve worker")
            })
            .collect();
        Pool { shared, handles, queue_cap: cfg.queue_cap.max(1) }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Accepted jobs whose results have not been delivered yet.
    pub fn pending(&self) -> usize {
        self.shared.lock().pending
    }

    /// Submit a job, blocking while the pool is at capacity. Always
    /// `Ok`: a pool that can be borrowed has not been shut down.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        let st = self.shared.lock();
        let st = self
            .shared
            .space_cv
            .wait_while(st, |st| st.pending >= self.queue_cap)
            .expect("serve pool state lock poisoned");
        Ok(self.accept(st, spec))
    }

    /// Submit a job without blocking; [`SubmitError::Full`] applies
    /// back-pressure to the producer.
    pub fn try_submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        let st = self.shared.lock();
        if st.pending >= self.queue_cap {
            return Err(SubmitError::Full);
        }
        Ok(self.accept(st, spec))
    }

    fn accept(&self, mut st: MutexGuard<'_, State>, spec: JobSpec) -> u64 {
        st.pending += 1;
        let id = st.next_id;
        st.next_id += 1;
        st.jobs.push_back(Job { id, spec });
        QUEUE_DEPTH.inc();
        drop(st);
        self.shared.work_cv.notify_one();
        id
    }

    /// Take one finished result, waiting up to `timeout` for it.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<JobResult> {
        let st = self.shared.lock();
        let (mut st, _) = self
            .shared
            .results_cv
            .wait_timeout_while(st, timeout, |st| st.results.is_empty())
            .expect("serve pool state lock poisoned");
        st.results.pop_front()
    }

    /// Block until every accepted job has delivered a result, returning
    /// all uncollected results in submission (id) order.
    pub fn drain(&self) -> Vec<JobResult> {
        let st = self.shared.lock();
        let mut st = self
            .shared
            .results_cv
            .wait_while(st, |st| st.pending > 0)
            .expect("serve pool state lock poisoned");
        let mut out: Vec<JobResult> = st.results.drain(..).collect();
        drop(st);
        out.sort_by_key(|r| r.id);
        out
    }

    /// Mark all *queued* (not yet started) jobs for cancellation: workers
    /// complete them instantly as [`JobError::Cancelled`] so accounting
    /// stays exact. Jobs already executing finish normally — this is the
    /// SIGINT path: stop starting work, keep every result.
    pub fn discard_queued(&self) {
        self.shared.lock().discard = true;
    }

    /// Graceful shutdown: let workers drain the queue (or cancel it,
    /// after [`Pool::discard_queued`]), and join them. Returns any
    /// uncollected results. Also performed by `Drop`.
    pub fn shutdown(mut self) -> Vec<JobResult> {
        self.stop();
        let mut out: Vec<JobResult> = self.shared.lock().results.drain(..).collect();
        out.sort_by_key(|r| r.id);
        out
    }

    /// Force a post-mortem bundle right now (`crash-<reason>.json`) with
    /// the recorder's current snapshot, recent job ids, and the span
    /// ring — no failing job attached. This is the client-interrupt
    /// (SIGINT) path. Returns the written path, or `None` when no
    /// flight recorder / crash directory is configured or the write
    /// failed.
    pub fn write_crash_bundle(&self, reason: &str) -> Option<std::path::PathBuf> {
        self.shared.flight.as_ref()?.write_crash_bundle(reason, None)
    }

    /// Wake the workers, join them once they have emptied the queue,
    /// and flush the flight recorder. No submitter can be waiting: both
    /// callers own the pool. Idempotent: `shutdown` and then `Drop` both
    /// run it.
    fn stop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        if let Some(flight) = &self.shared.flight {
            flight.finish();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.stop();
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn worker_loop(ix: usize, shared: &Shared) {
    loop {
        let st = shared.lock();
        let mut st = shared
            .work_cv
            .wait_while(st, |st| st.jobs.is_empty() && !st.shutdown)
            .expect("serve pool state lock poisoned");
        // An empty queue here means shutdown: every accepted job has
        // been picked up.
        let Some(job) = st.jobs.pop_front() else { return };
        let discard = st.discard;
        drop(st);
        QUEUE_DEPTH.dec();
        IN_FLIGHT.inc();
        let result = if discard {
            JobResult {
                id: job.id,
                label: job.spec.label.clone(),
                worker: ix,
                metrics: tangled_telemetry::Snapshot::default(),
                result: Err(JobError::Cancelled),
            }
        } else {
            // The scope captures only this thread's telemetry; the panic
            // is caught *inside* it so a dying job still reports the
            // metrics it recorded before the panic.
            WORKERS_BUSY.inc();
            let (caught, metrics) = tangled_telemetry::scoped(|| {
                std::panic::catch_unwind(AssertUnwindSafe(|| execute(&job.spec, shared.resolve)))
            });
            WORKERS_BUSY.dec();
            JobResult {
                id: job.id,
                label: job.spec.label.clone(),
                worker: ix,
                metrics,
                result: match caught {
                    Ok(r) => r,
                    Err(payload) => Err(JobError::Panic(panic_message(payload))),
                },
            }
        };
        if let Some(flight) = &shared.flight {
            // A panicking job writes its post-mortem before the result
            // is published (the bundle's recent-completed list therefore
            // excludes the dying job itself).
            if matches!(result.result, Err(JobError::Panic(_))) {
                let _ = flight.write_crash_bundle("panic", Some((&job.spec, &result)));
            }
            flight.note_completed(&job.spec, &result);
        }
        shared.deliver(result);
    }
}
