//! Fault isolation in the serve pool: a core that panics mid-job is
//! injected through the engine registry (`ModelEntry::custom`), and the
//! pool must (a) fail only that job, with a typed [`JobError::Panic`]
//! carrying the payload message, (b) keep the worker alive and keep
//! draining everything else, and (c) shut down within bounded time —
//! never deadlock on a poisoned worker.

use std::sync::mpsc;
use std::sync::Once;
use std::time::{Duration, Instant};

use tangled_qat::bench::json::Json;
use tangled_qat::serve::{
    FlightConfig, JobError, JobKind, JobSpec, LineSink, Pool, ServeConfig, CRASH_SCHEMA,
};
use tangled_qat::sim::difftest::DiffConfig;
use tangled_qat::sim::engine::{Core, ModelEntry, ModelRole};
use tangled_qat::sim::{Machine, SimError, StepEvent};
use tangled_qat::telemetry;

/// A registry-shaped core whose `step` always panics — the worst-case
/// client: not a typed error, an unwind out of the execution engine.
struct PanicCore {
    machine: Machine,
}

impl Core for PanicCore {
    fn name(&self) -> &'static str {
        "panic-core"
    }

    fn machine(&self) -> &Machine {
        &self.machine
    }

    fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    fn step(&mut self) -> Result<StepEvent, SimError> {
        panic!("injected core panic");
    }

    fn report(&self) -> String {
        String::new()
    }
}

static PANIC_ENTRY: ModelEntry = ModelEntry::custom(
    "panic-core",
    "test-only core whose step() unwinds",
    ModelRole::Timing,
    |m| Box::new(PanicCore { machine: m }),
);

/// The production registry, plus the synthetic panicking model.
fn resolver(name: &str) -> Option<&'static ModelEntry> {
    if name == "panic-core" {
        Some(&PANIC_ENTRY)
    } else {
        tangled_qat::sim::engine::model(name)
    }
}

/// Worker panics are expected throughout this suite; silence the default
/// hook's backtrace spew so test output stays readable.
fn quiet_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| std::panic::set_hook(Box::new(|_| {})));
}

fn pool(workers: usize) -> Pool {
    Pool::new(ServeConfig { workers, resolve_model: resolver, ..Default::default() })
}

fn words() -> Vec<u16> {
    tangled_qat::asm::assemble("lex $1,5\nadd $1,$1\nsys\n").unwrap().words
}

fn run_job(model: &str, label: &str) -> JobSpec {
    JobSpec {
        kind: JobKind::Run { words: words(), model: model.into() },
        cfg: DiffConfig::default(),
        label: label.into(),
    }
}

#[test]
fn panic_fails_only_its_own_job() {
    quiet_panics();
    telemetry::set_mode(telemetry::Mode::Counters);
    let pool = pool(2);
    // Interleave poisoned and healthy jobs so both workers see both kinds.
    for i in 0..10 {
        let spec = if i % 3 == 0 {
            run_job("panic-core", &format!("bad-{i}"))
        } else {
            run_job("functional", &format!("good-{i}"))
        };
        pool.submit(spec).unwrap();
    }
    let results = pool.drain();
    assert_eq!(results.len(), 10, "every accepted job yields exactly one result");
    for (ix, r) in results.iter().enumerate() {
        assert_eq!(r.id, ix as u64, "ids stay dense despite panics");
        if ix % 3 == 0 {
            match &r.result {
                Err(JobError::Panic(msg)) => {
                    assert!(
                        msg.contains("injected core panic"),
                        "panic payload preserved, got: {msg}"
                    );
                }
                other => panic!("job {ix} should be a typed panic error, got {other:?}"),
            }
        } else {
            let out = r.result.as_ref().expect("healthy job unaffected by neighbours");
            assert!(out.outcome.is_some());
        }
    }
}

#[test]
fn workers_survive_panics_and_keep_serving() {
    quiet_panics();
    telemetry::set_mode(telemetry::Mode::Counters);
    // One worker: the same thread must execute a panic job, survive, and
    // then complete healthy work — proving the unwind never kills it.
    let pool = pool(1);
    for round in 0..3 {
        pool.submit(run_job("panic-core", &format!("bad-{round}"))).unwrap();
        pool.submit(run_job("functional", &format!("good-{round}"))).unwrap();
        let results = pool.drain();
        assert_eq!(results.len(), 2, "drain returns just this round's results");
        let (bad, good) = (&results[0], &results[1]);
        assert!(matches!(bad.result, Err(JobError::Panic(_))));
        assert!(good.result.is_ok());
        assert_eq!(bad.worker, good.worker, "single worker handled both");
    }
}

#[test]
fn shutdown_joins_in_bounded_time_with_panicking_jobs_in_flight() {
    quiet_panics();
    telemetry::set_mode(telemetry::Mode::Counters);
    let pool = pool(4);
    for i in 0..12 {
        let spec = if i % 2 == 0 {
            run_job("panic-core", "bad")
        } else {
            run_job("functional", "good")
        };
        pool.submit(spec).unwrap();
    }
    // Join on a helper thread so a deadlocked shutdown fails the test with
    // a clear message instead of hanging the whole suite.
    let (tx, rx) = mpsc::channel();
    let t0 = Instant::now();
    std::thread::spawn(move || {
        let results = pool.shutdown();
        let _ = tx.send(results);
    });
    let results = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("shutdown must complete in bounded time, not deadlock");
    assert!(t0.elapsed() < Duration::from_secs(30));
    // Shutdown drains: every accepted job is accounted for, completed or
    // cancelled — none silently dropped.
    assert_eq!(results.len(), 12);
    for r in &results {
        match &r.result {
            Ok(out) => assert!(out.outcome.is_some()),
            Err(JobError::Panic(msg)) => assert!(msg.contains("injected core panic")),
            Err(JobError::Cancelled) => {} // discarded before pickup: still a result
            Err(other) => panic!("unexpected error kind: {other:?}"),
        }
    }
}

/// A panicking job with a flight recorder attached leaves a parseable
/// `crash-<jobid>.json` post-mortem: the failing spec (enough to
/// re-submit the job), the dying job's scoped metrics, the recorder
/// snapshot, and the recently completed job ids.
#[test]
fn panic_writes_a_parseable_crash_bundle() {
    quiet_panics();
    telemetry::set_mode(telemetry::Mode::Counters);
    let dir = std::env::temp_dir().join(format!("tangled-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pool = Pool::new(ServeConfig {
        workers: 1,
        resolve_model: resolver,
        flight: Some(FlightConfig {
            interval: 0,
            crash_dir: Some(dir.clone()),
            sink: LineSink::Buffer(Default::default()),
        }),
        ..Default::default()
    });
    // Two healthy jobs first so the bundle has recent completions, then
    // the poisoned one.
    pool.submit(run_job("functional", "good-0")).unwrap();
    pool.submit(run_job("functional", "good-1")).unwrap();
    pool.submit(run_job("panic-core", "doomed")).unwrap();
    let results = pool.drain();
    assert!(matches!(results[2].result, Err(JobError::Panic(_))));

    let bundle_path = dir.join(format!("crash-{}.json", results[2].id));
    let text = std::fs::read_to_string(&bundle_path)
        .unwrap_or_else(|e| panic!("{}: {e}", bundle_path.display()));
    let doc = Json::parse(&text).expect("crash bundle parses as JSON");
    assert_eq!(doc["schema"].as_str(), Some(CRASH_SCHEMA));
    assert_eq!(doc["reason"].as_str(), Some("panic"));
    assert_eq!(doc["job"]["id"].as_u64(), Some(results[2].id));
    assert_eq!(doc["job"]["label"].as_str(), Some("doomed"));
    assert!(doc["job"]["error"].as_str().unwrap().contains("injected core panic"));
    // The spec section re-describes the job precisely.
    assert_eq!(doc["spec"]["kind"].as_str(), Some("run"));
    assert_eq!(doc["spec"]["model"].as_str(), Some("panic-core"));
    assert!(!doc["spec"]["words"].as_str().unwrap().is_empty());
    // The snapshot saw the two healthy completions before the crash, and
    // their ids are in the recent-completions ring.
    assert_eq!(doc["snapshot"]["jobs"].as_u64(), Some(2));
    let recent: Vec<u64> =
        doc["recent_completed"].as_array().unwrap().iter().filter_map(|v| v.as_u64()).collect();
    assert_eq!(recent, vec![results[0].id, results[1].id]);
    // Counters mode records no spans; the trace section is present but empty.
    assert_eq!(doc["trace"]["events"].as_array().unwrap().len(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_model_is_typed_not_fatal() {
    telemetry::set_mode(telemetry::Mode::Counters);
    let pool = pool(1);
    pool.submit(run_job("no-such-core", "ghost")).unwrap();
    pool.submit(run_job("functional", "real")).unwrap();
    let results = pool.drain();
    assert_eq!(
        results[0].result,
        Err(JobError::UnknownModel("no-such-core".into()))
    );
    assert!(results[1].result.is_ok());
}
