//! Pool-size independence of the serve layer: the same job set must
//! produce identical per-job payloads at 1, 2, and 4 workers, and the
//! merged metrics snapshot must not depend on result arrival order.
//!
//! Both properties are what make `qat-fuzz --workers N` a faithful
//! speed-up of the serial campaign rather than a different experiment.

use proptest::prelude::*;
use tangled_qat::serve::{
    FlightConfig, JobKind, JobResult, JobSpec, LineSink, Pool, ServeConfig,
};
use tangled_qat::sim::difftest::DiffConfig;
use tangled_qat::telemetry;

/// A mixed job set seeded from `base`: generate jobs (the fuzzer's
/// workload, including shrink-on-divergence and periodic cross-checks)
/// plus differential jobs over a fixed program.
fn job_set(base: u64) -> Vec<JobSpec> {
    let cfg = DiffConfig::default();
    let words =
        tangled_qat::asm::assemble("had @123,4\nlex $8,42\nnext $8,@123\nsys\n")
            .unwrap()
            .words;
    let mut jobs = Vec::new();
    for i in 0..6u64 {
        let seed = base * 7 + i;
        jobs.push(JobSpec {
            kind: JobKind::Generate { seed, profile: None, len: 25, crosscheck: i == 0 },
            cfg,
            label: format!("gen-{seed}"),
        });
    }
    jobs.push(JobSpec {
        kind: JobKind::Differential { words: words.clone() },
        cfg,
        label: "diff".into(),
    });
    jobs.push(JobSpec {
        kind: JobKind::Run { words, model: "pipeline-5-fw".into() },
        cfg,
        label: "run".into(),
    });
    jobs
}

/// Run the set on a fresh pool, returning results in submission order.
fn run_on(workers: usize, jobs: &[JobSpec]) -> Vec<JobResult> {
    let pool = Pool::new(ServeConfig { workers, ..Default::default() });
    for j in jobs {
        pool.submit(j.clone()).unwrap();
    }
    let results = pool.drain();
    assert_eq!(results.len(), jobs.len());
    results
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn outcomes_and_metrics_are_identical_across_worker_counts(base in 1u64..500) {
        telemetry::set_mode(telemetry::Mode::Counters);
        let jobs = job_set(base);
        let runs: Vec<Vec<JobResult>> =
            [1usize, 2, 4].iter().map(|&w| run_on(w, &jobs)).collect();
        let reference = &runs[0];
        for (w, run) in runs.iter().enumerate().skip(1) {
            for (a, b) in reference.iter().zip(run) {
                prop_assert_eq!(a.id, b.id);
                prop_assert_eq!(&a.label, &b.label);
                // The payload — outcome, findings, coverage, report — is
                // bit-identical whichever worker executed the job.
                prop_assert_eq!(&a.result, &b.result, "job {} differs at {} workers", a.id, w);
                // So is the per-job telemetry slice.
                prop_assert_eq!(&a.metrics, &b.metrics, "metrics of job {} differ", a.id);
            }
        }
    }

    #[test]
    fn merged_snapshot_is_invariant_under_result_permutation(base in 1u64..500) {
        telemetry::set_mode(telemetry::Mode::Counters);
        let results = run_on(2, &job_set(base));
        let parts: Vec<&telemetry::Snapshot> = results.iter().map(|r| &r.metrics).collect();
        let forward = telemetry::Snapshot::merged(parts.iter().copied());
        let reverse = telemetry::Snapshot::merged(parts.iter().rev().copied());
        let mut rotated: Vec<&telemetry::Snapshot> = parts.clone();
        rotated.rotate_left(parts.len() / 2);
        let rotated = telemetry::Snapshot::merged(rotated);
        prop_assert_eq!(&forward, &reverse);
        prop_assert_eq!(&forward, &rotated);
    }

    /// `delta` inverts `merge_from` on real per-job snapshots: for any
    /// two job metric slices `a` and `b`, `merged(a, b).delta(a)`
    /// recovers `b` on every additive key, and `.max` keys combine as
    /// the running maximum (the gauge/histogram high-water-mark rule
    /// that keeps merges permutation-invariant across worker counts).
    #[test]
    fn delta_is_the_inverse_of_merge(base in 1u64..500) {
        telemetry::set_mode(telemetry::Mode::Counters);
        let results = run_on(1, &job_set(base));
        let (a, b) = (&results[0].metrics, &results[1].metrics);
        let merged = telemetry::Snapshot::merged([a, b]);
        let recovered = merged.delta(a);
        for (key, merged_v) in merged.iter() {
            if key.ends_with(".max") {
                prop_assert_eq!(
                    merged_v,
                    a.get(key).max(b.get(key)),
                    "`{}` must max-merge", key
                );
            } else {
                prop_assert_eq!(
                    recovered.get(key),
                    b.get(key),
                    "merged.delta(a) must recover b at `{}`", key
                );
            }
        }
    }
}

/// At one worker the flight recorder's live lines are byte-stable: two
/// runs of the same job set produce identical output, including the
/// final summary line. (The `cycles` stamp is simulated time, never
/// wall-clock.)
#[test]
fn live_lines_are_byte_stable_at_one_worker() {
    use std::sync::{Arc, Mutex};
    telemetry::set_mode(telemetry::Mode::Counters);
    let jobs = job_set(42);
    let capture = |jobs: &[JobSpec]| -> Vec<u8> {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let pool = Pool::new(ServeConfig {
            workers: 1,
            flight: Some(FlightConfig {
                interval: 2,
                crash_dir: None,
                sink: LineSink::Buffer(buf.clone()),
            }),
            ..Default::default()
        });
        for j in jobs {
            pool.submit(j.clone()).unwrap();
        }
        let results = pool.drain();
        assert_eq!(results.len(), jobs.len());
        pool.shutdown(); // flush the final summary line
        let bytes = buf.lock().unwrap().clone();
        bytes
    };
    let first = capture(&jobs);
    let second = capture(&jobs);
    assert!(!first.is_empty(), "no live lines captured");
    assert_eq!(
        String::from_utf8_lossy(&first),
        String::from_utf8_lossy(&second),
        "live lines differ between identical single-worker runs"
    );
}

#[test]
fn worker_attribution_is_the_only_varying_field() {
    // Sanity outside proptest: at 4 workers each result names one of the
    // pool's workers (which worker ran which job may differ run to run),
    // while ids stay dense and sorted.
    telemetry::set_mode(telemetry::Mode::Counters);
    let jobs: Vec<JobSpec> = (0..16)
        .map(|i| {
            JobSpec::new(
                JobKind::Generate { seed: 100 + i, profile: None, len: 20, crosscheck: false },
                DiffConfig::default(),
            )
        })
        .collect();
    let results = run_on(4, &jobs);
    for (ix, r) in results.iter().enumerate() {
        assert_eq!(r.id, ix as u64);
        assert!(r.worker < 4);
        assert!(r.result.is_ok());
    }
}
