//! Replay the checked-in minimized-reproducer corpus (`fuzz/corpus/*.s`)
//! through the differential oracle, in the sorted order
//! [`runner::corpus_files`] gives and `qat-fuzz` replays. Every file is a
//! program that once exposed (or canonically represents) a cross-model
//! hazard; they must all assemble and agree across the full model matrix
//! forever.

use std::path::PathBuf;
use tangled_qat::asm;
use tangled_qat::qat::StorageBackend;
use tangled_qat::runner;
use tangled_qat::sim::difftest::compare_all;
use tangled_qat::sim::Machine;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fuzz/corpus")
}

#[test]
fn corpus_exists_and_replays_clean() {
    let paths = runner::corpus_files(&corpus_dir());
    assert!(
        paths.len() >= 5,
        "expected the seed corpus (>= 5 reproducers), found {}",
        paths.len()
    );
    for path in paths {
        let text = std::fs::read_to_string(&path).unwrap();
        let img = asm::assemble(&text)
            .unwrap_or_else(|e| panic!("{}: assembly failed: {e}", path.display()));
        let cfg = runner::corpus_diff_config(&text, StorageBackend::Interned);
        if let Err(d) = compare_all(&img.words, &cfg, None) {
            panic!("{}: {d}", path.display());
        }
    }
}

/// Corpus replay is byte-deterministic across pool sizes: the corpus
/// files submitted as differential jobs produce identical per-job payloads
/// and telemetry at 1, 2, and 4 workers.
#[test]
fn corpus_replay_is_deterministic_across_worker_counts() {
    use tangled_qat::serve::{JobKind, JobResult, JobSpec, Pool, ServeConfig};
    tangled_qat::telemetry::set_mode(tangled_qat::telemetry::Mode::Counters);
    let jobs: Vec<JobSpec> = runner::corpus_files(&corpus_dir())
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).unwrap();
            let img = asm::assemble(&text).unwrap();
            JobSpec {
                kind: JobKind::Differential { words: img.words },
                cfg: runner::corpus_diff_config(&text, StorageBackend::Interned),
                label: path.file_name().unwrap().to_string_lossy().into_owned(),
            }
        })
        .collect();
    let run_on = |workers: usize| -> Vec<JobResult> {
        let pool = Pool::new(ServeConfig { workers, ..Default::default() });
        for j in &jobs {
            pool.submit(j.clone()).unwrap();
        }
        pool.drain()
    };
    let reference = run_on(1);
    assert_eq!(reference.len(), jobs.len());
    for workers in [2usize, 4] {
        let run = run_on(workers);
        for (a, b) in reference.iter().zip(&run) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.label, b.label);
            assert_eq!(a.result, b.result, "job {} differs at {workers} workers", a.label);
            assert_eq!(a.metrics, b.metrics, "metrics of {} differ at {workers} workers", a.label);
        }
    }
}

/// The interned register file's cache counters are part of the replayable
/// behavior: two fresh runs of any corpus program must produce identical
/// [`InternStats`], and the counters must satisfy their own arithmetic
/// (`lookups = hits + misses`, the constant bank always interned).
#[test]
fn corpus_intern_counters_replay_deterministically() {
    let mut qat_lookups = 0u64;
    for path in runner::corpus_files(&corpus_dir()) {
        let text = std::fs::read_to_string(&path).unwrap();
        let img = asm::assemble(&text).unwrap();
        let cfg = runner::corpus_diff_config(&text, StorageBackend::Interned);
        let stats_of = || {
            let mut m = Machine::with_image(cfg.machine_config(), &img.words);
            let _ = m.run(); // faulting reproducers still leave valid stats
            m.qat.intern_stats().expect("the interned backend interns")
        };
        let first = stats_of();
        let second = stats_of();
        assert_eq!(first, second, "{}: counters not deterministic", path.display());
        assert_eq!(first.lookups(), first.hits + first.misses, "{}", path.display());
        assert!(
            first.chunks >= (cfg.ways + 2) as u64,
            "{}: constant bank missing from {first:?}",
            path.display()
        );
        qat_lookups += first.lookups();
    }
    // The seed corpus includes Qat reproducers, so at least one program
    // must actually have exercised the op cache.
    assert!(qat_lookups > 0, "no corpus program touched the Qat op cache");
}

/// The packed-RLE encoding is a pure function of the run list: two fresh
/// sparse-re runs of any corpus program must leave bit-identical packed
/// register files — same command-word footprint — and identical
/// architectural state.
#[test]
fn corpus_packed_encoding_replays_deterministically() {
    let mut packed = 0u64;
    for path in runner::corpus_files(&corpus_dir()) {
        let text = std::fs::read_to_string(&path).unwrap();
        let img = asm::assemble(&text).unwrap();
        let cfg = runner::corpus_diff_config(&text, StorageBackend::SparseRe);
        if !tangled_qat::qat::backend_entry(StorageBackend::SparseRe).supports_ways(cfg.ways) {
            continue;
        }
        let run = || {
            let mut m = Machine::with_image(cfg.machine_config(), &img.words);
            let _ = m.run(); // faulting reproducers still leave valid stats
            m
        };
        let (a, b) = (run(), run());
        let sa = a.qat.packed_stats().expect("sparse-re backend reports packed stats");
        let sb = b.qat.packed_stats().expect("sparse-re backend reports packed stats");
        assert_eq!(sa, sb, "{}: packed encoding not deterministic", path.display());
        assert_eq!(a.regs, b.regs, "{}: register state diverged", path.display());
        assert!(
            sa.flat_words >= sa.packed_words,
            "{}: packed encoding lost to the flat-run baseline: {sa:?}",
            path.display()
        );
        packed += sa.packed_words;
    }
    assert!(packed > 0, "no corpus program left packed registers");
}

/// Adaptive-backend promotion decisions are a pure function of the gate
/// sequence, never of wall-clock or allocation state: two fresh runs of
/// any corpus program must report identical [`pbp_aob::AdaptiveStats`]
/// (same windows probed, same promotion choice) and identical
/// architectural state.
#[test]
fn corpus_adaptive_decisions_replay_deterministically() {
    let mut observed = 0u64;
    for path in runner::corpus_files(&corpus_dir()) {
        let text = std::fs::read_to_string(&path).unwrap();
        let img = asm::assemble(&text).unwrap();
        let cfg = runner::corpus_diff_config(&text, StorageBackend::Adaptive);
        let run = || {
            let mut m = Machine::with_image(cfg.machine_config(), &img.words);
            let _ = m.run(); // faulting reproducers still leave valid stats
            m
        };
        let (a, b) = (run(), run());
        let sa = a.qat.adaptive_stats().expect("adaptive backend reports stats");
        let sb = b.qat.adaptive_stats().expect("adaptive backend reports stats");
        assert_eq!(sa, sb, "{}: adaptive decisions not deterministic", path.display());
        assert_eq!(a.regs, b.regs, "{}: register state diverged", path.display());
        observed += sa.gates;
    }
    assert!(observed > 0, "no corpus program drove the adaptive backend");
}
