//! Engine-layer conformance suite: the registered simulator models × the
//! registered Qat storage backends, over the checked-in reproducer corpus
//! and the paper's factoring demo.
//!
//! [`compare_all`] already sweeps every `ModelRole::Timing` entry of the
//! model registry plus every other backend as an oracle; this suite runs
//! that sweep once per *primary* backend and then pins the resulting
//! reference outcomes equal across backends — so a divergence between
//! storage representations is caught even if it is self-consistent within
//! one backend's model matrix.

use std::path::{Path, PathBuf};

use tangled_qat::asm;
use tangled_qat::qat::{self, QatConfig, StorageBackend};
use tangled_qat::runner;
use tangled_qat::sim::difftest::{capture, compare_all, DiffConfig};
use tangled_qat::sim::{model_registry, Machine, MachineConfig, ModelRole, Outcome};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fuzz/corpus")
}

#[test]
fn registry_matrix_agrees_on_every_corpus_reproducer() {
    let files = runner::corpus_files(&corpus_dir());
    assert!(files.len() >= 5, "seed corpus expected, found {}", files.len());
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        let img = asm::assemble(&text)
            .unwrap_or_else(|e| panic!("{}: assembly failed: {e}", path.display()));
        let mut outcomes: Vec<(StorageBackend, Outcome)> = Vec::new();
        for be in qat::backend_registry() {
            let cfg = runner::corpus_diff_config(&text, be.backend);
            if !be.supports_ways(cfg.ways) {
                continue;
            }
            let out = compare_all(&img.words, &cfg, None)
                .unwrap_or_else(|d| panic!("{} on {}: {d}", path.display(), be.backend));
            outcomes.push((be.backend, out));
        }
        assert!(outcomes.len() >= 2, "{}: not enough backends ran", path.display());
        for pair in outcomes.windows(2) {
            assert_eq!(
                pair[0].1,
                pair[1].1,
                "{}: outcome differs between {} and {}",
                path.display(),
                pair[0].0,
                pair[1].0
            );
        }
    }
}

/// The registry is the single source of truth: every entry resolves by
/// name, and the conformance matrix above exercised every timing model
/// (via `compare_all`) and every backend. Pin the expected tables here so
/// a silently dropped entry fails loudly.
#[test]
fn registries_are_complete() {
    let models: Vec<&str> = model_registry().iter().map(|e| e.name).collect();
    assert_eq!(
        models,
        [
            "functional",
            "multicycle",
            "pipeline-4-fw",
            "pipeline-4-nofw",
            "pipeline-5-fw",
            "pipeline-5-nofw",
            "forwarding-bug"
        ]
    );
    assert_eq!(
        model_registry().iter().filter(|e| e.role == ModelRole::Timing).count(),
        5
    );
    let backends: Vec<&str> = qat::backend_registry().iter().map(|b| b.backend.name()).collect();
    assert_eq!(backends, ["eager", "interned", "sparse-re", "adaptive"]);
}

fn factor15_words() -> Vec<u16> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/asm/factor15.s");
    runner::load_words(path.to_str().unwrap(), false).expect("factoring demo loads")
}

/// §3.3: the RE-compressed register file runs the factoring demo's full
/// gate sequence at 20-way entanglement without ever materializing a
/// 2^20-bit vector, and agrees with eager/interned at ways <= 16.
#[test]
fn factoring_demo_runs_at_20_ways_on_sparse_re() {
    let words = factor15_words();
    let mut machines = Vec::new();
    for (backend, ways) in [
        (StorageBackend::Eager, 8u32),
        (StorageBackend::Interned, 8),
        (StorageBackend::SparseRe, 20),
    ] {
        let mc = MachineConfig {
            qat: QatConfig::with_backend(backend, ways),
            ..Default::default()
        };
        let mut m = Machine::with_image(mc, &words);
        m.run().unwrap_or_else(|e| panic!("{backend} at {ways} ways: {e}"));
        // Figure 10's result, reported through `sys`: the factors of 15.
        let printed: Vec<String> = m.output.iter().map(|r| r.to_string()).collect();
        assert_eq!(printed.join(" "), "5 3", "{backend} at {ways} ways");
        machines.push(m);
    }
    let sparse = machines.last().unwrap();
    // The whole run stayed in RE form: the coprocessor never expanded a
    // register (the meas/next/pop datapath walks runs directly).
    assert_eq!(sparse.qat.materializations(), 0, "sparse-re run materialized");
    // The program's Hadamard lanes are all < 8, so every state is periodic
    // in the low 256 channels: the 20-way predicate register agrees with
    // the 8-way eager baseline channel for channel.
    let eager = &machines[0];
    for e in 0..256u64 {
        assert_eq!(
            eager.qat.storage().meas(80, e),
            sparse.qat.storage().meas(80, e),
            "@80 channel {e}"
        );
    }
    // Eager@8 and interned@8 reach identical full snapshots.
    assert_eq!(capture(&machines[0], None), capture(&machines[1], None));
}

/// The packed-RLE register file runs the factoring demo at the backend's
/// full 32-way ceiling with bounded memory: no register ever materializes
/// its 2^32-bit explicit form, and the packed periods stay thousands of
/// times smaller than the flat universe.
#[test]
fn factoring_demo_runs_at_32_ways_on_sparse_re() {
    let words = factor15_words();
    let mc = MachineConfig {
        qat: QatConfig::with_backend(StorageBackend::SparseRe, 32),
        ..Default::default()
    };
    let mut m = Machine::with_image(mc, &words);
    m.run().expect("sparse-re at 32 ways");
    let printed: Vec<String> = m.output.iter().map(|r| r.to_string()).collect();
    assert_eq!(printed.join(" "), "5 3", "sparse-re at 32 ways");
    assert_eq!(m.qat.materializations(), 0, "32-way run materialized a register");
    // Bounded memory, concretely: the whole 256-register file fits in a
    // few kilowords of packed commands, versus 2^32 bits (128 Mi u32
    // words) per register eagerly.
    let stats = m.qat.packed_stats().expect("sparse-re reports packed stats");
    assert!(stats.packed_words > 0);
    assert!(
        stats.packed_words < 1 << 16,
        "packed register file blew up: {} words",
        stats.packed_words
    );
    assert!(
        stats.ratio() >= 1.0,
        "packed encoding lost to the flat-run baseline: {:?}",
        stats
    );
}

/// Factoring 221 at 32 ways on sparse-re (the `sparse32` benchmark
/// program) pins the packed footprint and the symbol-id stream: the
/// packed command words carry symbol ids, so 7,285 packed words and
/// 11,284 symbols hold only while the RE layer issues its ids in the same
/// order as a 6-way `ChunkStore`. Every one of the run's 71,525 symbol
/// ops is either a hit or a miss.
#[test]
fn factor221_at_32_ways_on_sparse_re_keeps_its_packed_footprint() {
    let words = tangled_qat::bench::assemble(&tangled_qat::bench::factor221_asm());
    let mc = MachineConfig {
        qat: QatConfig::with_backend(StorageBackend::SparseRe, 32),
        ..Default::default()
    };
    let mut m = Machine::with_image(mc, &words);
    m.run().expect("factor 221 at 32 ways on sparse-re");
    assert!(m.halted);
    assert_eq!((m.regs[0], m.regs[1]), (17, 13));
    assert_eq!(m.qat.materializations(), 0);
    let packed = m.qat.packed_stats().expect("sparse-re reports packed stats");
    assert_eq!(packed.packed_words, 7_285);
    let stats = m.qat.intern_stats().expect("sparse-re reports symbol stats");
    assert_eq!(stats.chunks, 11_284);
    assert_eq!(stats.hits + stats.misses, 71_525);
}

/// Packed-vs-eager equivalence pin at hardware degrees: a deterministic
/// gate mix over the whole Table 3 set — including the aliased `cswap`
/// corners — leaves bit-identical registers in the packed sparse-re file
/// and the eager oracle at every ways up to the explicit backends' cap.
#[test]
fn packed_sparse_re_matches_eager_below_hw_max_ways() {
    use tangled_qat::isa::{Insn, QReg, Reg};
    let q = QReg;
    let prog = |ways: u32| {
        let mut p = vec![
            Insn::QHad { a: q(0), k: 0 },
            Insn::QHad { a: q(1), k: ways.saturating_sub(1) as u8 },
            Insn::QHad { a: q(2), k: 2 },
            Insn::QOne { a: q(3) },
            Insn::QAnd { a: q(4), b: q(0), c: q(1) },
            Insn::QOr { a: q(5), b: q(4), c: q(2) },
            Insn::QXor { a: q(6), b: q(5), c: q(0) },
            Insn::QNot { a: q(6) },
            Insn::QCnot { a: q(4), b: q(5) },
            Insn::QCnot { a: q(4), b: q(4) }, // aliased: clears
            Insn::QCcnot { a: q(5), b: q(6), c: q(0) },
            Insn::QCcnot { a: q(5), b: q(5), c: q(5) }, // fully aliased
            Insn::QSwap { a: q(4), b: q(5) },
            Insn::QCswap { a: q(5), b: q(6), c: q(1) },
            Insn::QCswap { a: q(2), b: q(2), c: q(0) }, // aliased pair
            Insn::QZero { a: q(3) },
        ];
        p.push(Insn::QHad { a: q(7), k: (ways / 2) as u8 });
        p.push(Insn::QCswap { a: q(7), b: q(6), c: q(7) }); // data = selector
        p
    };
    for ways in [1u32, 3, 6, 8, 12, 16] {
        let mut eager =
            qat::QatCoprocessor::new(QatConfig::with_backend(StorageBackend::Eager, ways));
        let mut sparse =
            qat::QatCoprocessor::new(QatConfig::with_backend(StorageBackend::SparseRe, ways));
        for insn in prog(ways) {
            eager.execute(insn, 0).unwrap();
            sparse.execute(insn, 0).unwrap();
        }
        for r in 0..8u8 {
            assert_eq!(eager.reg(q(r)), sparse.reg(q(r)), "ways {ways} @{r}");
        }
        // The measurement datapath agrees too, through the ISA encoding.
        for r in [4u8, 5, 6, 7] {
            for d in 0..(1u64 << ways).min(64) {
                let en = eager
                    .execute(Insn::QNext { d: Reg::new(8), a: q(r) }, d as u16)
                    .unwrap();
                let sn = sparse
                    .execute(Insn::QNext { d: Reg::new(8), a: q(r) }, d as u16)
                    .unwrap();
                assert_eq!(en, sn, "ways {ways} @{r} next {d}");
            }
        }
    }
}

/// The adaptive backend reproduces the factoring demo on both sides of its
/// ways pivot: promotable eager-to-interned at 8 ways, and pinned to the
/// RE-compressed file at 20 ways (where a dense vector would be 2^20 bits).
#[test]
fn factoring_demo_runs_on_adaptive_backend() {
    let words = factor15_words();
    for ways in [8u32, 20] {
        let mc = MachineConfig {
            qat: QatConfig::with_backend(StorageBackend::Adaptive, ways),
            ..Default::default()
        };
        let mut m = Machine::with_image(mc, &words);
        m.run().unwrap_or_else(|e| panic!("adaptive at {ways} ways: {e}"));
        let printed: Vec<String> = m.output.iter().map(|r| r.to_string()).collect();
        assert_eq!(printed.join(" "), "5 3", "adaptive at {ways} ways");
        let stats = m.qat.adaptive_stats().expect("adaptive backend reports stats");
        assert!(stats.gates > 0, "adaptive at {ways} ways observed no gates");
    }
}

/// A step budget that ends inside a fused gate run leaves exactly the
/// gates that retired applied: the fusing default backend agrees with the
/// stepped oracles (timing models and the other backends) at every limit
/// across Figure 10's gate runs, host tail and halt.
#[test]
fn step_limits_inside_gate_runs_agree_with_stepped_oracles() {
    let words = factor15_words();
    for max_steps in 1..=100 {
        let cfg = DiffConfig { ways: 8, max_steps, ..DiffConfig::default() };
        if let Err(d) = compare_all(&words, &cfg, None) {
            panic!("max_steps {max_steps}: {d}");
        }
    }
}
