//! Warm-start semantics of ChunkStore snapshots, end to end: a snapshot
//! saved by one run and attached by another must be *semantically
//! invisible* — the program computes bit-identical architectural state
//! warm or cold — while skipping every kernel compile the snapshot
//! already paid for. Both files that intern are covered: the interned
//! file attaches at construction, the adaptive file when it promotes.

use tangled_qat::aob::{warm, ChunkStore};
use tangled_qat::asm;
use tangled_qat::qat::{QatConfig, StorageBackend};
use tangled_qat::sim::{Machine, MachineConfig};

const WAYS: u32 = 8;

fn words(name: &str) -> Vec<u16> {
    let src =
        std::fs::read_to_string(format!("{}/examples/asm/{name}", env!("CARGO_MANIFEST_DIR")))
            .unwrap();
    asm::assemble(&src).unwrap().words
}

fn run(cfg: QatConfig, words: &[u16]) -> Machine {
    let mut m = Machine::with_image(MachineConfig { qat: cfg, ..Default::default() }, words);
    m.run().expect("factoring demo halts");
    m
}

#[test]
fn warm_factoring_is_bit_identical_to_cold_and_compiles_nothing() {
    let words = words("factor15.s");
    let cold_cfg = QatConfig::with_backend(StorageBackend::Interned, WAYS);
    let cold = run(cold_cfg, &words);

    // Snapshot the cold run's store through the full byte round trip —
    // exactly what `tangled run --store-out` + `--store-in` do across
    // two processes.
    let bytes = cold.qat.store().expect("interned backend has a store").to_bytes();
    let snapshot = ChunkStore::from_bytes(&bytes).expect("own snapshot loads");
    let id = warm::register(snapshot);

    let warm_run = run(QatConfig { warm: Some(id), ..cold_cfg }, &words);
    assert_eq!(warm_run.regs, cold.regs, "architectural registers diverged");
    assert_eq!(warm_run.output, cold.output, "sys output diverged");
    assert_eq!(warm_run.steps, cold.steps);
    assert_eq!(warm_run.pc, cold.pc);

    // The warm run answers every intern and op lookup from the snapshot:
    // zero misses means zero fresh kernel compiles.
    let stats = warm_run.qat.intern_stats().expect("interned backend has stats");
    assert_eq!(stats.misses, 0, "warm run compiled kernels: {stats:?}");
    assert!(stats.hits > 0, "warm run never touched the op cache");

    // Cold-run determinism sanity: a second cold run matches the first.
    let cold2 = run(cold_cfg, &words);
    assert_eq!(cold2.regs, cold.regs);
}

/// `--store-out` and `--store-in` on the default backend: a run that
/// promotes saves its interned store, and a warm run's file attaches it
/// when it promotes, so every gate after promotion is a cache hit.
#[test]
fn promoted_adaptive_file_warms_from_its_own_snapshot() {
    let words = words("gate_reuse.s");
    let cfg = QatConfig::with_backend(StorageBackend::Adaptive, 16);
    let cold = run(cfg, &words);
    let store = cold.qat.store().expect("gate_reuse.s promotes the adaptive file");
    assert!(store.stats().misses > 0, "the cold promoted file compiles kernels");
    let id = warm::register(ChunkStore::from_bytes(&store.to_bytes()).expect("own snapshot loads"));

    let warm_run = run(QatConfig { warm: Some(id), ..cfg }, &words);
    assert_eq!(warm_run.regs, cold.regs, "architectural registers diverged");
    assert_eq!(warm_run.steps, cold.steps);
    let stats = warm_run.qat.intern_stats().expect("the promoted file interns");
    assert_eq!(stats.misses, 0, "warm run compiled kernels: {stats:?}");
    assert!(stats.hits > 0, "warm run never touched the op cache");
}
