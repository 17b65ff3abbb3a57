//! Tier-1 differential conformance suite.
//!
//! A fixed population of 256 generated programs (64 per profile) runs
//! through the full model matrix — functional, multi-cycle, and the four
//! pipeline configurations — and every architectural field must agree.
//! A deliberately broken model (stale-register forwarding bug) proves the
//! oracle actually discriminates, and the shrinker must cut its reproducer
//! to at most 8 instructions.

use tangled_qat::qat::StorageBackend;
use tangled_qat::sim::difftest::{
    capture, compare_all, diff_outcomes, forwarding_bug_diverges, run_forwarding_bug,
    run_functional, DiffConfig,
};
use tangled_qat::sim::proggen::{encode_program, random_program, ProgGenOptions, Profile};
use tangled_qat::sim::{shrink, Coverage, Machine};

/// 64 seeds for each of 4 profiles = 256 programs, all models agree.
#[test]
fn fixed_population_agrees_across_all_models() {
    let mut cov = Coverage::new();
    let profiles = [
        Profile::Balanced,
        Profile::AluHeavy,
        Profile::QatHeavy,
        Profile::BranchHeavy,
    ];
    let cfg = DiffConfig::default();
    for (pi, &profile) in profiles.iter().enumerate() {
        for seed in 0..64u64 {
            let opts = ProgGenOptions { profile, ..Default::default() };
            let prog = random_program(1 + seed + 1000 * pi as u64, &opts);
            cov.note_generated(&prog);
            let words = encode_program(&prog);
            if let Err(d) = compare_all(&words, &cfg, Some(&mut cov)) {
                panic!("profile {profile:?} seed {seed}: {d}");
            }
        }
    }
    // The population itself must be a meaningful workout: every opcode
    // kind executed, both branch directions seen.
    assert_eq!(cov.missing(), Vec::<&str>::new());
    assert!(cov.both_branch_directions());
}

/// Fault-adjacent population: constant-register machines must agree on
/// fault identity and fault PC, not just clean final state.
#[test]
fn fault_adjacent_population_agrees() {
    let cfg = DiffConfig { constant_registers: true, ..Default::default() };
    for seed in 0..32u64 {
        let opts = ProgGenOptions {
            profile: Profile::QatHeavy,
            qreg_floor: 10, // 2 + ways(8) reserved registers
            allow_qat_faults: true,
            ..Default::default()
        };
        let prog = random_program(5000 + seed, &opts);
        let words = encode_program(&prog);
        if let Err(d) = compare_all(&words, &cfg, None) {
            panic!("seed {seed}: {d}");
        }
    }
}

/// Intern-stress population: aliased Qat operands (`cnot @a,@a`, repeated
/// sources) and a narrow Hadamard pool drive the hash-consed register
/// file's hot paths. `compare_all` already reruns every program with
/// interning disabled (the `qat-eager` oracle), so this population is the
/// direct differential check of the memoized gate kernels — and the op
/// cache's counters must replay bit-identically on a fresh store.
#[test]
fn intern_stress_population_agrees_and_counters_replay() {
    let cfg = DiffConfig { backend: StorageBackend::Interned, ..Default::default() };
    let opts = ProgGenOptions {
        profile: Profile::QatHeavy,
        intern_stress: true,
        ..Default::default()
    };
    let stats_of = |words: &[u16]| {
        let mut m = Machine::with_image(cfg.machine_config(), words);
        let _ = m.run(); // step-limit faults still leave valid stats
        m.qat.intern_stats().expect("the interned backend interns")
    };
    let mut total_hits = 0u64;
    for seed in 0..32u64 {
        let prog = random_program(9000 + seed, &opts);
        let words = encode_program(&prog);
        if let Err(d) = compare_all(&words, &cfg, None) {
            panic!("seed {seed}: {d}");
        }
        let first = stats_of(&words);
        let second = stats_of(&words);
        assert_eq!(first, second, "seed {seed}: counters not deterministic");
        assert_eq!(first.lookups(), first.hits + first.misses);
        total_hits += first.hits;
    }
    assert!(total_hits > 0, "stress population never hit the op cache");
}

/// Negative control: the oracle is not vacuous. A model with a forwarding
/// bug (reads a stale value of the register written one instruction ago)
/// must diverge on the fixed population, and the divergence must shrink
/// to a reproducer of at most 8 instructions.
#[test]
fn broken_oracle_is_caught_and_shrinks_small() {
    let cfg = DiffConfig::default();
    let diverges = |p: &[tangled_qat::isa::Insn]| {
        let words = encode_program(p);
        let reference = run_functional(&words, cfg.machine_config(), None);
        let buggy = run_forwarding_bug(&words, cfg.machine_config());
        diff_outcomes("forwarding-bug", &reference, &buggy).is_some()
    };
    let mut caught = 0;
    for seed in 1..=64u64 {
        let opts = ProgGenOptions { profile: Profile::AluHeavy, ..Default::default() };
        let prog = random_program(seed, &opts);
        if !forwarding_bug_diverges(&prog, &cfg) {
            continue;
        }
        caught += 1;
        let small = shrink(&prog, diverges);
        assert!(
            small.len() <= 8,
            "seed {seed}: reproducer has {} insns: {small:?}",
            small.len()
        );
        assert!(diverges(&small), "seed {seed}: shrunk program no longer diverges");
        if caught >= 8 {
            break;
        }
    }
    assert!(caught >= 4, "forwarding bug caught only {caught} times in 64 seeds");
}

/// Stray stores outside the data page still diverge, as `mem_hash`: one
/// differing word in each position of one four-word hash group and in the
/// last word of memory, with its low or its high bit set, and the high bit
/// of the same position in two groups (which a plain xor-multiply over
/// 64-bit groups cancels).
#[test]
fn stray_memory_words_diverge_as_mem_hash() {
    let mc = DiffConfig::default().machine_config();
    let reference = capture(&Machine::new(mc), None);
    let mut strays = vec![vec![(0x8003usize, 0x8000u16), (0x9003, 0x8000)]];
    for addr in [0x8000, 0x8001, 0x8002, 0x8003, 0xFFFF] {
        strays.push(vec![(addr, 0x0001)]);
        strays.push(vec![(addr, 0x8000)]);
    }
    for stores in strays {
        let mut m = Machine::new(mc);
        for &(addr, value) in &stores {
            m.mem[addr] = value;
        }
        let d = diff_outcomes("stray-store", &reference, &capture(&m, None))
            .unwrap_or_else(|| panic!("{stores:x?} not seen"));
        assert_eq!(d.field, "mem_hash", "{stores:x?}: {d}");
    }
}
