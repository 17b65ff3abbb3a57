//! Superposed database search, PBP style, against the quantum baseline.
//!
//! Task: find every x in 0..256 with f(x) = (x*x + 3x) mod 256 == 40.
//! PBP evaluates f over an 8-way entangled superposition once and reads
//! out ALL solutions non-destructively with `next`. The quantum baseline
//! holds the same answers in superposition but each destructive
//! measurement returns one sample — seeing all of them is a
//! coupon-collector process, and no number of runs gives a guarantee.
//!
//! Run with: `cargo run --example search_vs_quantum`

use rand::rngs::StdRng;
use rand::SeedableRng;
use tangled_qat::pbp::{Pbits, PbpContext};
use tangled_qat::qsim::{expected_runs_to_collect_all, runs_to_collect_all, QState};

fn main() {
    // ------------------------------------------------------------------
    // PBP: one pass, all answers.
    // ------------------------------------------------------------------
    let mut ctx = PbpContext::new(8);
    let x = ctx.pint_h(8, 0x00FF); // x = 0..255, channel e carries x = e
    let Ok(xx) = ctx.pint_mul(&x, &x); // x^2   (16 bits)
    let three = ctx.pint_mk(2, 3);
    let Ok(x3) = ctx.pint_mul(&x, &three); // 3x (10 bits)
    let Ok(sum) = ctx.pint_add(&xx, &x3); // x^2 + 3x
    let sum8 = ctx.pint_resize(&sum, 8); // mod 256 = take low 8 pbits
    let target = ctx.pint_mk(8, 40);
    let Ok(hit) = ctx.pint_eq(&sum8, &target);

    let solutions: Vec<u64> = ctx
        .pint_measure_where(&x, &hit)
        .into_iter()
        .map(|v| v.value)
        .collect();
    println!("== PBP search: f(x) = x^2+3x mod 256 == 40 ==");
    println!("solutions found in ONE non-destructive pass: {solutions:?}");
    for &s in &solutions {
        assert_eq!((s * s + 3 * s) % 256, 40, "x={s}");
    }
    // Exhaustive check that nothing was missed.
    let expect: Vec<u64> = (0..256u64).filter(|&v| (v * v + 3 * v) % 256 == 40).collect();
    assert_eq!(solutions, expect);
    println!("exhaustive oracle agrees: {} solutions, none missed\n", expect.len());

    // ------------------------------------------------------------------
    // Quantum baseline: the post-oracle state holds the same solutions,
    // but measurement collapses.
    // ------------------------------------------------------------------
    let k = solutions.len() as u64;
    let state = QState::uniform_over(8, &solutions);
    let mut rng = StdRng::seed_from_u64(2026);
    println!("== quantum baseline (state vector, destructive measurement) ==");
    println!(
        "one run returns ONE sample; expected runs to see all {k}: {:.2}",
        expected_runs_to_collect_all(k)
    );
    let trials = 200;
    let total: u64 = (0..trials)
        .map(|_| runs_to_collect_all(&state, &solutions, &mut rng))
        .sum();
    println!(
        "measured over {trials} trials: mean {:.2} runs (PBP needed exactly 1)",
        total as f64 / trials as f64
    );
    println!(
        "state-vector memory: {} bytes vs one 256-bit pbit per predicate",
        state.memory_bytes()
    );
}
