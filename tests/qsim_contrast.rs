//! E14: the paper's quantum-vs-PBP contrasts (§2.2, §2.7), executed.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tangled_qat::aob::Aob;
use tangled_qat::pbp::{Pbits, PbpContext};
use tangled_qat::qsim::{expected_runs_to_collect_all, runs_to_collect_all, QState};

/// The factoring-of-15 answer channels (b | c<<4).
const ANSWERS: [u64; 4] = [31, 53, 83, 241];

#[test]
fn pbp_measurement_is_nondestructive_quantum_is_not() {
    // PBP: measure the same pbit 1000 times; identical every time.
    let v = {
        let mut a = Aob::zeros(8);
        for &c in &ANSWERS {
            a.set(c, true);
        }
        a
    };
    let first = v.enumerate_ones();
    for _ in 0..1000 {
        assert_eq!(v.enumerate_ones(), first);
    }

    // Quantum: the first measurement collapses; subsequent measurements
    // repeat the collapsed value, the rest of the superposition is gone.
    let mut rng = StdRng::seed_from_u64(99);
    let mut s = QState::uniform_over(8, &ANSWERS);
    let m1 = s.measure_all(&mut rng);
    for _ in 0..10 {
        assert_eq!(s.measure_all(&mut rng), m1);
    }
}

#[test]
fn quantum_needs_many_runs_pbp_needs_one() {
    // "only one [value] can be examined per run" — collecting all four
    // factors of 15 takes ~8.3 expected quantum runs vs exactly 1 PBP pass.
    let theory = expected_runs_to_collect_all(4);
    assert!((theory - 25.0 / 3.0).abs() < 1e-9);

    let s = QState::uniform_over(8, &ANSWERS);
    let mut rng = StdRng::seed_from_u64(5);
    let trials = 300;
    let mean = (0..trials)
        .map(|_| runs_to_collect_all(&s, &ANSWERS, &mut rng))
        .sum::<u64>() as f64
        / trials as f64;
    assert!((mean - theory).abs() < 1.2, "mean {mean} vs theory {theory}");

    // The PBP pass:
    let mut ctx = PbpContext::new(8);
    let n = ctx.pint_mk(4, 15);
    let b = ctx.pint_h_auto(4);
    let c = ctx.pint_h_auto(4);
    let Ok(d) = ctx.pint_mul(&b, &c);
    let Ok(e) = ctx.pint_eq(&d, &n);
    let factors = ctx.pint_measure_where(&b, &e);
    assert_eq!(factors.len(), 4); // all four, one pass
}

#[test]
fn no_number_of_quantum_runs_guarantees_completeness() {
    // "there is no number of runs sufficient to guarantee that all values
    // … have been seen": the per-trial run counts have unbounded spread —
    // check the empirical distribution has a heavy tail (some trial needs
    // at least 2x the expectation).
    let s = QState::uniform_over(8, &ANSWERS);
    let mut rng = StdRng::seed_from_u64(17);
    let runs: Vec<u64> = (0..300).map(|_| runs_to_collect_all(&s, &ANSWERS, &mut rng)).collect();
    let max = *runs.iter().max().unwrap();
    let min = *runs.iter().min().unwrap();
    assert!(min >= 4); // can never finish in fewer than k runs
    assert!(max >= 16, "tail too light: max {max}");
}

#[test]
fn entangled_partner_locks_on_measurement() {
    // "any qubits entangled with a qubit measured also become locked into
    // their values at that moment" — versus PBP, where reading one pbit
    // leaves its entangled partners fully superposed.
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..20 {
        let mut s = QState::new(2);
        s.h(0);
        s.cnot(0, 1);
        let a = s.measure_qubit(0, &mut rng);
        let b = s.measure_qubit(1, &mut rng);
        assert_eq!(a, b);
    }

    // PBP: the entangled pair (lo = H(0), hi = H(0), perfectly correlated)
    // can be sampled on any channel without locking the others.
    let lo = Aob::hadamard(8, 0);
    let hi = Aob::hadamard(8, 0);
    for e in 0..256u64 {
        assert_eq!(lo.meas(e), hi.meas(e));
    }
    // After reading every channel, the distribution is untouched:
    assert_eq!(lo.pop_all(), 128);
}

#[test]
fn memory_scaling_quantum_vs_pbp() {
    // State vectors cost 16 bytes per amplitude; the RE form costs a few
    // runs for structured values at ANY entanglement.
    assert_eq!(QState::new(16).memory_bytes(), 1 << 20); // 1 MiB at 16 qubits
    let mut ctx = PbpContext::new(32); // 2^32 channels
    let h = ctx.hadamard(31);
    assert!(h.storage_runs() <= 2);
}

#[test]
fn qat_gate_set_mirrors_quantum_gate_set_semantics_on_basis_states() {
    // For classical basis inputs, Qat's gates and the quantum gates agree
    // bit-for-bit (superposition is where the models diverge).
    let mut rng = StdRng::seed_from_u64(11);
    let _ = &mut rng;
    for input in 0..8u64 {
        // Quantum CCNOT on |input>:
        let mut s = QState::new(3);
        for q in 0..3 {
            if (input >> q) & 1 == 1 {
                s.x(q);
            }
        }
        s.ccnot(0, 1, 2);
        let expected = input ^ (((input & 1) & ((input >> 1) & 1)) << 2);
        assert!((s.prob(expected) - 1.0).abs() < 1e-12);

        // Qat ccnot on constant pbits:
        let mut a = if (input >> 2) & 1 == 1 { Aob::ones(6) } else { Aob::zeros(6) };
        let b = if input & 1 == 1 { Aob::ones(6) } else { Aob::zeros(6) };
        let c = if (input >> 1) & 1 == 1 { Aob::ones(6) } else { Aob::zeros(6) };
        a.ccnot_assign(&b, &c);
        assert_eq!(a.any(), (expected >> 2) & 1 == 1);
    }
}
