//! Property-based tests for the AoB substrate: gate algebra, measurement
//! laws, and fast-path vs reference-path equivalence on arbitrary vectors.

use pbp_aob::Aob;
use proptest::prelude::*;

/// Strategy: an arbitrary AoB of the given entanglement degree.
fn aob(ways: u32) -> impl Strategy<Value = Aob> {
    let words = Aob::words_for(ways);
    proptest::collection::vec(any::<u64>(), words).prop_map(move |ws| {
        let mut v = Aob::zeros(ways);
        v.words_mut().copy_from_slice(&ws);
        v.normalize();
        v
    })
}

/// Strategy: (ways, value) pairs over a spread of degrees.
fn aob_any() -> impl Strategy<Value = Aob> {
    (0u32..=12).prop_flat_map(aob)
}

proptest! {
    #[test]
    fn next_equals_reference(a in aob_any(), d in 0u64..5000) {
        prop_assert_eq!(a.next(d), a.next_reference(d));
    }

    #[test]
    fn next_result_is_one_valued_and_minimal(a in aob_any(), d in 0u64..5000) {
        if let Some(r) = a.next(d) {
            prop_assert!(r > d);
            prop_assert!(a.meas(r));
            // minimality: no 1 strictly between d and r
            for e in (d + 1)..r {
                prop_assert!(!a.meas(e));
            }
        } else {
            // nothing after d
            for e in (d + 1)..a.len() {
                prop_assert!(!a.meas(e));
            }
        }
    }

    #[test]
    fn pop_after_consistent_with_meas(a in aob(8), d in 0u64..256) {
        let expect = ((d + 1)..a.len()).filter(|&e| a.meas(e)).count() as u64;
        prop_assert_eq!(a.pop_after(d), expect);
    }

    #[test]
    fn enumerate_via_next_equals_via_meas(a in aob_any()) {
        prop_assert_eq!(a.enumerate_ones(), a.enumerate_ones_by_meas());
    }

    #[test]
    fn any_all_recipes_agree(a in aob_any()) {
        prop_assert_eq!(a.any(), a.any_via_next());
        prop_assert_eq!(a.all(), a.all_via_next());
    }

    #[test]
    fn gate_involutions(a0 in aob(9), b in aob(9), c in aob(9)) {
        let mut a = a0.clone();
        a.not_assign();
        a.not_assign();
        prop_assert_eq!(&a, &a0);

        a.cnot_assign(&b);
        a.cnot_assign(&b);
        prop_assert_eq!(&a, &a0);

        a.ccnot_assign(&b, &c);
        a.ccnot_assign(&b, &c);
        prop_assert_eq!(&a, &a0);
    }

    #[test]
    fn cswap_involution_and_conservancy(a0 in aob(9), b0 in aob(9), c in aob(9)) {
        let (mut a, mut b) = (a0.clone(), b0.clone());
        Aob::cswap(&mut a, &mut b, &c);
        prop_assert_eq!(a.pop_all() + b.pop_all(), a0.pop_all() + b0.pop_all());
        Aob::cswap(&mut a, &mut b, &c);
        prop_assert_eq!(a, a0);
        prop_assert_eq!(b, b0);
    }

    #[test]
    fn boolean_algebra(a in aob(8), b in aob(8), c in aob(8)) {
        // distributivity
        prop_assert_eq!(
            Aob::and_of(&a, &Aob::or_of(&b, &c)),
            Aob::or_of(&Aob::and_of(&a, &b), &Aob::and_of(&a, &c))
        );
        // absorption
        prop_assert_eq!(Aob::or_of(&a, &Aob::and_of(&a, &b)), a.clone());
        // xor via or/and/not
        let xor2 = Aob::or_of(
            &Aob::and_of(&a, &b.not_of()),
            &Aob::and_of(&a.not_of(), &b),
        );
        prop_assert_eq!(Aob::xor_of(&a, &b), xor2);
    }

    #[test]
    fn mux_identities(s in aob(8), t in aob(8), f in aob(8)) {
        prop_assert_eq!(Aob::mux_of(&Aob::ones(8), &t, &f), t.clone());
        prop_assert_eq!(Aob::mux_of(&Aob::zeros(8), &t, &f), f.clone());
        prop_assert_eq!(Aob::mux_of(&s, &t, &t), t.clone());
    }

    #[test]
    fn hadamard_fast_equals_reference(ways in 0u32..=13, k in 0u32..16) {
        prop_assert_eq!(Aob::hadamard(ways, k), Aob::hadamard_reference(ways, k));
    }

    #[test]
    fn hamming_is_metric(a in aob(8), b in aob(8), c in aob(8)) {
        prop_assert_eq!(a.hamming(&b), b.hamming(&a));
        prop_assert_eq!(a.hamming(&a), 0);
        prop_assert!(a.hamming(&c) <= a.hamming(&b) + b.hamming(&c));
    }
}
