//! E12: the RE-compressed representation is semantically identical to the
//! explicit AoB substrate — property-tested over random values and random
//! operation sequences.

use proptest::prelude::*;
use tangled_qat::aob::Aob;
use tangled_qat::pbp::{Pbits, PbpContext};

/// Strategy: a random AoB of the given degree.
pub fn aob(ways: u32) -> impl Strategy<Value = Aob> {
    proptest::collection::vec(any::<u64>(), Aob::words_for(ways)).prop_map(move |ws| {
        let mut v = Aob::zeros(ways);
        v.words_mut().copy_from_slice(&ws);
        v.normalize();
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip(a in aob(10)) {
        let mut ctx = PbpContext::new(10);
        let re = ctx.from_aob(&a);
        prop_assert_eq!(ctx.to_aob(&re), a);
    }

    #[test]
    fn binary_ops_agree(a in aob(9), b in aob(9)) {
        let mut ctx = PbpContext::new(9);
        let (ra, rb) = (ctx.from_aob(&a), ctx.from_aob(&b));
        let and = ctx.and(&ra, &rb);
        prop_assert_eq!(ctx.to_aob(&and), Aob::and_of(&a, &b));
        let or = ctx.or(&ra, &rb);
        prop_assert_eq!(ctx.to_aob(&or), Aob::or_of(&a, &b));
        let xor = ctx.xor(&ra, &rb);
        prop_assert_eq!(ctx.to_aob(&xor), Aob::xor_of(&a, &b));
        let not = ctx.not(&ra);
        prop_assert_eq!(ctx.to_aob(&not), a.not_of());
    }

    #[test]
    fn measurements_agree(a in aob(9), d in 0u64..512) {
        let mut ctx = PbpContext::new(9);
        let re = ctx.from_aob(&a);
        prop_assert_eq!(ctx.re_get(&re, d), a.get(d));
        prop_assert_eq!(ctx.re_next(&re, d), a.next(d));
        prop_assert_eq!(ctx.re_pop_after(&re, d), a.pop_after(d));
        prop_assert_eq!(ctx.re_pop_all(&re), a.pop_all());
        prop_assert_eq!(ctx.re_any(&re), a.any());
        prop_assert_eq!(ctx.re_all(&re), a.all());
    }

    #[test]
    fn enumerate_agree(a in aob(8)) {
        let mut ctx = PbpContext::new(8);
        let re = ctx.from_aob(&a);
        prop_assert_eq!(ctx.re_enumerate_ones(&re, 10_000), a.enumerate_ones());
    }

    #[test]
    fn random_op_sequences_agree(
        seed_ops in proptest::collection::vec((0u8..4, 0usize..6, 0usize..6), 1..25)
    ) {
        // Build parallel universes: 6 slots evolved by the same random ops
        // on both representations.
        let mut ctx = PbpContext::new(10);
        let mut res: Vec<_> = (0..6).map(|k| ctx.hadamard(k as u32)).collect();
        let mut aobs: Vec<_> = (0..6).map(|k| Aob::hadamard(10, k as u32)).collect();
        for (op, i, j) in seed_ops {
            match op {
                0 => {
                    res[i] = ctx.and(&res[i].clone(), &res[j]);
                    aobs[i] = Aob::and_of(&aobs[i], &aobs[j]);
                }
                1 => {
                    res[i] = ctx.or(&res[i].clone(), &res[j]);
                    aobs[i] = Aob::or_of(&aobs[i], &aobs[j]);
                }
                2 => {
                    res[i] = ctx.xor(&res[i].clone(), &res[j]);
                    aobs[i] = Aob::xor_of(&aobs[i], &aobs[j]);
                }
                _ => {
                    res[i] = ctx.not(&res[i].clone());
                    aobs[i] = aobs[i].not_of();
                }
            }
        }
        for (re, a) in res.iter().zip(&aobs) {
            prop_assert_eq!(ctx.to_aob(re), a.clone());
        }
    }

    #[test]
    fn compression_never_loses_information(a in aob(8), b in aob(8)) {
        // xor(x, x) must be exactly zero even through compression.
        let mut ctx = PbpContext::new(8);
        let ra = ctx.from_aob(&a);
        let z = ctx.xor(&ra, &ra);
        prop_assert!(!ctx.re_any(&z));
        // (a ^ b) ^ b == a
        let rb = ctx.from_aob(&b);
        let x = ctx.xor(&ra, &rb);
        let back = ctx.xor(&x, &rb);
        prop_assert!(ctx.re_eq(&back, &ra));
    }
}

#[test]
fn structured_values_compress_far_below_raw_size() {
    // The §1.2 claim quantified: the factoring predicate for 221 at
    // 16-way occupies ~65,536 bits explicitly, but only a handful of
    // runs compressed.
    let mut ctx = PbpContext::new(16);
    let n = ctx.pint_mk(8, 221);
    let b = ctx.pint_h_auto(8);
    let c = ctx.pint_h_auto(8);
    let Ok(d) = ctx.pint_mul(&b, &c);
    let Ok(e) = ctx.pint_eq(&d, &n);
    let explicit_bits = 65_536u64;
    let compressed_bits = (e.storage_runs() * 128) as u64; // ~16B/run
    assert!(
        compressed_bits * 4 < explicit_bits,
        "compressed {compressed_bits} vs explicit {explicit_bits}"
    );
    // And the compressed form still measures correctly.
    assert_eq!(ctx.re_pop_all(&e), 4); // exactly 4 factor-pair channels
}

mod three_way {
    use super::aob;
    use proptest::prelude::*;
    use tangled_qat::aob::Aob;
    use tangled_qat::pbp::{Pbits, PbpContext, TreeCtx};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// All three representations — explicit AoB, flat RE, nested tree —
        /// agree on random operation sequences.
        #[test]
        fn aob_re_tree_agree(
            ops in proptest::collection::vec((0u8..4, 0usize..5, 0usize..5), 1..20)
        ) {
            let ways = 9u32;
            let mut ctx = PbpContext::new(ways);
            let mut tc = TreeCtx::new(ways).unwrap();
            let mut aobs: Vec<Aob> = (0..5).map(|k| Aob::hadamard(ways, k)).collect();
            let mut res: Vec<_> = (0..5).map(|k| ctx.hadamard(k)).collect();
            let mut trees: Vec<_> = (0..5).map(|k| tc.hadamard(k)).collect();
            for (op, i, j) in ops {
                match op {
                    0 => {
                        aobs[i] = Aob::and_of(&aobs[i], &aobs[j]);
                        res[i] = ctx.and(&res[i].clone(), &res[j]);
                        trees[i] = tc.and(&trees[i].clone(), &trees[j]).unwrap();
                    }
                    1 => {
                        aobs[i] = Aob::or_of(&aobs[i], &aobs[j]);
                        res[i] = ctx.or(&res[i].clone(), &res[j]);
                        trees[i] = tc.or(&trees[i].clone(), &trees[j]).unwrap();
                    }
                    2 => {
                        aobs[i] = Aob::xor_of(&aobs[i], &aobs[j]);
                        res[i] = ctx.xor(&res[i].clone(), &res[j]);
                        trees[i] = tc.xor(&trees[i].clone(), &trees[j]).unwrap();
                    }
                    _ => {
                        aobs[i] = aobs[i].not_of();
                        res[i] = ctx.not(&res[i].clone());
                        trees[i] = tc.not(&trees[i].clone());
                    }
                }
            }
            for k in 0..5 {
                prop_assert_eq!(ctx.to_aob(&res[k]), aobs[k].clone(), "flat RE slot {}", k);
                prop_assert_eq!(tc.to_aob(&trees[k]), aobs[k].clone(), "tree slot {}", k);
                prop_assert_eq!(tc.pop_all(&trees[k]), aobs[k].pop_all());
                for d in [0u64, 1, 63, 64, 255, 511] {
                    prop_assert_eq!(tc.next(&trees[k], d), aobs[k].next(d));
                    prop_assert_eq!(ctx.re_next(&res[k], d), aobs[k].next(d));
                }
            }
        }

        #[test]
        fn tree_roundtrips_random_aob(a in aob(10)) {
            let mut tc = TreeCtx::new(10).unwrap();
            let t = tc.from_aob(&a);
            prop_assert_eq!(tc.to_aob(&t), a.clone());
            prop_assert_eq!(tc.pop_all(&t), a.pop_all());
            for d in (0..1024u64).step_by(97) {
                prop_assert_eq!(tc.get(&t, d), a.get(d));
                prop_assert_eq!(tc.next(&t, d), a.next(d));
            }
        }
    }
}
