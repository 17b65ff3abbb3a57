//! Property tests: pint arithmetic on superpositions agrees with plain
//! u64 arithmetic in *every* entanglement channel — the strongest possible
//! statement of the PBP model's correctness (each channel is a complete
//! classical computation). The word-op properties have one generic body,
//! run on the flat RE and on the nested trees, both at 10 ways.

use std::fmt::Debug;

use pbp::{PTree, Pbits, PbpContext, Pint, TreeCtx};
use proptest::prelude::*;

/// An engine whose pints can be read back channel by channel.
trait Oracle: Pbits<Error: Debug> {
    fn value_at(&self, p: &Pint<Self::Bit>, e: u64) -> u64;

    /// A predicate pbit's value in channel `e`.
    fn bit_at(&self, b: &Self::Bit, e: u64) -> bool {
        self.value_at(&Pint::from_bits(vec![b.clone()]), e) != 0
    }
}

impl Oracle for PbpContext {
    fn value_at(&self, p: &Pint, e: u64) -> u64 {
        self.pint_value_at(p, e)
    }
}

impl Oracle for TreeCtx {
    fn value_at(&self, p: &Pint<PTree>, e: u64) -> u64 {
        self.pint_value_at(p, e)
    }
}

type Outcome = Result<(), TestCaseError>;

fn add_matches<P: Oracle>(ctx: &mut P, wa: usize, wb: usize, ka: u64, kb: u64) -> Outcome {
    let (ka, kb) = (ka & ((1 << wa) - 1), kb & ((1 << wb) - 1));
    let a = ctx.pint_h_auto(wa);
    let b = ctx.pint_h_auto(wb);
    let ca = ctx.pint_mk(wa, ka);
    let cb = ctx.pint_mk(wb, kb);
    let sab = ctx.pint_add(&a, &b).unwrap();
    let sac = ctx.pint_add(&a, &cb).unwrap();
    let scc = ctx.pint_add(&ca, &cb).unwrap();
    for e in (0..1024u64).step_by(7) {
        let va = ctx.value_at(&a, e);
        let vb = ctx.value_at(&b, e);
        prop_assert_eq!(ctx.value_at(&sab, e), va + vb);
        prop_assert_eq!(ctx.value_at(&sac, e), va + kb);
        prop_assert_eq!(ctx.value_at(&scc, e), ka + kb);
    }
    Ok(())
}

fn mul_matches<P: Oracle>(ctx: &mut P, wa: usize, wb: usize) -> Outcome {
    let a = ctx.pint_h_auto(wa);
    let b = ctx.pint_h_auto(wb);
    let p = ctx.pint_mul(&a, &b).unwrap();
    for e in (0..1024u64).step_by(11) {
        let va = ctx.value_at(&a, e);
        let vb = ctx.value_at(&b, e);
        prop_assert_eq!(ctx.value_at(&p, e), va * vb);
    }
    Ok(())
}

fn sub_matches<P: Oracle>(ctx: &mut P, w: usize, k: u64) -> Outcome {
    let mask = (1u64 << w) - 1;
    let a = ctx.pint_h_auto(w);
    let c = ctx.pint_mk(w, k & mask);
    let d = ctx.pint_sub(&a, &c).unwrap();
    for e in (0..1024u64).step_by(13) {
        let va = ctx.value_at(&a, e);
        prop_assert_eq!(ctx.value_at(&d, e), va.wrapping_sub(k & mask) & mask);
    }
    Ok(())
}

fn predicates_match<P: Oracle>(ctx: &mut P, w: usize, k: u64) -> Outcome {
    let kk = k & ((1 << w) - 1);
    let a = ctx.pint_h_auto(w);
    let c = ctx.pint_mk(w, kk);
    let eq = ctx.pint_eq(&a, &c).unwrap();
    let ne = ctx.pint_ne(&a, &c).unwrap();
    let lt = ctx.pint_lt(&a, &c).unwrap();
    for e in (0..1024u64).step_by(9) {
        let va = ctx.value_at(&a, e);
        prop_assert_eq!(ctx.bit_at(&eq, e), va == kk);
        prop_assert_eq!(ctx.bit_at(&ne, e), va != kk);
        prop_assert_eq!(ctx.bit_at(&lt, e), va < kk);
    }
    Ok(())
}

fn bitwise_matches<P: Oracle>(ctx: &mut P, w: usize) -> Outcome {
    let a = ctx.pint_h_auto(w);
    let b = ctx.pint_h_auto(w);
    let and = ctx.pint_and(&a, &b).unwrap();
    let xor = ctx.pint_xor(&a, &b).unwrap();
    let not = ctx.pint_not(&a);
    let mask = (1u64 << w) - 1;
    for e in (0..1024u64).step_by(17) {
        let va = ctx.value_at(&a, e);
        let vb = ctx.value_at(&b, e);
        prop_assert_eq!(ctx.value_at(&and, e), va & vb);
        prop_assert_eq!(ctx.value_at(&xor, e), va ^ vb);
        prop_assert_eq!(ctx.value_at(&not, e), !va & mask);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn add_matches_u64(wa in 1usize..5, wb in 1usize..4, ka in 0u64..16, kb in 0u64..16) {
        add_matches(&mut PbpContext::new(10), wa, wb, ka, kb)?;
        add_matches(&mut TreeCtx::new(10).unwrap(), wa, wb, ka, kb)?;
    }

    #[test]
    fn mul_matches_u64(wa in 1usize..4, wb in 1usize..4) {
        mul_matches(&mut PbpContext::new(10), wa, wb)?;
        mul_matches(&mut TreeCtx::new(10).unwrap(), wa, wb)?;
    }

    #[test]
    fn sub_matches_wrapping_u64(w in 2usize..5, k in 0u64..32) {
        sub_matches(&mut PbpContext::new(10), w, k)?;
        sub_matches(&mut TreeCtx::new(10).unwrap(), w, k)?;
    }

    #[test]
    fn predicates_match_u64(w in 1usize..5, k in 0u64..32) {
        predicates_match(&mut PbpContext::new(10), w, k)?;
        predicates_match(&mut TreeCtx::new(10).unwrap(), w, k)?;
    }

    #[test]
    fn bitwise_matches_u64(w in 1usize..5) {
        bitwise_matches(&mut PbpContext::new(10), w)?;
        bitwise_matches(&mut TreeCtx::new(10).unwrap(), w)?;
    }

    #[test]
    fn measure_counts_match_brute_force(w in 1usize..4, k in 1u64..8) {
        let mut ctx = PbpContext::new(8);
        let a = ctx.pint_h_auto(w);
        let c = ctx.pint_mk(3, k);
        let Ok(p) = ctx.pint_mul(&a, &c);
        let measured = ctx.pint_measure(&p);
        // Brute-force histogram over all channels.
        let mut expect = std::collections::BTreeMap::new();
        for e in 0..256u64 {
            *expect.entry(ctx.pint_value_at(&p, e)).or_insert(0u64) += 1;
        }
        prop_assert_eq!(measured.len(), expect.len());
        for mv in measured {
            prop_assert_eq!(expect[&mv.value], mv.count);
        }
    }
}
