//! Property tests for the packed-RLE register file: random Table 3 gate
//! programs — every gate, including the aliased `cswap`/`ccnot` corners —
//! must leave the [`SparseReFile`] bit-identical to the [`EagerFile`]
//! oracle at every supported hardware degree, and the measurement family
//! must agree without ever materializing a register.

use pbp::SparseReFile;
use pbp_aob::storage::{AobStorage, ConstKind, EagerFile, GateAction, REG_COUNT};
use pbp_aob::GateOp;
use proptest::prelude::*;

const REGS: u8 = 10;

/// One Table 3 register-file operation, with register operands drawn from
/// a small window so aliasing (`a == b`, `a == b == c`) is common.
fn op() -> impl Strategy<Value = GateAction> {
    let r = 0u8..REGS;
    prop_oneof![
        (r.clone(), 0u8..20).prop_map(|(a, k)| {
            let kind = match k {
                0 => ConstKind::Zeros,
                1 => ConstKind::Ones,
                k => ConstKind::Hadamard((k - 2) as u32), // k >= ways: zeros
            };
            GateAction::Const(a, kind)
        }),
        r.clone().prop_map(GateAction::Not),
        (0u8..3, r.clone(), r.clone(), r.clone()).prop_map(|(o, a, b, c)| {
            let op = [GateOp::And, GateOp::Or, GateOp::Xor][o as usize];
            GateAction::Bin(op, a, b, c)
        }),
        (r.clone(), r.clone(), r.clone()).prop_map(|(a, b, c)| GateAction::Ccnot(a, b, c)),
        (r.clone(), r.clone()).prop_map(|(a, b)| GateAction::Swap(a, b)),
        (r.clone(), r.clone(), r).prop_map(|(a, b, c)| GateAction::Cswap(a, b, c)),
    ]
}

fn apply(f: &mut dyn AobStorage, ops: &[GateAction]) {
    for &act in ops {
        f.apply_action(act, false);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Packed sparse-re ≡ eager over random gate programs at every
    /// hardware degree, including sub-chunk universes.
    #[test]
    fn packed_sparse_re_equals_eager(
        ways in prop_oneof![Just(1u32), Just(3), Just(5), Just(6), Just(8), Just(12), Just(16)],
        bank in any::<bool>(),
        ops in proptest::collection::vec(op(), 1..60),
    ) {
        let mut eager = EagerFile::new(ways, bank);
        let mut sparse = SparseReFile::try_new(ways, bank).unwrap();
        apply(&mut eager, &ops);
        apply(&mut sparse, &ops);

        // Architectural state is bit-identical...
        for r in 0..REG_COUNT {
            prop_assert_eq!(eager.read(r), sparse.read(r), "ways {} @{}", ways, r);
        }
        // ...and so is the measurement family, straight off the packed
        // runs (reads above are the only materializations).
        sparse.reset_stats();
        let n = 1u64 << ways;
        for r in 0..REGS as usize {
            for e in [0, 1, n / 2, n - 1] {
                prop_assert_eq!(eager.meas(r, e), sparse.meas(r, e), "@{} meas {}", r, e);
                prop_assert_eq!(eager.next(r, e), sparse.next(r, e), "@{} next {}", r, e);
                prop_assert_eq!(
                    eager.pop_after(r, e), sparse.pop_after(r, e), "@{} pop {}", r, e
                );
            }
        }
        prop_assert_eq!(sparse.materializations(), 0);

        // The packed stats surface never reports a loss to the flat-run
        // baseline at these degrees (every run fits one command payload).
        let stats = sparse.packed_stats().unwrap();
        prop_assert!(stats.flat_words >= stats.packed_words, "{:?}", stats);
    }

    /// Packing is deterministic: replaying the same program into a fresh
    /// file reproduces the exact same packed footprint.
    #[test]
    fn packed_encoding_is_replayable(
        ways in prop_oneof![Just(5u32), Just(8), Just(16)],
        ops in proptest::collection::vec(op(), 1..40),
    ) {
        let run = || {
            let mut f = SparseReFile::try_new(ways, true).unwrap();
            apply(&mut f, &ops);
            f
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(a.packed_stats(), b.packed_stats());
        for r in 0..REG_COUNT {
            prop_assert_eq!(a.re(r), b.re(r), "@{} diverged", r);
        }
    }
}
