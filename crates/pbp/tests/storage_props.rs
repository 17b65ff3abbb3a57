//! Property tests for the register files: random Table 3 gate programs —
//! every gate, including the aliased `cswap`/`ccnot` corners — must leave
//! every backend bit-identical to an independent reference model at every
//! supported hardware degree, and the measurement family must agree
//! without ever materializing a register.

use pbp::SparseReFile;
use pbp_aob::storage::{AobStorage, ConstKind, GateAction, StorageBackend, REG_COUNT};
use pbp_aob::{AdaptiveFile, Aob, EagerFile, GateOp, InternedFile};
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

/// The reference register file: a plain `Vec<Aob>` driven by `Aob`'s value
/// operations. It shares no code with any backend's gate kernels, so every
/// backend, eager included, is checked against it.
struct Model(Vec<Aob>);

impl Model {
    fn new(ways: u32, bank: bool) -> Self {
        let mut regs = vec![Aob::zeros(ways); REG_COUNT];
        if bank {
            for (r, c) in Aob::constant_bank(ways).into_iter().enumerate() {
                regs[r] = c;
            }
        }
        Model(regs)
    }

    fn run(mut self, ops: &[GateAction]) -> Self {
        for &act in ops {
            self.apply(act);
        }
        self
    }

    fn apply(&mut self, act: GateAction) {
        let regs = &mut self.0;
        let ways = regs[0].ways();
        let v = |r: u8| regs[r as usize].clone();
        match act {
            GateAction::Const(a, kind) => {
                regs[a as usize] = match kind {
                    ConstKind::Zeros => Aob::zeros(ways),
                    ConstKind::Ones => Aob::ones(ways),
                    ConstKind::Hadamard(k) => Aob::hadamard(ways, k),
                }
            }
            GateAction::Not(a) => regs[a as usize] = v(a).not_of(),
            GateAction::Bin(op, a, b, c) => {
                regs[a as usize] = match op {
                    GateOp::And => Aob::and_of(&v(b), &v(c)),
                    GateOp::Or => Aob::or_of(&v(b), &v(c)),
                    GateOp::Xor => Aob::xor_of(&v(b), &v(c)),
                }
            }
            GateAction::Ccnot(a, b, c) => {
                let mut t = v(a);
                t.ccnot_assign(&v(b), &v(c));
                regs[a as usize] = t;
            }
            GateAction::Swap(a, b) => {
                let (mut x, mut y) = (v(a), v(b));
                Aob::swap(&mut x, &mut y);
                (regs[a as usize], regs[b as usize]) = (x, y);
            }
            GateAction::Cswap(a, b, c) => {
                let (mut x, mut y) = (v(a), v(b));
                Aob::cswap(&mut x, &mut y, &v(c));
                (regs[a as usize], regs[b as usize]) = (x, y);
            }
        }
    }
}

fn build(backend: StorageBackend, ways: u32, bank: bool) -> Box<dyn AobStorage> {
    match backend {
        StorageBackend::Eager => Box::new(EagerFile::new(ways, bank)),
        StorageBackend::Interned => Box::new(InternedFile::new(ways, bank)),
        StorageBackend::SparseRe => Box::new(SparseReFile::try_new(ways, bank).unwrap()),
        StorageBackend::Adaptive => Box::new(AdaptiveFile::new(ways, bank)),
    }
}

/// Run `ops` one [`AobStorage::apply_action`] at a time (`run == 0`), or as
/// [`AobStorage::gate_run`]s of `run` gates.
fn drive(f: &mut dyn AobStorage, ops: &[GateAction], run: usize) {
    if run == 0 {
        apply(f, ops);
    } else {
        for chunk in ops.chunks(run) {
            f.gate_run(chunk, false);
        }
    }
}

/// Registers whose measurement family is compared with the model's.
const MEASURED: usize = 20;

/// `f` holds the model's values: every register through `read`, and the
/// low ones through `meas`/`next`/`pop_after`, which must not materialize.
fn agrees(f: &mut dyn AobStorage, model: &Model) -> Result<(), TestCaseError> {
    let b = f.backend();
    for (r, want) in model.0.iter().enumerate() {
        prop_assert_eq!(&f.read(r), want, "{} @{}", b, r);
    }
    f.reset_stats();
    let n = 1u64 << f.ways();
    for (r, want) in model.0.iter().enumerate().take(MEASURED) {
        for e in [0, 1, n / 2, n - 1] {
            prop_assert_eq!(f.meas(r, e), want.meas(e), "{} @{} meas {}", b, r, e);
            prop_assert_eq!(f.next(r, e), want.next(e), "{} @{} next {}", b, r, e);
            prop_assert_eq!(f.pop_after(r, e), want.pop_after(e), "{} @{} pop {}", b, r, e);
        }
    }
    prop_assert_eq!(f.materializations(), 0, "{} materialized a register", b);
    // A packed backend never reports a loss to the flat-run baseline at
    // these degrees (every run fits one command payload).
    if let Some(stats) = f.packed_stats() {
        prop_assert!(stats.flat_words >= stats.packed_words, "{:?}", stats);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every backend ≡ the reference model over random gate programs at
    /// every hardware degree, gate by gate and in fused runs. Programs
    /// over ten registers read many a register they never wrote.
    #[test]
    fn backends_equal_the_reference_model(
        ways in 1u32..=16,
        bank in any::<bool>(),
        run in 0usize..9,
        ops in proptest::collection::vec(op(), 1..60),
    ) {
        let model = Model::new(ways, bank).run(&ops);
        for backend in StorageBackend::ALL {
            let mut f = build(backend, ways, bank);
            drive(&mut *f, &ops, run);
            agrees(&mut *f, &model)?;
        }
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

/// `gate-reuse`'s 7-gate block, 40 times over eight Hadamard inputs: long
/// and repetitive enough that the adaptive file promotes to interned
/// part-way through, exactly once, without any value noticing.
#[test]
fn repetitive_program_promotes_once() {
    use GateAction::{Bin, Ccnot, Cswap, Not};
    let mut ops: Vec<GateAction> =
        (0..8).map(|k| GateAction::Const(2 + k as u8, ConstKind::Hadamard(k))).collect();
    let block = [
        Bin(GateOp::And, 10, 2, 3),
        Bin(GateOp::Xor, 11, 4, 5),
        Bin(GateOp::Or, 12, 6, 7),
        Bin(GateOp::Xor, 13, 13, 8),
        Ccnot(14, 2, 5),
        Not(12),
        Cswap(15, 16, 2),
    ];
    for _ in 0..40 {
        ops.extend(block);
    }
    for bank in [false, true] {
        let model = Model::new(16, bank).run(&ops);
        for run in [0, block.len()] {
            for backend in StorageBackend::ALL {
                let mut f = build(backend, 16, bank);
                drive(&mut *f, &ops, run);
                agrees(&mut *f, &model).unwrap();
            }
            let mut f = AdaptiveFile::new(16, bank);
            drive(&mut f, &ops, run);
            assert_eq!(f.adaptive_stats().unwrap().promotions, 1, "bank {bank} run {run}");
            assert!(f.is_promoted());
        }
    }
}
