//! `SparseReFile` — a Qat register file of run-length-compressed pbits.
//!
//! This is the §3.3 scaling story moved *inside* the coprocessor: registers
//! are [`Re`] symbols over a shared [`PbpContext`], and every Table 3 gate
//! executes through the RE rewriting kernels (`O(runs)` per gate) instead
//! of the `2^WAYS`-bit word loops. Structured states — the constant bank,
//! Hadamard initializers, and anything a gate DAG builds from them — keep
//! short packed periods, so the backend supports `ways` all the way to
//! [`SparseReFile::MAX_WAYS`] (32) without ever allocating a
//! multi-megabit vector, and down to 1 way on a padding-masked
//! single-chunk store.
//!
//! The measurement family (`meas` / `next` / `pop`) walks runs directly,
//! which is what keeps the hot path materialization-free;
//! [`pbp_aob::storage::AobStorage::read`] is the only method that expands a
//! register to an explicit [`Aob`], and it is counted both per instance
//! (`materializations`) and in the `qat.backend.sparse_re.materialize`
//! telemetry counter so tests and metrics can prove the gate loop never
//! took it.

use std::cell::Cell;

use pbp_aob::storage::{
    AobStorage, ConstKind, GateAction, PackedStats, StorageBackend, WriteDelta,
};
use pbp_aob::{Aob, ChunkStore, GateOp, InternStats, WaysError};
use tangled_telemetry::Counter;

use crate::{PbpContext, Re};

/// Full-vector expansions performed by the sparse backend (attributed to
/// the Qat backend namespace; see the module docs).
static MATERIALIZE: Counter = Counter::new("qat.backend.sparse_re.materialize");

/// Register file storing every Qat register as an RE-compressed symbol.
#[derive(Debug, Clone)]
pub struct SparseReFile {
    ctx: PbpContext,
    regs: Vec<Re>,
    /// `read()` calls — full `2^ways`-bit expansions — since the last
    /// `reset_stats`. `Cell` because architectural reads take `&self`.
    materializations: Cell<u64>,
}

impl SparseReFile {
    /// Smallest supported entanglement degree. Sub-chunk universes
    /// (`ways <` [`crate::CHUNK_WAYS`]) run on a padding-masked
    /// single-chunk store, so the floor is the PBP context's own.
    pub const MIN_WAYS: u32 = crate::MIN_UNIVERSE_WAYS;

    /// Largest supported entanglement degree. The packed-RLE periods keep
    /// structured states small well past the explicit backends'
    /// [`pbp_aob::HW_MAX_WAYS`]; 32 ways is where the §3.3 factoring demo
    /// is pinned by the conformance suite.
    pub const MAX_WAYS: u32 = 32;

    /// All registers zero, or preloaded with the §5 constant bank; a
    /// typed [`WaysError`] outside `MIN_WAYS..=MAX_WAYS`.
    pub fn try_new(ways: u32, constant_bank: bool) -> Result<Self, WaysError> {
        Self::try_new_warm(ways, constant_bank, None)
    }

    /// Like [`SparseReFile::try_new`], but adopting a registered warm
    /// snapshot for the context's sub-chunk symbol degree (snapshots of
    /// other degrees stay cold — the attach is degree-checked).
    pub fn try_new_warm(
        ways: u32,
        constant_bank: bool,
        warm: Option<pbp_aob::WarmStoreId>,
    ) -> Result<Self, WaysError> {
        WaysError::check(ways, Self::MIN_WAYS, Self::MAX_WAYS)?;
        let mut ctx = PbpContext::try_new_warm(ways, warm)?;
        let zero = ctx.constant(false);
        let mut regs = vec![zero; pbp_aob::storage::REG_COUNT];
        if constant_bank {
            regs[1] = ctx.constant(true);
            for k in 0..ways {
                regs[(2 + k) as usize] = ctx.hadamard(k);
            }
        }
        Ok(SparseReFile { ctx, regs, materializations: Cell::new(0) })
    }

    /// Panicking convenience wrapper around [`SparseReFile::try_new`].
    pub fn new(ways: u32, constant_bank: bool) -> Self {
        Self::try_new(ways, constant_bank)
            .unwrap_or_else(|e| panic!("sparse-re backend: {e}"))
    }

    /// Panicking convenience wrapper around [`SparseReFile::try_new_warm`].
    pub fn warmed(ways: u32, constant_bank: bool, warm: Option<pbp_aob::WarmStoreId>) -> Self {
        Self::try_new_warm(ways, constant_bank, warm)
            .unwrap_or_else(|e| panic!("sparse-re backend: {e}"))
    }

    /// The RE symbol currently held by register `r` (no materialization).
    pub fn re(&self, r: usize) -> &Re {
        &self.regs[r]
    }

    /// The context the register symbols live in.
    pub fn context(&self) -> &PbpContext {
        &self.ctx
    }

    fn delta(&self, old: &Re, new: &Re, meter: bool) -> WriteDelta {
        if !meter {
            return WriteDelta::default();
        }
        // O(runs): toggles via an XOR symbol, net delta via populations.
        // The XOR needs `&mut ctx`, but metering must not mutate shared
        // state observed by callers, so work on a context clone — metering
        // is opt-in and off on every hot path.
        let mut ctx = self.ctx.clone();
        let x = ctx.xor(old, new);
        WriteDelta {
            toggles: ctx.re_pop_all(&x),
            pop_delta: ctx.re_pop_all(new) as i64 - ctx.re_pop_all(old) as i64,
            writes: 1,
        }
    }

    fn commit(&mut self, r: usize, v: Re, meter: bool) -> WriteDelta {
        let d = self.delta(&self.regs[r], &v, meter);
        self.regs[r] = v;
        d
    }
}

impl AobStorage for SparseReFile {
    fn backend(&self) -> StorageBackend {
        StorageBackend::SparseRe
    }

    fn ways(&self) -> u32 {
        self.ctx.universe_ways()
    }

    fn read(&self, r: usize) -> Aob {
        self.materializations.set(self.materializations.get() + 1);
        MATERIALIZE.inc();
        self.ctx.to_aob(&self.regs[r])
    }

    fn set(&mut self, r: usize, v: &Aob) {
        self.regs[r] = self.ctx.from_aob(v);
    }

    fn apply_action(&mut self, act: GateAction, meter: bool) -> WriteDelta {
        match act {
            GateAction::Const(r, kind) => {
                let v = match kind {
                    ConstKind::Zeros => self.ctx.constant(false),
                    ConstKind::Ones => self.ctx.constant(true),
                    // hadamard() itself yields all-zeros for k >= ways.
                    ConstKind::Hadamard(k) => self.ctx.hadamard(k),
                };
                self.commit(r as usize, v, meter)
            }
            GateAction::Not(r) => {
                let r = r as usize;
                let v = self.ctx.not(&self.regs[r]);
                self.commit(r, v, meter)
            }
            GateAction::Bin(op, a, b, c) => {
                let (a, b, c) = (a as usize, b as usize, c as usize);
                let (x, y) = (&self.regs[b], &self.regs[c]);
                let v = match op {
                    GateOp::And => self.ctx.and(x, y),
                    GateOp::Or => self.ctx.or(x, y),
                    GateOp::Xor => self.ctx.xor(x, y),
                };
                self.commit(a, v, meter)
            }
            GateAction::Ccnot(a, b, c) => {
                let (a, b, c) = (a as usize, b as usize, c as usize);
                let bc = self.ctx.and(&self.regs[b], &self.regs[c]);
                let v = self.ctx.xor(&self.regs[a], &bc);
                self.commit(a, v, meter)
            }
            GateAction::Swap(a, b) => {
                let (a, b) = (a as usize, b as usize);
                let mut d = WriteDelta::default();
                if meter {
                    d.merge(self.delta(&self.regs[a], &self.regs[b], true));
                    d.merge(self.delta(&self.regs[b], &self.regs[a], true));
                }
                self.regs.swap(a, b);
                d
            }
            GateAction::Cswap(a, b, c) => {
                let (a, b, c) = (a as usize, b as usize, c as usize);
                let sel = self.regs[c].clone();
                let (va, vb) = (self.regs[a].clone(), self.regs[b].clone());
                let na = self.ctx.mux(&sel, &vb, &va);
                let nb = self.ctx.mux(&sel, &va, &vb);
                let mut d = self.commit(a, na, meter);
                d.merge(self.commit(b, nb, meter));
                d
            }
        }
    }

    fn meas(&self, r: usize, e: u64) -> bool {
        self.ctx.re_get(&self.regs[r], e)
    }

    fn next(&self, r: usize, d: u64) -> Option<u64> {
        self.ctx.re_next(&self.regs[r], d)
    }

    fn pop_after(&self, r: usize, d: u64) -> u64 {
        self.ctx.re_pop_after(&self.regs[r], d)
    }

    fn intern_stats(&self) -> Option<InternStats> {
        Some(self.ctx.intern_stats())
    }

    fn chunk_store(&self) -> Option<&ChunkStore> {
        None
    }

    fn packed_stats(&self) -> Option<PackedStats> {
        let mut s = PackedStats::default();
        for re in &self.regs {
            s.flat_words += re.flat_run_words() as u64;
            s.packed_words += re.packed_words() as u64;
        }
        Some(s)
    }

    fn materializations(&self) -> u64 {
        self.materializations.get()
    }

    fn reset_stats(&mut self) {
        self.materializations.set(0);
    }

    fn clone_box(&self) -> Box<dyn AobStorage> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbp_aob::storage::EagerFile;

    /// Exercise every gate once, in a fixed order, on the given file.
    fn drive(f: &mut dyn AobStorage) {
        for act in [
            GateAction::Const(0, ConstKind::Hadamard(0)),
            GateAction::Const(1, ConstKind::Hadamard(3)),
            GateAction::Const(2, ConstKind::Hadamard(7)),
            GateAction::Const(3, ConstKind::Ones),
            GateAction::Bin(GateOp::And, 4, 0, 1),
            GateAction::Bin(GateOp::Or, 5, 4, 2),
            GateAction::Bin(GateOp::Xor, 6, 5, 0),
            GateAction::Not(6),
            GateAction::Bin(GateOp::Xor, 4, 4, 5), // cnot @4,@5
            GateAction::Bin(GateOp::Xor, 4, 4, 4), // cnot @4,@4: clears
            GateAction::Ccnot(5, 6, 0),
            GateAction::Ccnot(5, 5, 5), // fully aliased
            GateAction::Swap(4, 5),
            GateAction::Cswap(5, 6, 1),
            GateAction::Cswap(2, 2, 0), // aliased pair
            GateAction::Const(3, ConstKind::Zeros),
            GateAction::Const(3, ConstKind::Hadamard(200)), // out of range: zeros
        ] {
            f.apply_action(act, false);
        }
    }

    #[test]
    fn sparse_re_matches_eager_at_ways_8() {
        let mut eager = EagerFile::new(8, false);
        let mut sparse = SparseReFile::new(8, false);
        drive(&mut eager);
        drive(&mut sparse);
        for r in 0..pbp_aob::storage::REG_COUNT {
            assert_eq!(eager.read(r), sparse.read(r), "@{r}");
        }
        // Measurement family agrees without materializing.
        sparse.reset_stats();
        for r in 0..8 {
            for e in [0u64, 1, 37, 255] {
                assert_eq!(eager.meas(r, e), sparse.meas(r, e), "@{r} meas {e}");
                assert_eq!(eager.next(r, e), sparse.next(r, e), "@{r} next {e}");
                assert_eq!(eager.pop_after(r, e), sparse.pop_after(r, e), "@{r} pop {e}");
            }
        }
        assert_eq!(sparse.materializations(), 0);
    }

    #[test]
    fn metering_matches_eager_at_ways_8() {
        let mut eager = EagerFile::new(8, false);
        let mut sparse = SparseReFile::new(8, false);
        for f in [&mut eager as &mut dyn AobStorage, &mut sparse] {
            let d1 = f.apply_action(GateAction::Const(0, ConstKind::Ones), true);
            assert_eq!(d1, WriteDelta { toggles: 256, pop_delta: 256, writes: 1 });
            let d2 = f.apply_action(GateAction::Not(0), true);
            assert_eq!(d2, WriteDelta { toggles: 256, pop_delta: -256, writes: 1 });
        }
    }

    #[test]
    fn sub_chunk_ways_match_eager() {
        // ways < CHUNK_WAYS runs on the padding-masked single-chunk
        // store; the full gate sweep must agree with the eager oracle and
        // no padding bit may leak into reads or measurements.
        for ways in [1u32, 3, 5] {
            let mut eager = EagerFile::new(ways, true);
            let mut sparse = SparseReFile::new(ways, true);
            drive(&mut eager);
            drive(&mut sparse);
            for r in 0..pbp_aob::storage::REG_COUNT {
                assert_eq!(eager.read(r), sparse.read(r), "ways {ways} @{r}");
            }
            sparse.reset_stats();
            let n = 1u64 << ways;
            for r in 0..8 {
                for e in 0..n {
                    assert_eq!(eager.meas(r, e), sparse.meas(r, e), "ways {ways} @{r} meas {e}");
                    assert_eq!(eager.next(r, e), sparse.next(r, e), "ways {ways} @{r} next {e}");
                    assert_eq!(
                        eager.pop_after(r, e),
                        sparse.pop_after(r, e),
                        "ways {ways} @{r} pop {e}"
                    );
                }
            }
            assert_eq!(sparse.materializations(), 0);
        }
    }

    #[test]
    fn out_of_range_ways_is_a_typed_error() {
        assert_eq!(
            SparseReFile::try_new(0, false).unwrap_err(),
            WaysError { ways: 0, min: SparseReFile::MIN_WAYS, max: SparseReFile::MAX_WAYS }
        );
        assert_eq!(
            SparseReFile::try_new(33, true).unwrap_err(),
            WaysError { ways: 33, min: 1, max: 32 }
        );
        assert!(SparseReFile::try_new(32, true).is_ok());
    }

    #[test]
    #[should_panic(expected = "ways 40 outside supported range")]
    fn out_of_range_ways_panics_through_new() {
        SparseReFile::new(40, false);
    }

    #[test]
    fn ways_32_structured_states_stay_compressed() {
        let mut f = SparseReFile::new(32, true); // constant bank preloaded
        f.apply_action(GateAction::Bin(GateOp::And, 100, 2 + 5, 2 + 31), false); // H(5) & H(31)
        f.apply_action(GateAction::Bin(GateOp::Xor, 101, 100, 2 + 30), false);
        f.apply_action(GateAction::Ccnot(101, 100, 2 + 0), false);
        f.apply_action(GateAction::Not(101), false);

        let pop = f.pop_after(100, 0);
        assert_eq!(pop + f.meas(100, 0) as u64, 1u64 << 30, "quarter of 2^32 ones");
        assert!(!f.meas(100, (1 << 31) - 1));
        assert!(f.meas(100, (1u64 << 31) | (1 << 5)));
        assert_eq!(f.next(100, 0), Some((1u64 << 31) | (1 << 5)));

        // Nothing materialized, every register footprint is tiny relative
        // to the 2^32-bit universe, and the packed stats surface is live.
        assert_eq!(f.materializations(), 0);
        for r in [100usize, 101] {
            assert!(f.re(r).storage_runs() < 64, "@{r} runs {}", f.re(r).storage_runs());
        }
        let stats = f.packed_stats().unwrap();
        assert!(stats.packed_words > 0);
        assert!(stats.ratio() >= 1.0, "packing must not lose to flat runs");
    }

    #[test]
    fn ways_20_structured_states_stay_compressed() {
        let mut f = SparseReFile::new(20, true); // constant bank preloaded
        // Work over the bank without touching reserved registers.
        f.apply_action(GateAction::Bin(GateOp::And, 100, 2 + 5, 2 + 19), false); // H(5) & H(19)
        f.apply_action(GateAction::Bin(GateOp::Xor, 101, 100, 2 + 18), false);
        f.apply_action(GateAction::Ccnot(101, 100, 2 + 0), false);
        f.apply_action(GateAction::Not(101), false);

        // Analytic spot checks: H(19) & H(5) has a 1 exactly where both
        // bits of the channel index are set.
        let pop = f.pop_after(100, 0);
        assert_eq!(pop + f.meas(100, 0) as u64, 1u64 << 18, "quarter of 2^20 ones");
        assert!(!f.meas(100, (1 << 19) - 1)); // bit 19 clear
        assert!(f.meas(100, (1 << 19) | (1 << 5)));
        assert_eq!(f.next(100, 0), Some((1 << 19) | (1 << 5)));

        // The whole computation stayed in RE form: nothing materialized,
        // and every register's period is tiny compared to 2^20 bits.
        assert_eq!(f.materializations(), 0);
        for r in [100usize, 101] {
            assert!(f.re(r).storage_runs() < 64, "@{r} runs {}", f.re(r).storage_runs());
        }
    }
}
