//! The `adaptive` register file, the default one: eager until interning
//! provably pays.
//!
//! The benchmark ledger's per-backend replay rows are the motivation:
//! hash-consing wins about 5x when a workload repeats gates over repeated
//! values (`gate-reuse`), and *loses* about 3x when every result is fresh
//! (`factor221`: straight-line arithmetic pays content-hash + probe
//! overhead for nothing). Which regime a program is
//! in is a runtime property, so [`AdaptiveFile`] measures instead of
//! guessing:
//!
//! * It starts as a plain [`EagerFile`], whose registers hold no words
//!   until first used, and runs a cheap **shadow probe** from the first
//!   gate on, beside the vectorized kernels: every register carries a
//!   64-bit fingerprint, every gate derives an operation fingerprint from
//!   its operands' fingerprints, and a capped set of seen fingerprints
//!   predicts what an op cache's hit rate *would have been*.
//! * When a 128-gate window's predicted hit rate crosses the promotion
//!   threshold, the file moves the registers the program has used into an
//!   [`InternedFile`] (the rest stay at the zero chunk) and delegates from
//!   then on — now with real memoized kernels.
//! * While interned, the real `InternStats` are watched per window; if the
//!   hit rate collapses the file demotes back to eager (hysteresis: only
//!   after a dwell period, and after two demotions it pins eager so a
//!   phase-oscillating program cannot thrash).
//! * Workloads that never look repetitive stop paying for the probe too:
//!   after a few cold windows the probe **settles** into pure delegation
//!   and only re-arms for one window after a long holdoff.
//!
//! Past the hardware's capability bound
//! ([`HW_MAX_WAYS`](crate::storage::HW_MAX_WAYS) ways) an explicit
//! `InternedFile` is the wrong promotion target (chunks get huge);
//! [`AdaptiveFile::pinned`] wraps a caller-supplied inner file (the qat
//! registry passes the pbp sparse-re backend) and becomes pure delegation
//! under the `adaptive` name.
//!
//! Promotion decisions are a pure function of the executed gate sequence,
//! so replays are deterministic — pinned by the corpus-replay suite.

use crate::storage::{
    AdaptiveStats, AobStorage, ConstKind, EagerFile, GateAction, InternedFile, PackedStats,
    StorageBackend, WriteDelta, REG_COUNT,
};
use crate::{Aob, ChunkStore, GateOp, InternStats};

/// Probe and decision counters. The file's gate count is the coprocessor's
/// `qat.backend.adaptive.gates`; the exact per-file count is
/// [`AdaptiveStats::gates`].
mod telem {
    use tangled_telemetry::Counter;

    pub static PROBED: Counter = Counter::new("qat.backend.adaptive.probed_gates");
    pub static PROBE_HITS: Counter = Counter::new("qat.backend.adaptive.probe_hits");
    pub static PROMOTIONS: Counter = Counter::new("qat.backend.adaptive.promotions");
    pub static DEMOTIONS: Counter = Counter::new("qat.backend.adaptive.demotions");
}

/// Gates per decision window.
const WINDOW: u64 = 128;
/// Predicted hit rate (per window) that triggers promotion to interned.
const PROMOTE_RATIO: f64 = 0.5;
/// Real hit rate (per window) below which an interned file demotes.
const DEMOTE_RATIO: f64 = 0.25;
/// Windows a promotion must survive before demotion is considered.
const DEMOTE_DWELL: u32 = 2;
/// Consecutive sub-threshold windows before the probe settles.
const SETTLE_AFTER_COLD: u32 = 4;
/// Gates of pure delegation between settled-probe re-arms.
const REPROBE_HOLDOFF: u64 = 4096;
/// Demotions after which the file pins eager for good.
const MAX_DEMOTIONS: u64 = 2;
/// Slots in the shadow probe's direct-mapped seen-fingerprint table. A
/// collision merely overwrites a prediction, and repetition is judged per
/// 128-gate window, so a small table suffices — small enough (8 KiB) to
/// sit in L1 beside the gate kernels' operand words instead of evicting
/// them.
const PROBE_SLOTS: usize = 1 << 10;

#[inline]
fn mix(mut x: u64) -> u64 {
    // splitmix64 finalizer: cheap, well-distributed.
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[inline]
fn mix2(a: u64, b: u64) -> u64 {
    mix(a ^ b.rotate_left(23).wrapping_mul(0x9e3779b97f4a7c15))
}

fn fingerprint_value(v: &Aob) -> u64 {
    let mut h = 0xcbf29ce484222325u64 ^ v.ways() as u64;
    for &w in v.words() {
        h = mix2(h, w);
    }
    h
}

fn fingerprint_const(kind: ConstKind) -> u64 {
    match kind {
        ConstKind::Zeros => mix(1),
        ConstKind::Ones => mix(2),
        ConstKind::Hadamard(k) => mix(0x100 + k as u64),
    }
}

/// What the probe is currently doing while the file is eager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Probe {
    /// Counting would-be hits this window.
    Active,
    /// Settled: pure delegation for `0..REPROBE_HOLDOFF` more gates.
    Holdoff(u64),
}

/// The representation an [`AdaptiveFile`] delegates to.
#[derive(Debug, Clone)]
enum Inner {
    /// Explicit vectors: the starting state, and the state after a
    /// demotion.
    Eager(Box<EagerFile>),
    /// The promoted interning file.
    Interned(InternedFile),
    /// A caller-supplied file ([`AdaptiveFile::pinned`]).
    Fixed(Box<dyn AobStorage>),
}

/// Adaptive register file. See the module docs for the policy.
#[derive(Debug, Clone)]
pub struct AdaptiveFile {
    inner: Inner,
    ways: u32,
    /// Pure delegation: never probe, never switch (beyond-`HW_MAX_WAYS`
    /// wrapper, or pinned eager after [`MAX_DEMOTIONS`]).
    pinned: bool,
    fp: Vec<u64>,
    /// Direct-mapped seen-fingerprint table (0 = empty slot).
    seen: Vec<u64>,
    probe: Probe,
    window_gates: u64,
    window_hits: u64,
    cold_windows: u32,
    /// Windows survived since the last promotion (demotion hysteresis).
    dwell: u32,
    /// Intern counters at the start of the current interned window.
    window_base: InternStats,
    stats: AdaptiveStats,
    /// Warm snapshot to promote into, when one is registered.
    warm: Option<crate::WarmStoreId>,
}

impl AdaptiveFile {
    /// An adaptive file that starts eager and may promote to an
    /// [`InternedFile`](crate::InternedFile). Intended for
    /// `ways <= HW_MAX_WAYS`; past that, build the inner representation
    /// yourself and use
    /// [`AdaptiveFile::pinned`].
    pub fn new(ways: u32, constant_bank: bool) -> Self {
        Self::with_warm(ways, constant_bank, None)
    }

    /// Like [`AdaptiveFile::new`], but when the file later promotes it
    /// migrates into an [`InternedFile`](crate::InternedFile) warmed from
    /// the given snapshot handle — a promoted adaptive file in a serve
    /// worker then starts with the snapshot's op cache instead of cold.
    pub fn with_warm(ways: u32, constant_bank: bool, warm: Option<crate::WarmStoreId>) -> Self {
        AdaptiveFile {
            inner: Inner::Eager(Box::new(EagerFile::new(ways, constant_bank))),
            ways,
            pinned: false,
            fp: Self::bank_fingerprints(ways, constant_bank),
            seen: vec![0; PROBE_SLOTS],
            probe: Probe::Active,
            window_gates: 0,
            window_hits: 0,
            cold_windows: 0,
            dwell: 0,
            window_base: InternStats::default(),
            stats: AdaptiveStats::default(),
            warm,
        }
    }

    /// Wrap an existing file under the `adaptive` backend name without any
    /// promotion machinery — used when the payoff representation is fixed
    /// externally (sparse-re past `HW_MAX_WAYS`).
    pub fn pinned(inner: Box<dyn AobStorage>) -> Self {
        let ways = inner.ways();
        AdaptiveFile {
            inner: Inner::Fixed(inner),
            ways,
            pinned: true,
            fp: vec![0; REG_COUNT],
            seen: Vec::new(),
            probe: Probe::Holdoff(0),
            window_gates: 0,
            window_hits: 0,
            cold_windows: 0,
            dwell: 0,
            window_base: InternStats::default(),
            stats: AdaptiveStats::default(),
            warm: None,
        }
    }

    fn bank_fingerprints(ways: u32, constant_bank: bool) -> Vec<u64> {
        let mut fp = vec![fingerprint_const(ConstKind::Zeros); REG_COUNT];
        if constant_bank {
            fp[1] = fingerprint_const(ConstKind::Ones);
            for k in 0..ways {
                fp[(2 + k) as usize] = fingerprint_const(ConstKind::Hadamard(k));
            }
        }
        fp
    }

    /// True while the file is delegating to an interning representation
    /// (or to the file [`AdaptiveFile::pinned`] wraps).
    pub fn is_promoted(&self) -> bool {
        !matches!(self.inner, Inner::Eager(_))
    }

    fn file(&self) -> &dyn AobStorage {
        match &self.inner {
            Inner::Eager(f) => f.as_ref(),
            Inner::Interned(f) => f,
            Inner::Fixed(f) => f.as_ref(),
        }
    }

    fn file_mut(&mut self) -> &mut dyn AobStorage {
        match &mut self.inner {
            Inner::Eager(f) => f.as_mut(),
            Inner::Interned(f) => f,
            Inner::Fixed(f) => f.as_mut(),
        }
    }

    /// Intern each register the eager file has used, once; the others
    /// stay at the store's zero chunk.
    fn promote(&mut self) {
        let mut to = InternedFile::warmed(self.ways, false, self.warm);
        if let Inner::Eager(from) = &mut self.inner {
            for (r, v) in from.take_written() {
                to.set_owned(r, v);
            }
        }
        to.reset_stats();
        self.inner = Inner::Interned(to);
        self.dwell = 0;
        self.window_base = self.file().intern_stats().unwrap_or_default();
        self.seen.fill(0);
        self.stats.promotions += 1;
        telem::PROMOTIONS.inc();
    }

    /// Copy each nonzero register back into a fresh eager file.
    fn demote(&mut self) {
        let mut to = Box::new(EagerFile::new(self.ways, false));
        if let Inner::Interned(from) = &self.inner {
            for (r, v) in from.nonzero() {
                to.set(r, v);
            }
        }
        self.inner = Inner::Eager(to);
        self.stats.demotions += 1;
        telem::DEMOTIONS.inc();
        if self.stats.demotions >= MAX_DEMOTIONS {
            // Thrashing guard: this workload oscillates; stop paying for
            // probes and migrations and stay eager.
            self.pinned = true;
        } else {
            self.probe = Probe::Holdoff(0);
        }
        self.seen.fill(0);
    }

    /// Close an eager-mode probe window and decide.
    fn eager_window_end(&mut self) {
        let ratio = self.window_hits as f64 / self.window_gates.max(1) as f64;
        telem::PROBED.add(self.window_gates);
        telem::PROBE_HITS.add(self.window_hits);
        self.window_gates = 0;
        self.window_hits = 0;
        if ratio >= PROMOTE_RATIO {
            self.promote();
            return;
        }
        self.cold_windows += 1;
        if self.cold_windows >= SETTLE_AFTER_COLD {
            self.cold_windows = 0;
            self.probe = Probe::Holdoff(0);
            self.seen.fill(0);
        }
    }

    /// Close an interned-mode window and decide on demotion.
    fn interned_window_end(&mut self) {
        self.window_gates = 0;
        self.dwell = self.dwell.saturating_add(1);
        let now = self.file().intern_stats().unwrap_or_default();
        let hits = now.hits.saturating_sub(self.window_base.hits);
        let lookups = now.lookups().saturating_sub(self.window_base.lookups());
        self.window_base = now;
        if self.dwell >= DEMOTE_DWELL
            && lookups > 0
            && (hits as f64 / lookups as f64) < DEMOTE_RATIO
        {
            self.demote();
        }
    }

    /// Observe one gate: update fingerprints, feed the probe, and run the
    /// window state machine. Called before the action is delegated.
    fn observe(&mut self, act: GateAction) {
        self.stats.gates += 1;
        if self.pinned {
            return;
        }
        if self.is_promoted() {
            self.window_gates += 1;
            if self.window_gates >= WINDOW {
                self.interned_window_end();
            }
            return;
        }
        match self.probe {
            Probe::Holdoff(n) => {
                // Pure delegation — not even fingerprint upkeep, so the
                // settled state costs one branch and a counter. Register
                // fingerprints go stale here; that is fine for the
                // predictor, because a re-armed window only looks for
                // *repetition*, and a repetitive phase maps identical
                // symbolic inputs to identical fingerprints whatever the
                // (stale) root labels are.
                if n + 1 >= REPROBE_HOLDOFF {
                    self.probe = Probe::Active;
                    self.window_gates = 0;
                    self.window_hits = 0;
                } else {
                    self.probe = Probe::Holdoff(n + 1);
                }
                return;
            }
            Probe::Active => {}
        }
        let key = self.action_fingerprint(act);
        self.stats.probed_gates += 1;
        self.window_gates += 1;
        if let Some(key) = key {
            let slot = &mut self.seen[key as usize & (PROBE_SLOTS - 1)];
            if *slot == key {
                self.stats.probe_hits += 1;
                self.window_hits += 1;
            } else {
                *slot = key;
            }
        } else {
            // swap: no kernel work either way, count as a would-be hit.
            self.stats.probe_hits += 1;
            self.window_hits += 1;
        }
        self.update_fingerprint(act);
        if self.window_gates >= WINDOW {
            self.eager_window_end();
        }
    }

    /// The op-cache key an interned file would probe for this action, as a
    /// fingerprint over operand fingerprints. `None` for swap, which no
    /// backend computes anything for.
    fn action_fingerprint(&self, act: GateAction) -> Option<u64> {
        let f = &self.fp;
        Some(match act {
            GateAction::Const(_, k) => mix2(0x10, fingerprint_const(k)),
            GateAction::Not(r) => mix2(0x20, f[r as usize]),
            GateAction::Bin(op, _, b, c) => {
                let tag = match op {
                    GateOp::And => 0x30,
                    GateOp::Or => 0x31,
                    GateOp::Xor => 0x32,
                };
                let (x, y) = commute(f[b as usize], f[c as usize]);
                mix2(mix2(tag, x), y)
            }
            GateAction::Ccnot(a, b, c) => {
                let (x, y) = commute(f[b as usize], f[c as usize]);
                mix2(mix2(mix2(0x40, f[a as usize]), x), y)
            }
            GateAction::Swap(..) => return None,
            GateAction::Cswap(a, b, c) => {
                mix2(mix2(mix2(0x50, f[c as usize]), f[a as usize]), f[b as usize])
            }
        })
    }

    /// Track what each destination register now holds, symbolically.
    fn update_fingerprint(&mut self, act: GateAction) {
        let f = &mut self.fp;
        match act {
            GateAction::Const(r, k) => f[r as usize] = fingerprint_const(k),
            GateAction::Not(r) => f[r as usize] = mix2(0x21, f[r as usize]),
            GateAction::Bin(op, a, b, c) => {
                let tag = match op {
                    GateOp::And => 0x33,
                    GateOp::Or => 0x34,
                    GateOp::Xor => 0x35,
                };
                let (x, y) = commute(f[b as usize], f[c as usize]);
                f[a as usize] = mix2(mix2(tag, x), y);
            }
            GateAction::Ccnot(a, b, c) => {
                let (x, y) = commute(f[b as usize], f[c as usize]);
                f[a as usize] = mix2(mix2(mix2(0x41, f[a as usize]), x), y);
            }
            GateAction::Swap(a, b) => f.swap(a as usize, b as usize),
            GateAction::Cswap(a, b, c) => {
                let (fa, fb, fc) = (f[a as usize], f[b as usize], f[c as usize]);
                f[a as usize] = mix2(mix2(mix2(0x51, fc), fb), fa);
                f[b as usize] = mix2(mix2(mix2(0x51, fc), fa), fb);
            }
        }
    }
}

/// Canonical order for commutative operand fingerprints.
#[inline]
fn commute(a: u64, b: u64) -> (u64, u64) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl AobStorage for AdaptiveFile {
    fn backend(&self) -> StorageBackend {
        StorageBackend::Adaptive
    }

    fn ways(&self) -> u32 {
        self.ways
    }

    fn read(&self, r: usize) -> Aob {
        self.file().read(r)
    }

    fn set(&mut self, r: usize, v: &Aob) {
        self.fp[r] = fingerprint_value(v);
        self.file_mut().set(r, v);
    }

    fn apply_action(&mut self, act: GateAction, meter: bool) -> WriteDelta {
        self.observe(act);
        self.file_mut().apply_action(act, meter)
    }

    fn gate_run(&mut self, actions: &[GateAction], meter: bool) -> WriteDelta {
        let n = actions.len() as u64;
        if self.pinned {
            // Pure delegation: account for the whole run in one step.
            self.stats.gates += n;
            return self.file_mut().gate_run(actions, meter);
        }
        if !self.is_promoted() {
            if let Probe::Holdoff(h) = self.probe {
                if h + n < REPROBE_HOLDOFF {
                    // The whole run lands inside the holdoff: bulk-advance
                    // the counters and skip the per-gate observe loop.
                    self.probe = Probe::Holdoff(h + n);
                    self.stats.gates += n;
                    return self.file_mut().gate_run(actions, meter);
                }
            }
        }
        for &a in actions {
            self.observe(a);
        }
        self.file_mut().gate_run(actions, meter)
    }

    fn wants_fusion(&self) -> bool {
        // Fused runs help in every mode: batched dispatch while eager,
        // the sequence cache once promoted.
        true
    }

    fn meas(&self, r: usize, e: u64) -> bool {
        self.file().meas(r, e)
    }

    fn next(&self, r: usize, d: u64) -> Option<u64> {
        self.file().next(r, d)
    }

    fn pop_after(&self, r: usize, d: u64) -> u64 {
        self.file().pop_after(r, d)
    }

    fn intern_stats(&self) -> Option<InternStats> {
        self.file().intern_stats()
    }

    fn chunk_store(&self) -> Option<&ChunkStore> {
        self.file().chunk_store()
    }

    fn packed_stats(&self) -> Option<PackedStats> {
        self.file().packed_stats()
    }

    fn materializations(&self) -> u64 {
        self.file().materializations()
    }

    fn adaptive_stats(&self) -> Option<AdaptiveStats> {
        Some(self.stats)
    }

    fn reset_stats(&mut self) {
        self.file_mut().reset_stats();
    }

    fn clone_box(&self) -> Box<dyn AobStorage> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hot two-register loop: the same xor/and pair over the same
    /// values, which an op cache answers from the second iteration on.
    fn hot_loop(f: &mut dyn AobStorage, iters: usize) {
        f.apply_action(GateAction::Const(10, ConstKind::Hadamard(1)), false);
        f.apply_action(GateAction::Const(11, ConstKind::Hadamard(3)), false);
        for _ in 0..iters {
            f.apply_action(GateAction::Bin(GateOp::Xor, 12, 10, 11), false);
            f.apply_action(GateAction::Bin(GateOp::And, 13, 10, 11), false);
        }
    }

    #[test]
    fn repetitive_workload_promotes() {
        let mut f = AdaptiveFile::new(8, false);
        hot_loop(&mut f, 400);
        assert!(f.is_promoted(), "{:?}", f.stats);
        let st = f.adaptive_stats().unwrap();
        assert_eq!(st.promotions, 1);
        assert!(st.probe_hits > 0);
        assert!(f.intern_stats().is_some(), "promoted file exposes intern stats");
    }

    #[test]
    fn fresh_value_workload_stays_eager_and_settles() {
        let mut f = AdaptiveFile::new(8, false);
        // A not/swap-free chain that never repeats an operand pair: each
        // xor feeds the next, so fingerprints are all fresh.
        f.apply_action(GateAction::Const(1, ConstKind::Ones), false);
        f.apply_action(GateAction::Const(2, ConstKind::Hadamard(2)), false);
        for _ in 0..2000 {
            f.apply_action(GateAction::Bin(GateOp::Xor, 1, 1, 2), false);
            f.apply_action(GateAction::Ccnot(2, 1, 2), false);
        }
        assert!(!f.is_promoted());
        let st = f.adaptive_stats().unwrap();
        assert_eq!(st.promotions, 0);
        assert!(
            st.probed_gates < st.gates,
            "probe settled into pure delegation: {st:?}"
        );
    }

    #[test]
    fn promotion_preserves_register_values() {
        let mut a = AdaptiveFile::new(8, false);
        let mut e = EagerFile::new(8, false);
        hot_loop(&mut a, 400);
        hot_loop(&mut e, 400);
        assert!(a.is_promoted());
        for r in 0..REG_COUNT {
            assert_eq!(a.read(r), e.read(r), "@{r}");
        }
    }

    #[test]
    fn pinned_file_never_switches() {
        let mut f = AdaptiveFile::pinned(Box::new(EagerFile::new(8, false)));
        hot_loop(&mut f, 400);
        assert!(f.adaptive_stats().unwrap().promotions == 0);
        assert_eq!(f.backend(), StorageBackend::Adaptive);
    }

    #[test]
    fn decisions_are_deterministic() {
        let run = || {
            let mut f = AdaptiveFile::new(8, false);
            hot_loop(&mut f, 400);
            let st = f.adaptive_stats().unwrap();
            (st.promotions, st.demotions, st.probe_hits, st.probed_gates, st.gates)
        };
        assert_eq!(run(), run());
    }
}
