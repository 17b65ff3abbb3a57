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
//!   until first used, and runs a cheap **shadow probe** on every gate,
//!   beside the strip kernels: every register carries a 64-bit
//!   fingerprint, every gate derives an operation fingerprint from its
//!   operands' fingerprints, and a capped set of seen fingerprints
//!   predicts what an op cache's hit rate *would have been*.
//! * When a 128-gate window's predicted hit rate crosses the promotion
//!   threshold, the file moves the registers the program has used into an
//!   [`InternedFile`] (the rest stay at the zero chunk), drops the probe,
//!   and delegates from then on — now with real memoized kernels.
//!   Promotion is one-way: a promoted file's only per-gate work of its own
//!   is counting the gate.
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
}

/// Gates per decision window.
const WINDOW: u64 = 128;
/// Predicted hit rate (per window) that triggers promotion to interned.
const PROMOTE_RATIO: f64 = 0.5;
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

/// The starting state: explicit vectors plus the shadow probe that
/// decides promotion.
#[derive(Debug, Clone)]
struct Probing {
    file: EagerFile,
    /// What each register holds, symbolically.
    fp: Vec<u64>,
    /// Direct-mapped seen-fingerprint table (0 = empty slot).
    seen: Vec<u64>,
    window_gates: u64,
    window_hits: u64,
}

/// The representation an [`AdaptiveFile`] delegates to.
#[derive(Debug, Clone)]
enum Inner {
    /// Eager and probing, until promotion.
    Eager(Box<Probing>),
    /// The promoted interning file.
    Interned(InternedFile),
    /// A caller-supplied file ([`AdaptiveFile::pinned`]).
    Fixed(Box<dyn AobStorage>),
}

/// Adaptive register file. See the module docs for the policy.
#[derive(Debug, Clone)]
pub struct AdaptiveFile {
    inner: Inner,
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
            inner: Inner::Eager(Box::new(Probing::new(ways, constant_bank))),
            stats: AdaptiveStats::default(),
            warm,
        }
    }

    /// Wrap an existing file under the `adaptive` backend name without any
    /// promotion machinery — used when the payoff representation is fixed
    /// externally (sparse-re past `HW_MAX_WAYS`).
    pub fn pinned(inner: Box<dyn AobStorage>) -> Self {
        AdaptiveFile {
            inner: Inner::Fixed(inner),
            stats: AdaptiveStats::default(),
            warm: None,
        }
    }

    /// True while the file is delegating to an interning representation
    /// (or to the file [`AdaptiveFile::pinned`] wraps).
    pub fn is_promoted(&self) -> bool {
        !matches!(self.inner, Inner::Eager(_))
    }

    fn file(&self) -> &dyn AobStorage {
        match &self.inner {
            Inner::Eager(p) => &p.file,
            Inner::Interned(f) => f,
            Inner::Fixed(f) => f.as_ref(),
        }
    }

    fn file_mut(&mut self) -> &mut dyn AobStorage {
        match &mut self.inner {
            Inner::Eager(p) => &mut p.file,
            Inner::Interned(f) => f,
            Inner::Fixed(f) => f.as_mut(),
        }
    }

    /// Intern each register the eager file has used, once; the others
    /// stay at the store's zero chunk. The probe goes with the eager file.
    fn promote(&mut self) {
        let Inner::Eager(from) = &mut self.inner else {
            return;
        };
        let mut to = InternedFile::warmed(from.file.ways(), false, self.warm);
        for (r, v) in from.file.take_written() {
            to.set_owned(r, v);
        }
        to.reset_stats();
        self.inner = Inner::Interned(to);
        self.stats.promotions += 1;
        telem::PROMOTIONS.inc();
    }
}

impl Probing {
    fn new(ways: u32, constant_bank: bool) -> Self {
        let mut fp = vec![fingerprint_const(ConstKind::Zeros); REG_COUNT];
        if constant_bank {
            fp[1] = fingerprint_const(ConstKind::Ones);
            for k in 0..ways {
                fp[(2 + k) as usize] = fingerprint_const(ConstKind::Hadamard(k));
            }
        }
        Probing {
            file: EagerFile::new(ways, constant_bank),
            fp,
            seen: vec![0; PROBE_SLOTS],
            window_gates: 0,
            window_hits: 0,
        }
    }

    /// Feed one gate to the probe, before it runs. True when the gate
    /// closes a window whose predicted hit rate says promote.
    fn observe(&mut self, act: GateAction, stats: &mut AdaptiveStats) -> bool {
        stats.probed_gates += 1;
        self.window_gates += 1;
        let hit = match self.action_fingerprint(act) {
            Some(key) => {
                let slot = &mut self.seen[key as usize & (PROBE_SLOTS - 1)];
                let hit = *slot == key;
                *slot = key;
                hit
            }
            // swap: no kernel work either way, count as a would-be hit.
            None => true,
        };
        if hit {
            stats.probe_hits += 1;
            self.window_hits += 1;
        }
        self.update_fingerprint(act);
        if self.window_gates < WINDOW {
            return false;
        }
        let ratio = self.window_hits as f64 / self.window_gates as f64;
        telem::PROBED.add(self.window_gates);
        telem::PROBE_HITS.add(self.window_hits);
        self.window_gates = 0;
        self.window_hits = 0;
        ratio >= PROMOTE_RATIO
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
        self.file().ways()
    }

    fn read(&self, r: usize) -> Aob {
        self.file().read(r)
    }

    fn set(&mut self, r: usize, v: &Aob) {
        if let Inner::Eager(p) = &mut self.inner {
            p.fp[r] = fingerprint_value(v);
        }
        self.file_mut().set(r, v);
    }

    fn apply_action(&mut self, act: GateAction, meter: bool) -> WriteDelta {
        self.gate_run(&[act], meter)
    }

    fn gate_run(&mut self, actions: &[GateAction], meter: bool) -> WriteDelta {
        self.stats.gates += actions.len() as u64;
        if let Inner::Eager(p) = &mut self.inner {
            // Probing stops at the gate that decides promotion; the whole
            // run then goes to the promoted file.
            if actions.iter().any(|&a| p.observe(a, &mut self.stats)) {
                self.promote();
            }
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
    fn promotion_is_one_way() {
        let mut f = AdaptiveFile::new(8, false);
        hot_loop(&mut f, 400);
        assert!(f.is_promoted());
        let probed = f.adaptive_stats().unwrap().probed_gates;
        // Every xor now misses the op cache: `@1` gets a fresh nonzero
        // value each time, and `@10` holds H(1), so no algebraic shortcut
        // answers it either.
        for i in 1..=1000u64 {
            f.set(1, &Aob::from_fn(8, |e| e < 10 && (i >> e) & 1 == 1));
            f.apply_action(GateAction::Bin(GateOp::Xor, 3, 1, 10), false);
        }
        assert!(f.is_promoted());
        let st = f.adaptive_stats().unwrap();
        assert_eq!((st.promotions, st.demotions), (1, 0), "{st:?}");
        assert_eq!(st.probed_gates, probed, "a promoted file no longer probes");
    }

    #[test]
    fn fresh_value_workload_stays_eager() {
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
        assert_eq!(st.probed_gates, st.gates, "an eager file probes every gate");
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
