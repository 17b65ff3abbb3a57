//! Pluggable register-file storage: the [`AobStorage`] trait.
//!
//! The Qat coprocessor's architectural contract is 256 registers of
//! `2^WAYS`-bit AoB values, but *how* those values are represented is an
//! implementation choice the paper itself makes twice: the hardware holds
//! explicit bit-vectors, while §3.3's software PBP layer run-length
//! compresses them to reach beyond WAYS. This module abstracts that choice
//! behind a trait so the coprocessor, the differential oracle, and the
//! benches can swap representations without touching gate semantics:
//!
//! * [`EagerFile`] — every register owns an explicit [`Aob`]; gates run
//!   the word kernels directly.
//! * [`InternedFile`] — registers are [`ChunkId`]s into a hash-consed
//!   [`ChunkStore`]; gates are memoized and writes are copy-on-write.
//! * `SparseReFile` (in the `pbp` crate, which owns the RE machinery) —
//!   registers are run-length-compressed `Re` symbols; gates rewrite runs,
//!   so structured states at `ways > 16` never materialize.
//!
//! Every gate enters a backend as a reified [`GateAction`] — one at a time
//! through [`AobStorage::apply_action`], or a straight-line run through
//! [`AobStorage::gate_run`] — naming register *indices* and mutating in
//! place; the measurement family ([`AobStorage::meas`] / [`AobStorage::next`] /
//! [`AobStorage::pop_after`]) answers without materializing, which is what
//! lets the compressed backend scale. [`AobStorage::read`] is the
//! architectural escape hatch: it materializes an explicit [`Aob`] and is
//! counted by [`AobStorage::materializations`] so tests can assert the hot
//! path never takes it.
//!
//! Every mutating method returns a [`WriteDelta`] when asked to meter, so
//! the coprocessor's adiabatic-energy accounting works identically across
//! backends without snapshotting values itself.

use crate::{Aob, ChunkId, ChunkStore, GateOp, InternStats, ID_ONE, ID_ZERO};

/// Number of architectural Qat registers every backend must provide.
pub const REG_COUNT: usize = 256;

/// Entanglement degree of the paper's physical register file: explicit
/// (eager or hash-consed) backends materialize `2^ways`-bit vectors and
/// cap out here. Compressed backends publish their own `MAX_WAYS`; every
/// ways bound in the backend registry, the difftest oracle selection, and
/// the adaptive backend's sparse-re pinning derives from these per-backend
/// capability constants rather than repeating literals.
pub const HW_MAX_WAYS: u32 = 16;

/// A requested entanglement degree falls outside what a backend (or the
/// PBP context) supports. The typed replacement for the panics that used
/// to guard ways bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaysError {
    /// The degree that was requested.
    pub ways: u32,
    /// Smallest supported degree.
    pub min: u32,
    /// Largest supported degree.
    pub max: u32,
}

impl std::fmt::Display for WaysError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ways {} outside supported range {}..={}", self.ways, self.min, self.max)
    }
}

impl std::error::Error for WaysError {}

impl WaysError {
    /// `Ok(ways)` when `min..=max` contains `ways`, the typed error
    /// otherwise.
    pub fn check(ways: u32, min: u32, max: u32) -> Result<u32, WaysError> {
        if (min..=max).contains(&ways) {
            Ok(ways)
        } else {
            Err(WaysError { ways, min, max })
        }
    }
}

/// Footprint of a packed-RLE backend's register periods, summed over all
/// registers. `None` from [`AobStorage::packed_stats`] means the backend
/// does not use the packed encoding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackedStats {
    /// `u32` words a flat `Vec<Run>` encoding of the same periods would
    /// occupy (the pre-packing baseline).
    pub flat_words: u64,
    /// `u32` command words the packed hybrid encoding occupies.
    pub packed_words: u64,
    /// Always 0: the packed encoding has no back-reference commands.
    /// Kept because the benchmark package still reads it.
    pub repeats: u64,
}

impl PackedStats {
    /// Compression win over the flat-run baseline (>= 1.0 means packing
    /// never lost to the baseline).
    pub fn ratio(&self) -> f64 {
        self.flat_words as f64 / self.packed_words.max(1) as f64
    }
}

/// Names one of the register-file representations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageBackend {
    /// Explicit `2^WAYS`-bit vectors, word-loop gate kernels.
    Eager,
    /// Hash-consed chunk ids with memoized gate kernels; the only backend
    /// whose chunk store warm snapshots save and load.
    Interned,
    /// Run-length-compressed RE symbols; supports `ways` beyond the
    /// hardware's 16 on structured states.
    SparseRe,
    /// Starts eager per register and promotes to an interning inner file
    /// when dedup telemetry says the overhead pays for itself (the
    /// default).
    Adaptive,
}

impl StorageBackend {
    /// Every backend, in registry order.
    pub const ALL: [StorageBackend; 4] = [
        StorageBackend::Eager,
        StorageBackend::Interned,
        StorageBackend::SparseRe,
        StorageBackend::Adaptive,
    ];

    /// Canonical CLI / registry name.
    pub fn name(self) -> &'static str {
        match self {
            StorageBackend::Eager => "eager",
            StorageBackend::Interned => "interned",
            StorageBackend::SparseRe => "sparse-re",
            StorageBackend::Adaptive => "adaptive",
        }
    }

    /// Parse a CLI spelling (`sparse_re` is accepted for `sparse-re`).
    pub fn parse(s: &str) -> Option<StorageBackend> {
        match s {
            "eager" => Some(StorageBackend::Eager),
            "interned" => Some(StorageBackend::Interned),
            "sparse-re" | "sparse_re" => Some(StorageBackend::SparseRe),
            "adaptive" => Some(StorageBackend::Adaptive),
            _ => None,
        }
    }
}

impl std::fmt::Display for StorageBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The constant an initializer instruction (`zero` / `one` / `had`) writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstKind {
    /// All channels 0.
    Zeros,
    /// All channels 1.
    Ones,
    /// `H(k)`: channel `e` holds bit `k` of `e` (all zeros when
    /// `k >= ways`, per the `Aob::hadamard` contract).
    Hadamard(u32),
}

/// Switching-energy accounting for the register writes of one operation.
///
/// `toggles` is the Hamming distance between old and new values summed over
/// every destination, `pop_delta` the net population change (swap-family
/// ops cancel here — §5's billiard-ball argument), `writes` the number of
/// destination registers. All zero when metering is off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteDelta {
    /// Bits that changed state across all destinations.
    pub toggles: u64,
    /// Net change in total population (ones count).
    pub pop_delta: i64,
    /// Destination registers written.
    pub writes: u64,
}

impl WriteDelta {
    /// Accumulate another op's delta into this one.
    pub fn merge(&mut self, other: WriteDelta) {
        self.toggles += other.toggles;
        self.pop_delta += other.pop_delta;
        self.writes += other.writes;
    }
}

/// One Table-3 register-file mutation, reified so a *run* of gates can be
/// handed to a backend in a single [`AobStorage::gate_run`] call. Register
/// indices are `u8` — the architectural file has exactly [`REG_COUNT`]
/// registers — so an action is a compact, hashable fusion-cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateAction {
    /// `zero` / `one` / `had @r`: write a constant into `r`.
    Const(u8, ConstKind),
    /// `not @r`: complement in place.
    Not(u8),
    /// `and`/`or`/`xor @a,@b,@c`: `a = b op c`.
    Bin(GateOp, u8, u8, u8),
    /// `ccnot @a,@b,@c`: `a ^= b & c`.
    Ccnot(u8, u8, u8),
    /// `swap @a,@b`.
    Swap(u8, u8),
    /// `cswap @a,@b,@c`: exchange `a`/`b` in the channels where `c` is set.
    Cswap(u8, u8, u8),
}

impl GateAction {
    /// Registers this action reads (before any destination is written).
    /// Returns a fixed buffer plus the live count.
    pub fn srcs(self) -> ([u8; 3], usize) {
        match self {
            GateAction::Const(..) => ([0; 3], 0),
            GateAction::Not(r) => ([r, 0, 0], 1),
            GateAction::Bin(_, _, b, c) => ([b, c, 0], 2),
            GateAction::Ccnot(a, b, c) => ([a, b, c], 3),
            GateAction::Swap(a, b) => ([a, b, 0], 2),
            GateAction::Cswap(a, b, c) => ([a, b, c], 3),
        }
    }

    /// Registers this action writes.
    pub fn dests(self) -> ([u8; 2], usize) {
        match self {
            GateAction::Const(r, _) | GateAction::Not(r) => ([r, 0], 1),
            GateAction::Bin(_, a, ..) | GateAction::Ccnot(a, ..) => ([a, 0], 1),
            GateAction::Swap(a, b) | GateAction::Cswap(a, b, _) => ([a, b], 2),
        }
    }
}

/// Promotion and probe counters of the `adaptive` backend.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveStats {
    /// Times the file switched from eager to its interning inner file
    /// (0 or 1: promotion is one-way).
    pub promotions: u64,
    /// Always 0: a promoted file never returns to eager. Kept because the
    /// benchmark package still reads it.
    pub demotions: u64,
    /// Gates the eager-mode shadow probe predicted would have hit an
    /// op cache.
    pub probe_hits: u64,
    /// Gates observed by the shadow probe while eager.
    pub probed_gates: u64,
    /// Total gate operations seen.
    pub gates: u64,
}

/// A Qat register file: [`REG_COUNT`] AoB values in some representation.
///
/// Gates mirror Table 3 semantics exactly, including register
/// aliasing (`and @2,@2,@3`, `cswap @5,@5,@1`, ...): operands are read
/// before any destination is written.
pub trait AobStorage: std::fmt::Debug + Send {
    /// Which representation this is.
    fn backend(&self) -> StorageBackend;

    /// Entanglement degree: registers are `2^ways`-bit values.
    fn ways(&self) -> u32;

    /// Materialize register `r` as an explicit bit-vector.
    ///
    /// Architectural escape hatch (debugger, state capture); counted by
    /// [`AobStorage::materializations`]. Compressed backends pay the full
    /// `2^ways`-bit cost here, so keep it off hot paths.
    fn read(&self, r: usize) -> Aob;

    /// Directly set register `r` (test/loader backdoor).
    fn set(&mut self, r: usize, v: &Aob);

    /// Execute a straight-line run of Table-3 gates ([`GateAction`]
    /// documents each one's semantics), bit-for-bit as if each ran alone
    /// in order. The trait's only mutating gate entry: the eager file runs
    /// the whole run through its strip kernels, the other files loop over
    /// their per-gate kernels (the interned file's memoized by its op
    /// cache). With `meter`, the delta sums every gate's writes.
    fn gate_run(&mut self, actions: &[GateAction], meter: bool) -> WriteDelta;

    /// Execute one gate: a run of one.
    fn apply_action(&mut self, act: GateAction, meter: bool) -> WriteDelta {
        self.gate_run(&[act], meter)
    }

    /// Whether handing this backend fused runs pays: one
    /// [`AobStorage::gate_run`] call and one accounting pass per run
    /// instead of per gate.
    fn wants_fusion(&self) -> bool {
        false
    }

    /// Promotion and probe counters, if this is the adaptive backend.
    fn adaptive_stats(&self) -> Option<AdaptiveStats> {
        None
    }

    /// `meas`: bit of register `r` at channel `e` (wrapped into range).
    fn meas(&self, r: usize, e: u64) -> bool;

    /// `next`: index of the first 1 strictly after channel `d`, `None` if
    /// no such channel exists. The ISA's in-band `0` sentinel is applied
    /// only at the GPR boundary by the Qat dispatcher.
    fn next(&self, r: usize, d: u64) -> Option<u64>;

    /// `pop`: count of 1s strictly after channel `d`.
    fn pop_after(&self, r: usize, d: u64) -> u64;

    /// Hash-cons cache counters, if this backend interns values.
    fn intern_stats(&self) -> Option<InternStats> {
        None
    }

    /// The shared chunk store, if this backend uses one.
    fn chunk_store(&self) -> Option<&ChunkStore> {
        None
    }

    /// Packed-period footprint, if this backend stores packed-RLE
    /// registers (the sparse-re backend does; explicit backends return
    /// `None`).
    fn packed_stats(&self) -> Option<PackedStats> {
        None
    }

    /// How many times [`AobStorage::read`] materialized a full vector.
    fn materializations(&self) -> u64 {
        0
    }

    /// Zero backend-internal statistics (cache counters, materializations).
    fn reset_stats(&mut self) {}

    /// Clone into a fresh boxed file (register files are snapshotable).
    fn clone_box(&self) -> Box<dyn AobStorage>;
}

impl Clone for Box<dyn AobStorage> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The delta of overwriting `old` with `new`.
pub(crate) fn meter_delta(old: &Aob, new: &Aob) -> WriteDelta {
    WriteDelta {
        toggles: old.hamming(new),
        pop_delta: new.pop_all() as i64 - old.pop_all() as i64,
        writes: 1,
    }
}

// ---------------------------------------------------------------------------
// Eager: explicit bit-vectors.
// ---------------------------------------------------------------------------

/// Register file where every register owns an explicit [`Aob`].
///
/// A register holds no words until a gate (or [`AobStorage::set`]) first
/// uses it; until then it reads as zeros, so building a file costs nothing
/// beyond the constant bank, and a program pays only for the registers it
/// names. Every gate, single or fused, metered or not, runs the same
/// in-place strip kernels ([`EagerFile::strip_step`]); a metered gate also
/// snapshots its destinations to report the delta.
#[derive(Debug, Clone)]
pub struct EagerFile {
    /// The registers in use, in first-use order.
    regs: Vec<Aob>,
    /// Where each architectural register lives in `regs`; `None` while
    /// it holds no words.
    slot: [Option<u8>; REG_COUNT],
    ways: u32,
}

impl EagerFile {
    /// Smallest entanglement degree this backend supports.
    pub const MIN_WAYS: u32 = 1;
    /// Largest entanglement degree this backend supports: explicit
    /// vectors are bounded by the physical file ([`HW_MAX_WAYS`]).
    pub const MAX_WAYS: u32 = HW_MAX_WAYS;

    /// All registers zero, or preloaded with the §5 constant bank.
    pub fn new(ways: u32, constant_bank: bool) -> Self {
        let mut f = EagerFile {
            regs: Vec::new(),
            slot: [None; REG_COUNT],
            ways,
        };
        if constant_bank {
            for (r, c) in Aob::constant_bank(ways).into_iter().enumerate() {
                f.put(r, c);
            }
        }
        f
    }

    /// Store `v` as register `r`'s value.
    fn put(&mut self, r: usize, v: Aob) {
        match self.slot[r] {
            Some(i) => self.regs[i as usize] = v,
            None => {
                // At most REG_COUNT registers are live, so `len` fits a u8.
                self.slot[r] = Some(self.regs.len() as u8);
                self.regs.push(v);
            }
        }
    }

    /// Register `r`'s value, `None` while it holds no words (reads as
    /// zeros).
    fn get(&self, r: usize) -> Option<&Aob> {
        self.slot[r].map(|i| &self.regs[i as usize])
    }

    /// Index into `regs` of a register [`EagerFile::materialize`] made
    /// live.
    fn at(&self, r: u8) -> usize {
        self.slot[r as usize].expect("gate operands are materialized first") as usize
    }

    /// Give every register `act` reads or writes its words, allocating
    /// zeros for the ones in first use.
    fn materialize(&mut self, act: GateAction) {
        let ((srcs, ns), (dsts, nd)) = (act.srcs(), act.dests());
        for &r in srcs[..ns].iter().chain(&dsts[..nd]) {
            if self.slot[r as usize].is_none() {
                self.put(r as usize, Aob::zeros(self.ways));
            }
        }
    }

    /// Move out every register that holds words, leaving the file all
    /// unwritten: what a promotion to another representation must carry.
    pub(crate) fn take_written(&mut self) -> impl Iterator<Item = (usize, Aob)> {
        let mut owner = [0usize; REG_COUNT];
        for (r, s) in self.slot.iter_mut().enumerate() {
            if let Some(i) = s.take() {
                owner[i as usize] = r;
            }
        }
        owner.into_iter().zip(std::mem::take(&mut self.regs))
    }

    /// Run `actions` in place over every word: materialize their
    /// registers, then apply all of them to one strip of words before
    /// moving to the next. Legal because every gate is word-element-wise
    /// (see [`EagerFile::strip_step`]); the payoff is that a register read
    /// by several gates of a run is pulled into cache once per run rather
    /// than once per gate.
    fn run_strips(&mut self, actions: &[GateAction]) {
        for &act in actions {
            self.materialize(act);
        }
        let words = Aob::words_for(self.ways);
        let mut lo = 0;
        while lo < words {
            let hi = (lo + STRIP_WORDS).min(words);
            for &act in actions {
                self.strip_step(act, lo, hi);
            }
            lo = hi;
        }
        if words == 1 {
            // Below 6 ways the one word has padding bits. `Const` and
            // `Not` may set them, and bitwise gates never carry them into
            // live channels, so clearing each destination once suffices.
            for act in actions {
                let (dsts, nd) = act.dests();
                for &r in &dsts[..nd] {
                    let i = self.at(r);
                    self.regs[i].normalize();
                }
            }
        }
    }

    /// Apply one action to word range `lo..hi` of its registers. Every
    /// Table-3 gate is word-element-wise — output word `i` depends only
    /// on input words `i` — which is what makes the blocked schedule of
    /// [`EagerFile::run_strips`] legal: applying the gates in order within
    /// each strip produces bit-identical results to applying each gate
    /// over the whole register file. The action's registers must be
    /// materialized.
    fn strip_step(&mut self, act: GateAction, lo: usize, hi: usize) {
        match act {
            GateAction::Const(r, k) => {
                let (ways, r) = (self.ways, self.at(r));
                let strip = &mut self.regs[r].words_mut()[lo..hi];
                for (i, w) in strip.iter_mut().enumerate() {
                    *w = const_word(k, ways, lo + i);
                }
            }
            GateAction::Not(r) => {
                let r = self.at(r);
                for w in &mut self.regs[r].words_mut()[lo..hi] {
                    *w = !*w;
                }
            }
            GateAction::Bin(op, a, b, c) => {
                let (a, b, c) = (self.at(a), self.at(b), self.at(c));
                match op {
                    GateOp::And => self.bin_strip(a, b, c, lo, hi, |p, q| p & q),
                    GateOp::Or => self.bin_strip(a, b, c, lo, hi, |p, q| p | q),
                    GateOp::Xor => self.bin_strip(a, b, c, lo, hi, |p, q| p ^ q),
                }
            }
            GateAction::Ccnot(a, b, c) => {
                let (a, b, c) = (self.at(a), self.at(b), self.at(c));
                let regs = &mut self.regs[..];
                if b == c {
                    // `a ^= b & b` = `a ^= b`; with `a == b` that zeroes.
                    if a == b {
                        for w in &mut regs[a].words_mut()[lo..hi] {
                            *w = 0;
                        }
                    } else {
                        let (av, bv) = pair_mut(regs, a, b);
                        let bw = &bv.words()[lo..hi];
                        for (w, &s) in av.words_mut()[lo..hi].iter_mut().zip(bw) {
                            *w ^= s;
                        }
                    }
                } else if a == b || a == c {
                    let other = if a == b { c } else { b };
                    let (av, ov) = pair_mut(regs, a, other);
                    let ow = &ov.words()[lo..hi];
                    for (w, &s) in av.words_mut()[lo..hi].iter_mut().zip(ow) {
                        *w ^= *w & s;
                    }
                } else {
                    let (av, bv, cv) = dest2(regs, a, b, c);
                    let (bw, cw) = (&bv.words()[lo..hi], &cv.words()[lo..hi]);
                    for ((w, &y), &z) in av.words_mut()[lo..hi].iter_mut().zip(bw).zip(cw) {
                        *w ^= y & z;
                    }
                }
            }
            GateAction::Swap(a, b) => {
                if a != b {
                    let (a, b) = (self.at(a), self.at(b));
                    let (av, bv) = pair_mut(&mut self.regs, a, b);
                    av.words_mut()[lo..hi].swap_with_slice(&mut bv.words_mut()[lo..hi]);
                }
            }
            GateAction::Cswap(a, b, c) => {
                if a == b {
                    // Swapping a register with itself in any channel
                    // subset is the identity.
                    return;
                }
                // The selector may alias either swap operand; a stack
                // copy of its strip makes every case uniform.
                let (a, b, c) = (self.at(a), self.at(b), self.at(c));
                let mut sel = [0u64; STRIP_WORDS];
                let n = hi - lo;
                sel[..n].copy_from_slice(&self.regs[c].words()[lo..hi]);
                let (av, bv) = pair_mut(&mut self.regs, a, b);
                let (aw, bw) = (&mut av.words_mut()[lo..hi], &mut bv.words_mut()[lo..hi]);
                for ((x, y), &s) in aw.iter_mut().zip(bw.iter_mut()).zip(&sel[..n]) {
                    let (ta, tb) = (*x, *y);
                    *x = (ta & !s) | (tb & s); // a' = mux(c, b, a)
                    *y = (tb & !s) | (ta & s); // b' = mux(c, a, b)
                }
            }
        }
    }

    /// Strip kernel for the two-source bitwise gates, peeling the operand
    /// alias cases so each loop body borrows disjoint registers.
    fn bin_strip(
        &mut self,
        a: usize,
        b: usize,
        c: usize,
        lo: usize,
        hi: usize,
        f: impl Fn(u64, u64) -> u64,
    ) {
        let regs = &mut self.regs[..];
        if a == b && a == c {
            for w in &mut regs[a].words_mut()[lo..hi] {
                *w = f(*w, *w);
            }
        } else if a == b || a == c {
            let other = if a == b { c } else { b };
            let (av, ov) = pair_mut(regs, a, other);
            let ow = &ov.words()[lo..hi];
            for (w, &s) in av.words_mut()[lo..hi].iter_mut().zip(ow) {
                // `f` is commutative (and/or/xor), so operand order is
                // immaterial in the folded case.
                *w = f(*w, s);
            }
        } else if b == c {
            let (av, bv) = pair_mut(regs, a, b);
            let bw = &bv.words()[lo..hi];
            for (w, &s) in av.words_mut()[lo..hi].iter_mut().zip(bw) {
                *w = f(s, s);
            }
        } else {
            let (av, bv, cv) = dest2(regs, a, b, c);
            let (bw, cw) = (&bv.words()[lo..hi], &cv.words()[lo..hi]);
            for ((w, &x), &y) in av.words_mut()[lo..hi].iter_mut().zip(bw).zip(cw) {
                *w = f(x, y);
            }
        }
    }
}

/// Words per strip of the blocked [`AobStorage::gate_run`] executor on
/// [`EagerFile`]: 2 KiB strips keep a whole run's touched-register strip
/// set cache-resident across every gate of the run, so a register reused
/// by several gates is streamed from memory once per run instead of once
/// per gate.
const STRIP_WORDS: usize = 256;

/// Disjoint mutable borrows of two distinct registers.
fn pair_mut(regs: &mut [Aob], i: usize, j: usize) -> (&mut Aob, &mut Aob) {
    debug_assert_ne!(i, j);
    if i < j {
        let (lo, hi) = regs.split_at_mut(j);
        (&mut lo[i], &mut hi[0])
    } else {
        let (lo, hi) = regs.split_at_mut(i);
        (&mut hi[0], &mut lo[j])
    }
}

/// Destination register mutably plus two sources shared; the sources must
/// be distinct from the destination (callers peel the aliased cases).
fn dest2(regs: &mut [Aob], d: usize, s1: usize, s2: usize) -> (&mut Aob, &Aob, &Aob) {
    debug_assert!(d != s1 && d != s2);
    let (lo, rest) = regs.split_at_mut(d);
    let (dv, hi) = rest.split_first_mut().expect("destination register in range");
    let lo: &[Aob] = lo;
    let hi: &[Aob] = hi;
    let s1v = if s1 < d { &lo[s1] } else { &hi[s1 - d - 1] };
    let s2v = if s2 < d { &lo[s2] } else { &hi[s2 - d - 1] };
    (dv, s1v, s2v)
}

/// The `i`-th word of a `ways`-way constant value. Below 6 ways the word's
/// padding bits may be set; [`EagerFile::run_strips`] clears them.
fn const_word(kind: ConstKind, ways: u32, i: usize) -> u64 {
    match kind {
        ConstKind::Zeros => 0,
        ConstKind::Ones => u64::MAX,
        ConstKind::Hadamard(k) if k >= ways => 0,
        ConstKind::Hadamard(k) if k < 6 => crate::hadamard::LANE[k as usize],
        ConstKind::Hadamard(k) => {
            if (i >> (k - 6)) & 1 == 1 {
                u64::MAX
            } else {
                0
            }
        }
    }
}

impl AobStorage for EagerFile {
    fn backend(&self) -> StorageBackend {
        StorageBackend::Eager
    }

    fn ways(&self) -> u32 {
        self.ways
    }

    fn read(&self, r: usize) -> Aob {
        self.get(r).cloned().unwrap_or_else(|| Aob::zeros(self.ways))
    }

    fn set(&mut self, r: usize, v: &Aob) {
        self.put(r, v.clone());
    }

    fn gate_run(&mut self, actions: &[GateAction], meter: bool) -> WriteDelta {
        if !meter {
            self.run_strips(actions);
            return WriteDelta::default();
        }
        // Metering needs each gate's own delta, so step one gate at a
        // time against a snapshot of its destinations.
        let mut d = WriteDelta::default();
        for &act in actions {
            let (dsts, nd) = act.dests();
            let old: Vec<Aob> = dsts[..nd].iter().map(|&r| self.read(r as usize)).collect();
            self.run_strips(&[act]);
            for (&r, old) in dsts[..nd].iter().zip(&old) {
                d.merge(meter_delta(old, &self.regs[self.at(r)]));
            }
        }
        d
    }

    fn meas(&self, r: usize, e: u64) -> bool {
        self.get(r).is_some_and(|v| v.meas(e))
    }

    fn next(&self, r: usize, d: u64) -> Option<u64> {
        self.get(r)?.next(d)
    }

    fn pop_after(&self, r: usize, d: u64) -> u64 {
        self.get(r).map_or(0, |v| v.pop_after(d))
    }

    fn clone_box(&self) -> Box<dyn AobStorage> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// Interned: hash-consed chunk ids, memoized gates, copy-on-write.
// ---------------------------------------------------------------------------

/// Register file of [`ChunkId`]s into a private hash-consed [`ChunkStore`].
#[derive(Debug, Clone)]
pub struct InternedFile {
    store: ChunkStore,
    ids: Vec<ChunkId>,
}

impl InternedFile {
    /// Smallest entanglement degree this backend supports.
    pub const MIN_WAYS: u32 = 1;
    /// Largest entanglement degree this backend supports: hash-consed
    /// chunks are still explicit vectors, so the bound is the physical
    /// file's ([`HW_MAX_WAYS`]).
    pub const MAX_WAYS: u32 = HW_MAX_WAYS;

    /// All registers zero, or preloaded with the §5 constant bank (which
    /// coincides with the store's canonical ids by construction).
    pub fn new(ways: u32, constant_bank: bool) -> Self {
        Self::with_store(ChunkStore::new(ways), constant_bank)
    }

    /// A register file warmed from an existing store — typically a
    /// snapshot loaded through [`crate::warm`]. The store's interned
    /// chunks and memoized op cache carry over, so gates this process has
    /// "already seen" (in the snapshotting process) hit the cache without
    /// ever running a kernel. Registers start from the usual reset state;
    /// the §5 constant bank resolves to the store's canonical ids, which
    /// are degree-stable across stores.
    pub fn with_store(store: ChunkStore, constant_bank: bool) -> Self {
        let ways = store.ways();
        let mut ids = vec![ID_ZERO; REG_COUNT];
        if constant_bank {
            ids[1] = ID_ONE;
            for k in 0..ways {
                ids[(2 + k) as usize] = store.id_hadamard(k);
            }
        }
        InternedFile { store, ids }
    }

    /// [`InternedFile::with_store`] over the resolved warm snapshot for
    /// `(warm, ways)`, falling back to a cold store when nothing matching
    /// is registered. Attaching shares every chunk payload `Arc` with the
    /// registered snapshot and counts toward `store.chunks.attached`.
    pub fn warmed(ways: u32, constant_bank: bool, warm: Option<crate::WarmStoreId>) -> Self {
        match crate::warm::attach(warm, ways) {
            Some(store) => Self::with_store(store, constant_bank),
            None => Self::new(ways, constant_bank),
        }
    }

    /// Intern `v` as register `r`'s value, without copying it.
    pub(crate) fn set_owned(&mut self, r: usize, v: Aob) {
        self.ids[r] = self.store.intern(v);
    }

    fn commit(&mut self, r: usize, id: ChunkId, meter: bool) -> WriteDelta {
        let old = self.ids[r];
        self.ids[r] = id;
        if !meter {
            WriteDelta::default()
        } else if old == id {
            WriteDelta { toggles: 0, pop_delta: 0, writes: 1 }
        } else {
            meter_delta(self.store.aob(old), self.store.aob(id))
        }
    }

    /// Execute one gate through the op cache.
    fn gate(&mut self, act: GateAction, meter: bool) -> WriteDelta {
        match act {
            GateAction::Const(r, kind) => {
                let id = match kind {
                    ConstKind::Zeros => ID_ZERO,
                    ConstKind::Ones => ID_ONE,
                    // H(k) for k >= ways is all-zeros (hadamard() contract).
                    ConstKind::Hadamard(k) if k < self.ways() => self.store.id_hadamard(k),
                    ConstKind::Hadamard(_) => ID_ZERO,
                };
                self.commit(r as usize, id, meter)
            }
            GateAction::Not(r) => {
                let r = r as usize;
                let id = self.store.not(self.ids[r]);
                self.commit(r, id, meter)
            }
            GateAction::Bin(op, a, b, c) => {
                let (a, b, c) = (a as usize, b as usize, c as usize);
                let id = self.store.binop(op, self.ids[b], self.ids[c]);
                self.commit(a, id, meter)
            }
            GateAction::Ccnot(a, b, c) => {
                let (a, b, c) = (a as usize, b as usize, c as usize);
                let id = self.store.ccnot(self.ids[a], self.ids[b], self.ids[c]);
                self.commit(a, id, meter)
            }
            GateAction::Swap(a, b) => {
                let (a, b) = (a as usize, b as usize);
                let (ia, ib) = (self.ids[a], self.ids[b]);
                let mut d = self.commit(a, ib, meter);
                d.merge(self.commit(b, ia, meter));
                d
            }
            GateAction::Cswap(a, b, c) => {
                let (a, b, c) = (a as usize, b as usize, c as usize);
                let (ia, ib, ic) = (self.ids[a], self.ids[b], self.ids[c]);
                // cswap = a pair of muxes on the original operands.
                let na = self.store.mux(ic, ib, ia);
                let nb = self.store.mux(ic, ia, ib);
                let mut d = self.commit(a, na, meter);
                d.merge(self.commit(b, nb, meter));
                d
            }
        }
    }
}

impl AobStorage for InternedFile {
    fn backend(&self) -> StorageBackend {
        StorageBackend::Interned
    }

    fn ways(&self) -> u32 {
        self.store.ways()
    }

    fn read(&self, r: usize) -> Aob {
        self.store.aob(self.ids[r]).clone()
    }

    fn set(&mut self, r: usize, v: &Aob) {
        self.set_owned(r, v.clone());
    }

    fn meas(&self, r: usize, e: u64) -> bool {
        self.store.aob(self.ids[r]).meas(e)
    }

    fn next(&self, r: usize, d: u64) -> Option<u64> {
        self.store.aob(self.ids[r]).next(d)
    }

    fn pop_after(&self, r: usize, d: u64) -> u64 {
        self.store.aob(self.ids[r]).pop_after(d)
    }

    fn gate_run(&mut self, actions: &[GateAction], meter: bool) -> WriteDelta {
        let mut d = WriteDelta::default();
        for &a in actions {
            d.merge(self.gate(a, meter));
        }
        d
    }

    fn wants_fusion(&self) -> bool {
        true
    }

    fn intern_stats(&self) -> Option<InternStats> {
        Some(self.store.stats())
    }

    fn chunk_store(&self) -> Option<&ChunkStore> {
        Some(&self.store)
    }

    fn reset_stats(&mut self) {
        self.store.reset_stats();
    }

    fn clone_box(&self) -> Box<dyn AobStorage> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(ways: u32) -> [Box<dyn AobStorage>; 2] {
        [
            Box::new(EagerFile::new(ways, false)),
            Box::new(InternedFile::new(ways, false)),
        ]
    }

    #[test]
    fn backend_names_round_trip() {
        for b in StorageBackend::ALL {
            assert_eq!(StorageBackend::parse(b.name()), Some(b));
        }
        assert_eq!(StorageBackend::parse("sparse_re"), Some(StorageBackend::SparseRe));
        assert_eq!(StorageBackend::parse("nope"), None);
    }

    /// The blocked strip executor must be bit-identical to stepping the
    /// same actions one at a time, across strip-boundary word counts and
    /// every operand-alias shape (dest==src, src==src, selector aliasing
    /// a cswap operand).
    #[test]
    fn strip_gate_run_matches_per_gate_loop() {
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        // ways 7 (two words, one partial strip), 9, and 16 (four strips).
        for ways in [7u32, 9, 16] {
            let mut stepped = EagerFile::new(ways, false);
            for r in 0..24 {
                let seed = next(u64::MAX);
                stepped.set(r, &Aob::from_fn(ways, |e| (e ^ seed).count_ones() & 1 == 1));
            }
            let mut actions = Vec::new();
            for _ in 0..200 {
                let r = |n: &mut dyn FnMut(u64) -> u64| n(24) as u8;
                let act = match next(8) {
                    0 => GateAction::Const(
                        r(&mut next),
                        match next(3) {
                            0 => ConstKind::Zeros,
                            1 => ConstKind::Ones,
                            _ => ConstKind::Hadamard(next(u64::from(ways) + 2) as u32),
                        },
                    ),
                    1 => GateAction::Not(r(&mut next)),
                    2 | 3 => GateAction::Bin(
                        match next(3) {
                            0 => GateOp::And,
                            1 => GateOp::Or,
                            _ => GateOp::Xor,
                        },
                        r(&mut next),
                        r(&mut next),
                        r(&mut next),
                    ),
                    4 | 5 => GateAction::Ccnot(r(&mut next), r(&mut next), r(&mut next)),
                    6 => GateAction::Swap(r(&mut next), r(&mut next)),
                    _ => GateAction::Cswap(r(&mut next), r(&mut next), r(&mut next)),
                };
                actions.push(act);
            }
            let mut blocked = stepped.clone();
            let d = blocked.gate_run(&actions, false);
            assert_eq!(d, WriteDelta::default(), "unmetered runs carry no delta");
            for &act in &actions {
                stepped.apply_action(act, false);
            }
            for r in 0..REG_COUNT {
                assert_eq!(blocked.read(r), stepped.read(r), "ways {ways} @{r}");
            }
        }
    }

    #[test]
    fn eager_and_interned_agree_on_gate_mix() {
        // ways=3 values carry padding bits, which `Const` and `Not` set.
        for ways in [3, 8] {
            let [mut e, mut i] = files(ways);
            for f in [&mut e, &mut i] {
                for act in mix_actions() {
                    f.apply_action(act, false);
                }
            }
            for r in 0..REG_COUNT {
                assert_eq!(e.read(r), i.read(r), "ways {ways} @{r}");
                assert_eq!(e.pop_after(r, 0), i.pop_after(r, 0), "ways {ways} @{r} pop");
            }
        }
    }

    #[test]
    fn metering_matches_across_backends() {
        for ways in [3, 8] {
            let n = 1 << ways;
            let [mut e, mut i] = files(ways);
            for f in [&mut e, &mut i] {
                let d1 = f.apply_action(GateAction::Const(0, ConstKind::Ones), true);
                assert_eq!(d1, WriteDelta { toggles: n, pop_delta: n as i64, writes: 1 });
                let d2 = f.apply_action(GateAction::Not(0), true);
                assert_eq!(d2, WriteDelta { toggles: n, pop_delta: -(n as i64), writes: 1 });
                // Swap re-routes charge: per-register toggles, zero net delta.
                f.apply_action(GateAction::Const(1, ConstKind::Hadamard(0)), true);
                let d3 = f.apply_action(GateAction::Swap(0, 1), true);
                assert_eq!(d3.pop_delta, 0);
                assert_eq!(d3.writes, 2);
            }
        }
    }

    fn mix_actions() -> Vec<GateAction> {
        vec![
            GateAction::Const(0, ConstKind::Hadamard(1)),
            GateAction::Const(1, ConstKind::Hadamard(6)),
            GateAction::Const(2, ConstKind::Ones),
            GateAction::Bin(GateOp::And, 3, 0, 1),
            GateAction::Bin(GateOp::Xor, 4, 3, 2),
            GateAction::Ccnot(4, 0, 1),
            GateAction::Not(4),
            GateAction::Swap(3, 4),
            GateAction::Cswap(3, 4, 0),
            GateAction::Cswap(2, 2, 1), // aliased pair
        ]
    }

    #[test]
    fn gate_run_matches_stepped_execution() {
        // ways=3 exercises the sub-word padding invariant, ways=8 the
        // multi-word path. Eager runs the same strip kernels on both
        // sides, so its padding clear is checked against interned by
        // `eager_and_interned_agree_on_gate_mix`.
        for ways in [3, 8] {
            for mut fused in files(ways) {
                let mut stepped = fused.clone_box();
                for &a in &mix_actions() {
                    stepped.apply_action(a, false);
                }
                fused.gate_run(&mix_actions(), false);
                for r in 0..REG_COUNT {
                    assert_eq!(stepped.read(r), fused.read(r), "{} @{r}", fused.backend());
                    assert_eq!(
                        stepped.pop_after(r, 0),
                        fused.pop_after(r, 0),
                        "{} @{r} pop (padding leak?)",
                        fused.backend()
                    );
                }
            }
        }
    }

    #[test]
    fn fused_run_replays_from_cache() {
        let mut f = InternedFile::new(8, false);
        let actions = mix_actions();
        f.gate_run(&actions, false);
        let after_first = f.intern_stats().unwrap();
        let snap: Vec<Aob> = (0..8).map(|r| f.read(r)).collect();
        // Rerun over the same inputs: every gate's op-cache probe hits, so
        // no kernel runs (misses frozen).
        f.gate_run(&actions, false);
        let after_second = f.intern_stats().unwrap();
        assert_eq!(after_second.misses, after_first.misses, "replay never computes");
        for (r, v) in snap.iter().enumerate() {
            assert_eq!(f.read(r), *v, "replay reproduces the run's writes @{r}");
        }
    }

    #[test]
    fn constant_bank_preload() {
        let [e, i] = [
            Box::new(EagerFile::new(8, true)) as Box<dyn AobStorage>,
            Box::new(InternedFile::new(8, true)),
        ];
        for f in [&e, &i] {
            assert_eq!(f.read(0), Aob::zeros(8));
            assert_eq!(f.read(1), Aob::ones(8));
            for k in 0..8 {
                assert_eq!(f.read(2 + k as usize), Aob::hadamard(8, k));
            }
        }
    }
}
