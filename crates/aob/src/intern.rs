//! Hash-consed AoB chunk store with memoized gate kernels.
//!
//! The PBP software prototype (paper §2.2, refs [3]/[4]) gets its speed
//! from redundancy: most of the `2^WAYS`-bit chunks that arise in real
//! circuits are repeats — constants, Hadamard patterns, and intermediate
//! gate results — so each distinct chunk is computed and stored **once**.
//! A [`ChunkStore`] is the explicit-vector rendering of that idea:
//!
//! * Every distinct [`Aob`] value is interned behind an `Arc` and named by
//!   a small copyable [`ChunkId`]. Lookup is content-addressed through a
//!   128-bit FNV hash of the bit pattern, with a full equality check on
//!   hash hits so accidental collisions can never conflate two values.
//! * The constant bank `[0, 1, H(0) .. H(ways-1)]` — the §5 constant
//!   register preset — is interned first, so those values have **canonical
//!   ids** ([`ID_ZERO`], [`ID_ONE`], [`ChunkStore::id_hadamard`]) that are
//!   stable across stores of the same degree.
//! * Gate operations are memoized in an op cache keyed by
//!   `(gate, id_a, id_b[, id_c])`: repeating a gate over operands already
//!   seen costs one hash-map probe instead of an `O(2^ways / 64)` word
//!   loop. Algebraic identities (`x AND x = x`, `x XOR x = 0`, ops against
//!   the canonical constants) short-circuit before the cache and count as
//!   hits.
//!
//! Callers that hold `ChunkId`s get copy-on-write register files for free:
//! a "write" is just storing a different id, and every reader shares the
//! same interned chunk. [`InternStats`] exposes hit/miss/eviction counters
//! so the cache behaviour is observable (and testable) from above.

use crate::bitvec::Aob;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Global telemetry mirrors of [`InternStats`]: every store contributes
/// additively, so the registry sees whole-process chunk-cache behaviour
/// regardless of how many stores exist.
mod telem {
    use tangled_telemetry::Counter;

    pub static HITS: Counter = Counter::new("intern.hits");
    pub static MISSES: Counter = Counter::new("intern.misses");
    pub static EVICTIONS: Counter = Counter::new("intern.evictions");
    pub static DEDUP: Counter = Counter::new("intern.dedup_hits");
    pub static CHUNKS: Counter = Counter::new("intern.chunks_interned");
    pub static STORE_WRITTEN: Counter = Counter::new("store.chunks.written");
    pub static STORE_ATTACHED: Counter = Counter::new("store.chunks.attached");
    pub static STORE_SAVE_BYTES: Counter = Counter::new("store.save.bytes");
    pub static STORE_LOAD_BYTES: Counter = Counter::new("store.load.bytes");
}

/// Identifier of an interned chunk in a [`ChunkStore`].
///
/// Ids are only meaningful within the store that issued them. Two equal
/// ids from the same store always name bit-identical [`Aob`] values (and,
/// conversely, interning equal values always yields equal ids).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkId(u32);

impl ChunkId {
    /// Construct from a raw index (for canonical-id constants).
    pub const fn from_raw(raw: u32) -> ChunkId {
        ChunkId(raw)
    }

    /// The raw index.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Canonical id of the all-zeros chunk (always interned first).
pub const ID_ZERO: ChunkId = ChunkId::from_raw(0);
/// Canonical id of the all-ones chunk (always interned second).
pub const ID_ONE: ChunkId = ChunkId::from_raw(1);

/// Cache and interning counters of a [`ChunkStore`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct InternStats {
    /// Op-cache lookups answered without computing (including algebraic
    /// short-circuits such as `x AND x`).
    pub hits: u64,
    /// Op-cache lookups that had to run the word-level gate kernel.
    pub misses: u64,
    /// Op-cache entries discarded because the cache hit its capacity.
    pub evictions: u64,
    /// Distinct chunks currently interned.
    pub chunks: u64,
    /// Operations whose result reused an already-stored chunk instead of
    /// interning a new one: op-cache hits, algebraic shortcuts, and
    /// `intern` calls that found the value already present.
    pub dedup_hits: u64,
}

impl InternStats {
    /// Total op-cache lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `0.0..=1.0` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// Binary gate selector for the memoized kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateOp {
    /// Channel-wise AND.
    And,
    /// Channel-wise OR.
    Or,
    /// Channel-wise XOR.
    Xor,
}

/// Ternary gate selector for the fused memoized kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TernOp {
    /// `a XOR (b AND c)` — Toffoli, fused in one pass.
    Ccnot,
    /// `sel ? t : f` — the cswap building block, fused in one pass.
    Mux,
}

/// Op-cache key: the gate plus its operand ids. Commutative binary gates
/// (and the `b`,`c` controls of ccnot) are keyed with sorted operands so
/// `and(a,b)` and `and(b,a)` share one entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum OpKey {
    Not(ChunkId),
    Bin(GateOp, ChunkId, ChunkId),
    Tern(TernOp, ChunkId, ChunkId, ChunkId),
}

/// Default op-cache capacity (entries) before a full-sweep eviction.
pub const DEFAULT_OP_CAPACITY: usize = 1 << 20;

/// Fast multiply-rotate hasher for the store's internal maps. The keys are
/// either already-mixed 128-bit content hashes or tiny fixed-shape
/// [`OpKey`]s, so SipHash's DoS resistance buys nothing here and its cost
/// dominates the warm-hit path the repeated-gate benchmark measures.
#[derive(Default)]
pub(crate) struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl std::hash::Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// A `HashMap` keyed through [`FastHasher`].
pub(crate) type FastMap<K, V> =
    HashMap<K, V, std::hash::BuildHasherDefault<FastHasher>>;

/// Content-addressed store of interned [`Aob`] chunks plus the memoized
/// gate-operation cache. See the module docs for the design.
#[derive(Debug, Clone)]
pub struct ChunkStore {
    ways: u32,
    chunks: Vec<Arc<Aob>>,
    /// 128-bit content hash → candidate ids (a Vec so that even a real
    /// hash collision stays correct — candidates are equality-checked).
    by_hash: FastMap<u128, Vec<ChunkId>>,
    ops: FastMap<OpKey, ChunkId>,
    op_capacity: usize,
    stats: InternStats,
}

/// 128-bit content hash over the entanglement degree and the word array.
///
/// Four independent FNV-1a lanes (folded to 128 bits at the end) instead
/// of one serial chain: a 16-way chunk is 1024 words, and a single
/// accumulator serializes 1024 multiply latencies, which dominated the
/// cost of interning fresh values. Collisions are harmless — `intern`
/// verifies bit equality on every bucket hit — so lane folding only has
/// to spread buckets, not be cryptographic.
fn content_hash(v: &Aob) -> u128 {
    const PRIME: u64 = 0x100000001b3;
    const OFFSET: u64 = 0xcbf29ce484222325;
    let mut lane = [
        OFFSET,
        OFFSET ^ 0x9e3779b97f4a7c15,
        OFFSET ^ 0xc2b2ae3d27d4eb4f,
        OFFSET ^ 0x165667b19e3779f9,
    ];
    let words = v.words();
    let mut chunks = words.chunks_exact(4);
    for quad in &mut chunks {
        for (l, &w) in lane.iter_mut().zip(quad) {
            *l = (*l ^ w).wrapping_mul(PRIME);
        }
    }
    for (l, &w) in lane.iter_mut().zip(chunks.remainder()) {
        *l = (*l ^ w).wrapping_mul(PRIME);
    }
    lane[0] = (lane[0] ^ v.ways() as u64).wrapping_mul(PRIME);
    // Finalize each lane (FNV avalanches poorly in the low bits) and fold.
    let fin = |mut x: u64| {
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51afd7ed558ccd);
        x ^= x >> 33;
        x
    };
    let hi = fin(lane[0]).wrapping_add(fin(lane[1]).rotate_left(17));
    let lo = fin(lane[2]).wrapping_add(fin(lane[3]).rotate_left(31));
    ((hi as u128) << 64) | lo as u128
}

impl ChunkStore {
    /// A fresh store for `2^ways`-bit chunks, with the §5 constant bank
    /// `[0, 1, H(0) .. H(ways-1)]` pre-interned at the canonical ids.
    pub fn new(ways: u32) -> Self {
        let mut s = ChunkStore {
            ways,
            chunks: Vec::new(),
            by_hash: FastMap::default(),
            ops: FastMap::default(),
            op_capacity: DEFAULT_OP_CAPACITY,
            stats: InternStats::default(),
        };
        for c in Aob::constant_bank(ways) {
            s.intern(c);
        }
        // The bank never dedups (all entries distinct), so the layout is
        // exactly [0, 1, H(0)..H(ways-1)].
        debug_assert_eq!(s.chunks.len(), ways as usize + 2);
        s.stats = InternStats { chunks: s.chunks.len() as u64, ..InternStats::default() };
        s
    }

    /// Same, with an explicit op-cache capacity (entries kept before a
    /// full-sweep eviction).
    pub fn with_op_capacity(ways: u32, op_capacity: usize) -> Self {
        let mut s = Self::new(ways);
        s.op_capacity = op_capacity.max(1);
        s
    }

    /// Entanglement degree of the stored chunks.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Number of distinct chunks interned.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// A store never has zero chunks (the constant bank is pre-interned).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Canonical id of `H(k)`. Valid for `k < ways`.
    pub fn id_hadamard(&self, k: u32) -> ChunkId {
        assert!(k < self.ways, "H({k}) is not in the {}-way constant bank", self.ways);
        ChunkId(2 + k)
    }

    /// The interned value of `id`.
    #[inline]
    pub fn aob(&self, id: ChunkId) -> &Aob {
        &self.chunks[id.0 as usize]
    }

    /// The shared handle of `id` (cheap to clone out of the store).
    pub fn arc(&self, id: ChunkId) -> &Arc<Aob> {
        &self.chunks[id.0 as usize]
    }

    /// Cache and interning counters.
    pub fn stats(&self) -> InternStats {
        self.stats
    }

    /// Zero all counters (chunk count is recomputed, not zeroed).
    pub fn reset_stats(&mut self) {
        self.stats = InternStats { chunks: self.chunks.len() as u64, ..InternStats::default() };
    }

    /// Intern a value: returns the existing id when a bit-identical chunk
    /// is already stored, otherwise stores the value under a fresh id.
    pub fn intern(&mut self, v: Aob) -> ChunkId {
        assert_eq!(v.ways(), self.ways, "chunk has the wrong entanglement degree");
        let h = content_hash(&v);
        if let Some(cands) = self.by_hash.get(&h) {
            for &id in cands {
                if *self.chunks[id.0 as usize] == v {
                    self.stats.dedup_hits += 1;
                    telem::DEDUP.inc();
                    return id;
                }
            }
        }
        let id = ChunkId(self.chunks.len() as u32);
        self.chunks.push(Arc::new(v));
        self.by_hash.entry(h).or_default().push(id);
        self.stats.chunks = self.chunks.len() as u64;
        telem::CHUNKS.inc();
        id
    }

    /// Account an operation answered by an algebraic identity or op-cache
    /// probe: the result id names a chunk that already exists, so it is
    /// both a `hit` and a `dedup_hit`. No hash-table or kernel work runs.
    #[inline]
    fn note_reuse(&mut self, r: ChunkId) -> ChunkId {
        self.stats.hits += 1;
        self.stats.dedup_hits += 1;
        telem::HITS.inc();
        telem::DEDUP.inc();
        r
    }

    /// Run `compute` unless `key` is cached; either way return the result
    /// id and account the lookup. A cache hit reuses a stored chunk, so it
    /// counts toward `dedup_hits` as well as `hits`.
    fn cached(&mut self, key: OpKey, compute: impl FnOnce(&Self) -> Aob) -> ChunkId {
        if let Some(&r) = self.ops.get(&key) {
            return self.note_reuse(r);
        }
        self.stats.misses += 1;
        telem::MISSES.inc();
        let v = compute(self);
        let r = self.intern(v);
        if self.ops.len() >= self.op_capacity {
            self.stats.evictions += self.ops.len() as u64;
            telem::EVICTIONS.add(self.ops.len() as u64);
            self.ops.clear();
        }
        self.ops.insert(key, r);
        r
    }

    /// Algebraic identity arm of [`ChunkStore::binop`]: when the result is
    /// one of the operands or a canonical constant, return its id without
    /// touching the op cache or the content-hash table. Pure — does not
    /// account stats; callers wrap hits in `note_reuse`. Any table that
    /// issues the canonical [`ID_ZERO`] and [`ID_ONE`] can use it.
    #[inline]
    pub fn binop_shortcut(op: GateOp, a: ChunkId, b: ChunkId) -> Option<ChunkId> {
        match op {
            GateOp::And => {
                if a == b || b == ID_ONE {
                    Some(a)
                } else if a == ID_ONE {
                    Some(b)
                } else if a == ID_ZERO || b == ID_ZERO {
                    Some(ID_ZERO)
                } else {
                    None
                }
            }
            GateOp::Or => {
                if a == b || b == ID_ZERO {
                    Some(a)
                } else if a == ID_ZERO {
                    Some(b)
                } else if a == ID_ONE || b == ID_ONE {
                    Some(ID_ONE)
                } else {
                    None
                }
            }
            GateOp::Xor => {
                if a == b {
                    Some(ID_ZERO)
                } else if b == ID_ZERO {
                    Some(a)
                } else if a == ID_ZERO {
                    Some(b)
                } else {
                    None
                }
            }
        }
    }

    /// Memoized channel-wise NOT.
    pub fn not(&mut self, a: ChunkId) -> ChunkId {
        if a == ID_ZERO {
            return self.note_reuse(ID_ONE);
        }
        if a == ID_ONE {
            return self.note_reuse(ID_ZERO);
        }
        self.cached(OpKey::Not(a), |s| s.aob(a).not_of())
    }

    /// Memoized binary gate.
    pub fn binop(&mut self, op: GateOp, a: ChunkId, b: ChunkId) -> ChunkId {
        // Algebraic short-circuits: free, never touch the hash table, and
        // count as (dedup) hits.
        if let Some(r) = Self::binop_shortcut(op, a, b) {
            return self.note_reuse(r);
        }
        // All three gates are commutative: canonicalize the operand order.
        let (x, y) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        self.cached(OpKey::Bin(op, x, y), |s| match op {
            GateOp::And => Aob::and_of(s.aob(x), s.aob(y)),
            GateOp::Or => Aob::or_of(s.aob(x), s.aob(y)),
            GateOp::Xor => Aob::xor_of(s.aob(x), s.aob(y)),
        })
    }

    /// Memoized AND.
    pub fn and(&mut self, a: ChunkId, b: ChunkId) -> ChunkId {
        self.binop(GateOp::And, a, b)
    }

    /// Memoized OR.
    pub fn or(&mut self, a: ChunkId, b: ChunkId) -> ChunkId {
        self.binop(GateOp::Or, a, b)
    }

    /// Memoized XOR.
    pub fn xor(&mut self, a: ChunkId, b: ChunkId) -> ChunkId {
        self.binop(GateOp::Xor, a, b)
    }

    /// `ccnot @a,@b,@c` = `a XOR (b AND c)`. When the control pair reduces
    /// algebraically the op collapses to a (memoized) XOR; otherwise it is
    /// a **single** ternary probe backed by the fused [`Aob::ccnot_of`]
    /// kernel — one lookup and one word pass, with no interned `b AND c`
    /// intermediate. (The old decomposition cost two probes plus an extra
    /// content hash per fresh intermediate, which is most of why interning
    /// lost on the ccnot-heavy factoring demo.)
    pub fn ccnot(&mut self, a: ChunkId, b: ChunkId, c: ChunkId) -> ChunkId {
        if let Some(bc) = Self::binop_shortcut(GateOp::And, b, c) {
            self.note_reuse(bc);
            return self.xor(a, bc);
        }
        // The controls commute: canonicalize their order.
        let (x, y) = if b.0 <= c.0 { (b, c) } else { (c, b) };
        self.cached(OpKey::Tern(TernOp::Ccnot, a, x, y), |s| {
            Aob::ccnot_of(s.aob(a), s.aob(x), s.aob(y))
        })
    }

    /// Channel-wise multiplexor `sel ? t : f` — the masked-swap building
    /// block of `cswap` (`a' = mux(c, b, a)`, `b' = mux(c, a, b)`). A
    /// single ternary probe over the fused [`Aob::mux_of`] kernel; the
    /// constant-select and equal-arm cases short-circuit for free.
    pub fn mux(&mut self, sel: ChunkId, t: ChunkId, f: ChunkId) -> ChunkId {
        if t == f {
            return self.note_reuse(t);
        }
        if sel == ID_ONE {
            return self.note_reuse(t);
        }
        if sel == ID_ZERO {
            return self.note_reuse(f);
        }
        self.cached(OpKey::Tern(TernOp::Mux, sel, t, f), |s| {
            Aob::mux_of(s.aob(sel), s.aob(t), s.aob(f))
        })
    }
}

// ---------------------------------------------------------------------------
// Snapshots: the on-disk form of a ChunkStore.
// ---------------------------------------------------------------------------

/// First 8 bytes of every snapshot.
const SNAPSHOT_MAGIC: &[u8; 8] = b"TGLSTORE";

/// Snapshot format version this build writes and reads. Version 1 was a
/// general sectioned container; its files are rejected as
/// [`SnapshotError::UnsupportedVersion`].
const SNAPSHOT_VERSION: u32 = 2;

/// Fixed header: magic, version, ways, chunk count, op count (`u32`s) and
/// op capacity (`u64`).
const HEADER_LEN: usize = 8 + 4 * 4 + 8;

/// Bytes per serialized op-cache entry: kind byte plus four `u32` ids.
const OP_ENTRY_LEN: usize = 1 + 4 * 4;

/// Why a snapshot could not be saved or loaded. Every byte sequence that
/// is not a well-formed snapshot maps to one of these, never to a panic.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem error.
    Io(std::io::Error),
    /// The bytes do not start with the snapshot magic, `TGLSTORE`.
    BadMagic,
    /// A format version other than the one this build reads.
    UnsupportedVersion(u32),
    /// The bytes end before the field named here, or before the length
    /// the header declares.
    Truncated(&'static str),
    /// The trailing checksum does not match the bytes before it.
    ChecksumMismatch,
    /// The bytes are intact but break a structural invariant.
    Malformed(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "i/o error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a ChunkStore snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => write!(
                f,
                "unsupported snapshot format version {v} (this build reads {SNAPSHOT_VERSION})"
            ),
            SnapshotError::Truncated(what) => write!(f, "truncated snapshot: {what}"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// 64-bit checksum: word-at-a-time multiply-rotate with a murmur-style
/// avalanche, seeded by the length. Every step is a bijection of the
/// state for fixed input, so any change confined to one 8-byte word (a
/// single-bit flip included) changes the result. It catches corruption,
/// not a crafted file.
fn hash64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = (bytes.len() as u64).wrapping_mul(PRIME) ^ 0x51_7c_c1_b7_27_22_0a_95;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        h = (h.rotate_left(27) ^ le_u64(w, 0)).wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        h = (h.rotate_left(11) ^ b as u64).wrapping_mul(PRIME);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 29;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 32)
}

/// Little-endian `u32` at `at`; the caller has checked the length.
fn le_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("4 bytes"))
}

/// Little-endian `u64` at `at`; the caller has checked the length.
fn le_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"))
}

impl OpKey {
    /// `(kind, a, b, c)` wire encoding; ids unused by the key are zero.
    fn encode(self) -> (u8, u32, u32, u32) {
        match self {
            OpKey::Not(a) => (0, a.0, 0, 0),
            OpKey::Bin(GateOp::And, a, b) => (1, a.0, b.0, 0),
            OpKey::Bin(GateOp::Or, a, b) => (2, a.0, b.0, 0),
            OpKey::Bin(GateOp::Xor, a, b) => (3, a.0, b.0, 0),
            OpKey::Tern(TernOp::Ccnot, a, b, c) => (4, a.0, b.0, c.0),
            OpKey::Tern(TernOp::Mux, a, b, c) => (5, a.0, b.0, c.0),
        }
    }

    /// Inverse of [`OpKey::encode`]; `None` on an unknown kind byte.
    fn decode(kind: u8, a: u32, b: u32, c: u32) -> Option<OpKey> {
        let (a, b, c) = (ChunkId(a), ChunkId(b), ChunkId(c));
        Some(match kind {
            0 => OpKey::Not(a),
            1 => OpKey::Bin(GateOp::And, a, b),
            2 => OpKey::Bin(GateOp::Or, a, b),
            3 => OpKey::Bin(GateOp::Xor, a, b),
            4 => OpKey::Tern(TernOp::Ccnot, a, b, c),
            5 => OpKey::Tern(TernOp::Mux, a, b, c),
            _ => return None,
        })
    }

    /// Whether commutative operands are in the canonical (sorted) order
    /// the gate methods produce. Snapshots only contain canonical keys.
    fn is_canonical(self) -> bool {
        match self {
            OpKey::Not(_) => true,
            OpKey::Bin(_, a, b) => a.0 <= b.0,
            OpKey::Tern(TernOp::Ccnot, _, b, c) => b.0 <= c.0,
            OpKey::Tern(TernOp::Mux, ..) => true,
        }
    }
}

impl ChunkStore {
    /// Serialize as a snapshot: the header, the chunk words in id order
    /// (so loading resolves every [`ChunkId`] to the identical value), the
    /// op-cache entries sorted (so equal stores serialize byte-identically),
    /// then `hash64` of every byte before it.
    pub fn to_bytes(&self) -> Vec<u8> {
        let words = Aob::words_for(self.ways);
        let mut out = Vec::with_capacity(
            HEADER_LEN + self.chunks.len() * words * 8 + self.ops.len() * OP_ENTRY_LEN + 8,
        );
        out.extend_from_slice(SNAPSHOT_MAGIC);
        for v in [SNAPSHOT_VERSION, self.ways, self.chunks.len() as u32, self.ops.len() as u32] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.op_capacity as u64).to_le_bytes());
        for c in &self.chunks {
            debug_assert_eq!(c.words().len(), words);
            for &w in c.words() {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        let mut entries: Vec<[u8; OP_ENTRY_LEN]> = Vec::with_capacity(self.ops.len());
        for (&key, &result) in &self.ops {
            let (kind, a, b, c) = key.encode();
            let mut e = [0u8; OP_ENTRY_LEN];
            e[0] = kind;
            for (i, id) in [a, b, c, result.0].into_iter().enumerate() {
                e[1 + 4 * i..5 + 4 * i].copy_from_slice(&id.to_le_bytes());
            }
            entries.push(e);
        }
        entries.sort_unstable();
        for e in &entries {
            out.extend_from_slice(e);
        }
        let sum = hash64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Save a snapshot to `path` (atomic replace). Returns bytes written.
    pub fn save(&self, path: &std::path::Path) -> Result<u64, SnapshotError> {
        let bytes = self.to_bytes();
        let n = bytes.len() as u64;
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)?;
        telem::STORE_SAVE_BYTES.add(n);
        telem::STORE_WRITTEN.add(self.chunks.len() as u64);
        Ok(n)
    }

    /// Deserialize a snapshot. The header fixes the exact length and the
    /// checksum covers every byte, both checked before anything is
    /// allocated; then every structural invariant is validated — chunk
    /// padding, the constant-bank prefix, id bounds, key canonicality — so
    /// hostile bytes yield a typed error, never a store that later
    /// misbehaves.
    pub fn from_bytes(bytes: &[u8]) -> Result<ChunkStore, SnapshotError> {
        use SnapshotError::{Malformed, Truncated};

        if !bytes.starts_with(SNAPSHOT_MAGIC) {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < HEADER_LEN {
            return Err(Truncated("header"));
        }
        let version = le_u32(bytes, 8);
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let ways = le_u32(bytes, 12);
        let chunk_count = le_u32(bytes, 16) as usize;
        let op_count = le_u32(bytes, 20) as usize;
        let op_capacity = le_u64(bytes, 24);
        if ways > crate::bitvec::MAX_WAYS {
            return Err(Malformed(format!(
                "ways {ways} exceeds the {}-way ceiling",
                crate::bitvec::MAX_WAYS
            )));
        }
        // At most 2^32 chunks of 2^20 words: the sizes fit a u64.
        let words = Aob::words_for(ways);
        let chunks_len = chunk_count as u64 * words as u64 * 8;
        let len = HEADER_LEN as u64 + chunks_len + op_count as u64 * OP_ENTRY_LEN as u64 + 8;
        if (bytes.len() as u64) < len {
            return Err(Truncated("the header declares more bytes than the file holds"));
        }
        if bytes.len() as u64 > len {
            return Err(Malformed(format!("{} bytes past the checksum", bytes.len() as u64 - len)));
        }
        let (body, sum) = bytes.split_at(bytes.len() - 8);
        if hash64(body) != le_u64(sum, 0) {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let bank = ways as usize + 2;
        if chunk_count < bank {
            return Err(Malformed(format!(
                "{chunk_count} chunks, fewer than the {bank}-entry constant bank"
            )));
        }
        let (chunk_bytes, op_bytes) = body[HEADER_LEN..].split_at(chunks_len as usize);

        let mut s = ChunkStore::new(ways);
        s.op_capacity = (op_capacity as usize).max(1);
        for (id, raw) in chunk_bytes.chunks_exact(words * 8).enumerate() {
            let mut v = Aob::zeros(ways);
            for (i, w) in v.words_mut().iter_mut().enumerate() {
                *w = le_u64(raw, 8 * i);
            }
            let tail = *v.words().last().expect("chunks have at least one word");
            v.normalize();
            if *v.words().last().expect("chunks have at least one word") != tail {
                return Err(Malformed(format!(
                    "chunk {id} carries set padding bits beyond 2^{ways} channels"
                )));
            }
            // Re-interning rebuilds `by_hash` and simultaneously checks the
            // snapshot's id assignment: the constant-bank prefix must dedup
            // onto the canonical ids, and every later chunk must be fresh.
            let got = s.intern(v);
            if got.0 as usize != id {
                return Err(Malformed(format!(
                    "chunk {id} violates content addressing (resolves to {got:?}; duplicate or out-of-order constant bank)"
                )));
            }
        }

        for (i, e) in op_bytes.chunks_exact(OP_ENTRY_LEN).enumerate() {
            let [a, b, c, result] = [0, 1, 2, 3].map(|k| le_u32(e, 1 + 4 * k));
            let key = OpKey::decode(e[0], a, b, c)
                .ok_or_else(|| Malformed(format!("op entry {i} has unknown kind {}", e[0])))?;
            if [a, b, c, result].iter().any(|&id| id as usize >= chunk_count) {
                return Err(Malformed(format!(
                    "op entry {i} references chunk id beyond {chunk_count}"
                )));
            }
            if !key.is_canonical() {
                return Err(Malformed(format!("op entry {i} has non-canonical operand order")));
            }
            s.ops.insert(key, ChunkId(result));
        }
        s.reset_stats();
        telem::STORE_LOAD_BYTES.add(bytes.len() as u64);
        Ok(s)
    }

    /// Load a snapshot from `path`.
    pub fn load(path: &std::path::Path) -> Result<ChunkStore, SnapshotError> {
        Self::from_bytes(&std::fs::read(path)?)
    }

    /// Account a warm attach of this store's chunks (telemetry mirror of
    /// `store.chunks.attached`); called by the storage backends when they
    /// adopt a pre-warmed store instead of building one.
    pub(crate) fn note_attached(&self) {
        telem::STORE_ATTACHED.add(self.chunks.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_bank_has_canonical_ids() {
        let s = ChunkStore::new(8);
        assert_eq!(*s.aob(ID_ZERO), Aob::zeros(8));
        assert_eq!(*s.aob(ID_ONE), Aob::ones(8));
        for k in 0..8 {
            assert_eq!(*s.aob(s.id_hadamard(k)), Aob::hadamard(8, k));
        }
        assert_eq!(s.len(), 10);
        assert_eq!(s.stats().chunks, 10);
    }

    #[test]
    fn interning_dedupes_and_counts() {
        let mut s = ChunkStore::new(8);
        let h3 = s.intern(Aob::hadamard(8, 3));
        assert_eq!(h3, s.id_hadamard(3)); // already in the bank
        assert_eq!(s.stats().dedup_hits, 1);
        let mut v = Aob::zeros(8);
        v.set(17, true);
        let a = s.intern(v.clone());
        let b = s.intern(v);
        assert_eq!(a, b);
        assert_eq!(s.len(), 11);
        // dedup_hits counts every operation that reused a stored chunk:
        // the two intern dedups above plus each op-cache hit. A repeated
        // gate therefore registers as dedup, not just as a cache hit —
        // this is the regression where benches showed dedup_hits: 0 at a
        // 0.9998 hit rate.
        assert_eq!(s.stats().dedup_hits, 2);
        let x = s.id_hadamard(1);
        let y = s.id_hadamard(6);
        s.and(x, y); // miss: computes + interns
        let before = s.stats();
        s.and(x, y); // op-cache hit
        let after = s.stats();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.dedup_hits, before.dedup_hits + 1);
        assert_eq!(after.misses, before.misses);
        assert_eq!(after.lookups(), after.hits + after.misses);
    }

    #[test]
    fn ops_match_eager_kernels() {
        let mut s = ChunkStore::new(8);
        let a = s.id_hadamard(2);
        let b = s.id_hadamard(6);
        let (aa, ab) = (Aob::hadamard(8, 2), Aob::hadamard(8, 6));
        let r = s.and(a, b);
        assert_eq!(*s.aob(r), Aob::and_of(&aa, &ab));
        let r = s.or(a, b);
        assert_eq!(*s.aob(r), Aob::or_of(&aa, &ab));
        let r = s.xor(a, b);
        assert_eq!(*s.aob(r), Aob::xor_of(&aa, &ab));
        let r = s.not(a);
        assert_eq!(*s.aob(r), aa.not_of());
        let c = s.id_hadamard(0);
        let mut eager = aa.clone();
        eager.ccnot_assign(&ab, &Aob::hadamard(8, 0));
        let r = s.ccnot(a, b, c);
        assert_eq!(*s.aob(r), eager);
        let mux = s.mux(c, a, b);
        assert_eq!(
            *s.aob(mux),
            Aob::mux_of(&Aob::hadamard(8, 0), &aa, &ab)
        );
    }

    #[test]
    fn repeated_ops_hit_the_cache() {
        let mut s = ChunkStore::new(8);
        let a = s.id_hadamard(1);
        let b = s.id_hadamard(5);
        let r1 = s.and(a, b);
        let miss_after_first = s.stats().misses;
        let r2 = s.and(a, b);
        let r3 = s.and(b, a); // commutative: same entry
        assert_eq!(r1, r2);
        assert_eq!(r1, r3);
        assert_eq!(s.stats().misses, miss_after_first);
        assert!(s.stats().hits >= 2);
    }

    #[test]
    fn algebraic_shortcuts() {
        let mut s = ChunkStore::new(8);
        let chunks_before = s.len();
        let a = s.id_hadamard(4);
        assert_eq!(s.and(a, a), a);
        assert_eq!(s.xor(a, a), ID_ZERO);
        assert_eq!(s.or(a, ID_ZERO), a);
        assert_eq!(s.and(a, ID_ONE), a);
        assert_eq!(s.or(a, ID_ONE), ID_ONE);
        assert_eq!(s.and(a, ID_ZERO), ID_ZERO);
        assert_eq!(s.not(ID_ZERO), ID_ONE);
        assert_eq!(s.not(ID_ONE), ID_ZERO);
        assert_eq!(s.mux(ID_ONE, a, ID_ZERO), a);
        assert_eq!(s.mux(ID_ZERO, a, ID_ONE), ID_ONE);
        assert_eq!(s.mux(a, ID_ONE, ID_ONE), ID_ONE);
        let st = s.stats();
        assert_eq!(st.misses, 0, "all of the above are shortcut hits");
        assert_eq!(st.hits, 11);
        assert_eq!(
            st.dedup_hits, 11,
            "shortcut results reuse stored chunks, so each counts as dedup"
        );
        // Shortcuts never touch the hash table or intern anything: no new
        // chunks, and the ccnot control-collapse path is the same.
        assert_eq!(s.len(), chunks_before);
        let b = s.id_hadamard(2);
        assert_eq!(s.ccnot(b, a, a), s.xor(b, a), "ccnot with b==c collapses to xor");
        assert_eq!(s.ccnot(b, a, ID_ZERO), b, "zero control leaves the target");
    }

    #[test]
    fn eviction_sweeps_and_counts() {
        let mut s = ChunkStore::with_op_capacity(8, 4);
        // Distinct (not, id) keys: intern fresh single-bit chunks.
        for e in 0..12u64 {
            let mut v = Aob::zeros(8);
            v.set(e, true);
            let id = s.intern(v);
            s.not(id);
        }
        assert!(s.stats().evictions >= 4, "{:?}", s.stats());
        // Evicted or not, results stay correct.
        let mut v = Aob::zeros(8);
        v.set(3, true);
        let id = s.intern(v.clone());
        let r = s.not(id);
        assert_eq!(*s.aob(r), v.not_of());
    }

    #[test]
    fn hash64_discriminates() {
        assert_ne!(hash64(b""), hash64(&[0]));
        assert_ne!(hash64(&[0; 8]), hash64(&[0; 9]));
        assert_ne!(hash64(b"abcdefgh"), hash64(b"abcdefgi"));
        // Single-bit flips anywhere move the hash.
        let base = vec![0xA5u8; 37];
        let h0 = hash64(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut m = base.clone();
                m[byte] ^= 1 << bit;
                assert_ne!(hash64(&m), h0, "flip at {byte}.{bit} undetected");
            }
        }
    }

    #[test]
    fn clone_shares_chunks_cheaply() {
        let mut s = ChunkStore::new(10);
        let a = s.id_hadamard(9);
        let b = s.id_hadamard(3);
        let r = s.and(a, b);
        let s2 = s.clone();
        assert_eq!(s.aob(r), s2.aob(r));
        assert!(Arc::ptr_eq(s.arc(r), s2.arc(r)));
    }
}
