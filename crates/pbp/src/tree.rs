//! Nested pattern representation — the paper's §5 future work.
//!
//! "The PBP model does not suggest representing higher degrees of entangled
//! superposition using AoB, but instead using regular expressions
//! compressing patterns in which AoB representations are treated as
//! individual symbols. It remains to be seen if the manipulation of regular
//! patterns of AoB blocks will effectively scale…"
//!
//! This module answers that question for one natural realization: a pbit
//! over `2^E` channels is a **perfect binary tree** of height `E − 6` whose
//! leaves are interned chunk symbols ([`crate::Sym`] — ids into the same
//! flat word table that backs the RE layer), with *hash-consing*
//! (identical subtrees share one node) and
//! *memoized* gate operations. Any value whose structure repeats —
//! Hadamards, their combinations, sparse predicates — collapses to
//! `O(E)`–`O(polylog)` distinct nodes, and every gate op runs in time
//! proportional to the number of distinct node pairs, never `2^E`.
//!
//! Unlike the flat [`crate::Re`] run-length form, this representation
//! has no pathological operand pairs: `H(6) AND H(39)` at `E = 40` — which
//! overflows the single-level encoding — is a handful of shared nodes here
//! (demonstrated in the tests). Per-node population counts make `pop` O(1)
//! after construction and `next` a single root-to-leaf descent.
//!
//! A [`TreeCtx`] covers one universe, fixed when it is built, and runs the
//! shared word-level algorithm through its [`Pbits`] gate set. Malformed
//! operands (trees from a context over another universe, or foreign node
//! ids whose heights disagree) surface as a typed [`TreeError`] instead of
//! a panic, so a bad gate program degrades gracefully.

use crate::pint::{Pbits, Pint};
use crate::symbols::SymbolTable;
use crate::{BinOp, Sym};
use pbp_aob::{Aob, InternStats, WaysError};
use std::collections::HashMap;
use std::fmt;

/// Node id in a [`TreeCtx`] arena.
pub type TId = u32;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    /// One interned 64-bit chunk symbol (level 0).
    Leaf(Sym),
    /// Two children of the next level down (lo = lower channel half).
    Branch(TId, TId),
}

/// Structural error from a nested-tree gate operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeError {
    /// The operands cover different universes (`2^ways` channel counts).
    UniverseMismatch {
        /// Entanglement degree of the left operand.
        a_ways: u32,
        /// Entanglement degree of the right operand.
        b_ways: u32,
    },
    /// The operand trees have different heights — the structural
    /// inconsistency that arises when a [`PTree`] from one context is fed
    /// to another whose arena assigns its node ids different shapes.
    HeightMismatch,
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::UniverseMismatch { a_ways, b_ways } => {
                write!(f, "operands cover different universes: {a_ways}-way vs {b_ways}-way")
            }
            TreeError::HeightMismatch => write!(f, "operand trees have different heights"),
        }
    }
}

impl std::error::Error for TreeError {}

/// A pbit in nested-tree form: a root node plus its level (the tree covers
/// `2^(level+6)` channels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PTree {
    root: TId,
    level: u32,
}

impl PTree {
    /// Entanglement degree covered by this tree.
    pub fn ways(&self) -> u32 {
        self.level + crate::CHUNK_WAYS
    }
}

/// Arena + memo tables for nested-pattern values over one universe.
#[derive(Debug)]
pub struct TreeCtx {
    /// log2 of the number of entanglement channels.
    ways: u32,
    /// Next unallocated entanglement-channel dimension.
    next_dim: u32,
    nodes: Vec<Node>,
    intern: HashMap<Node, TId>,
    /// Per-node population count (ones under this subtree).
    pops: Vec<u64>,
    /// Interned leaf chunks (one 64-bit word per symbol).
    symbols: SymbolTable,
    bin_memo: HashMap<(BinOp, TId, TId), TId>,
    not_memo: HashMap<TId, TId>,
}

impl TreeCtx {
    /// Smallest supported universe: one chunk.
    pub const MIN_WAYS: u32 = crate::CHUNK_WAYS;
    /// Largest supported universe (channel numbers and populations are
    /// `u64`).
    pub const MAX_WAYS: u32 = 63;

    /// A context whose universe has `2^ways` entanglement channels, or a
    /// typed [`WaysError`] outside [`Self::MIN_WAYS`]`..=`[`Self::MAX_WAYS`].
    pub fn new(ways: u32) -> Result<Self, WaysError> {
        WaysError::check(ways, Self::MIN_WAYS, Self::MAX_WAYS)?;
        Ok(TreeCtx {
            ways,
            next_dim: 0,
            nodes: Vec::new(),
            intern: HashMap::new(),
            pops: Vec::new(),
            symbols: SymbolTable::new(crate::CHUNK_WAYS),
            bin_memo: HashMap::new(),
            not_memo: HashMap::new(),
        })
    }

    /// Tree level of this context's universe.
    fn level(&self) -> u32 {
        self.ways - crate::CHUNK_WAYS
    }

    /// Number of distinct nodes allocated — the storage measure.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Counters of the leaf symbol table (see
    /// [`crate::PbpContext::intern_stats`]).
    pub fn intern_stats(&self) -> InternStats {
        self.symbols.stats()
    }

    fn intern_node(&mut self, n: Node) -> TId {
        if let Some(&id) = self.intern.get(&n) {
            return id;
        }
        let id = self.nodes.len() as TId;
        let pop = match n {
            Node::Leaf(s) => self.pattern(s).count_ones() as u64,
            Node::Branch(lo, hi) => self.pops[lo as usize] + self.pops[hi as usize],
        };
        self.nodes.push(n);
        self.pops.push(pop);
        self.intern.insert(n, id);
        id
    }

    /// The 64-bit word behind a leaf symbol.
    #[inline]
    fn pattern(&self, s: Sym) -> u64 {
        self.symbols.pattern(s)
    }

    fn leaf(&mut self, w: u64) -> TId {
        let s = self.symbols.sym(w);
        self.intern_node(Node::Leaf(s))
    }

    fn leaf_sym(&mut self, s: Sym) -> TId {
        self.intern_node(Node::Leaf(s))
    }

    fn branch(&mut self, lo: TId, hi: TId) -> TId {
        self.intern_node(Node::Branch(lo, hi))
    }

    /// A uniform subtree (all chunks equal) at the given level.
    fn uniform(&mut self, w: u64, level: u32) -> TId {
        let mut id = self.leaf(w);
        for _ in 0..level {
            id = self.branch(id, id);
        }
        id
    }

    /// Import an explicit AoB value.
    pub fn from_aob(&mut self, a: &Aob) -> PTree {
        crate::telem::TREE_BUILDS.inc();
        let level = a.ways().saturating_sub(crate::CHUNK_WAYS);
        assert!(a.ways() >= crate::CHUNK_WAYS, "tree form needs at least one chunk");
        let mut layer: Vec<TId> = a.words().iter().map(|&w| self.leaf(w)).collect();
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|pair| self.branch(pair[0], pair[1]))
                .collect();
        }
        PTree { root: layer[0], level }
    }

    /// Export to an explicit AoB value (small universes only).
    pub fn to_aob(&self, t: &PTree) -> Aob {
        let ways = t.ways();
        let mut v = Aob::zeros(ways);
        let mut idx = 0usize;
        self.fill_words(t.root, v.words_mut(), &mut idx);
        v
    }

    fn fill_words(&self, id: TId, out: &mut [u64], idx: &mut usize) {
        match self.nodes[id as usize] {
            Node::Leaf(s) => {
                out[*idx] = self.pattern(s);
                *idx += 1;
            }
            Node::Branch(lo, hi) => {
                self.fill_words(lo, out, idx);
                self.fill_words(hi, out, idx);
            }
        }
    }

    fn binop(&mut self, op: BinOp, a: TId, b: TId) -> Result<TId, TreeError> {
        if let Some(&r) = self.bin_memo.get(&(op, a, b)) {
            crate::telem::TREE_MEMO_HITS.inc();
            return Ok(r);
        }
        let r = match (self.nodes[a as usize], self.nodes[b as usize]) {
            (Node::Leaf(x), Node::Leaf(y)) => {
                let s = self.symbols.bin(op, x, y);
                self.leaf_sym(s)
            }
            (Node::Branch(al, ah), Node::Branch(bl, bh)) => {
                let lo = self.binop(op, al, bl)?;
                let hi = self.binop(op, ah, bh)?;
                self.branch(lo, hi)
            }
            _ => return Err(TreeError::HeightMismatch),
        };
        self.bin_memo.insert((op, a, b), r);
        Ok(r)
    }

    /// Channel-wise AND.
    pub fn and(&mut self, a: &PTree, b: &PTree) -> Result<PTree, TreeError> {
        self.gate(BinOp::And, a, b)
    }

    /// Channel-wise OR.
    pub fn or(&mut self, a: &PTree, b: &PTree) -> Result<PTree, TreeError> {
        self.gate(BinOp::Or, a, b)
    }

    /// Channel-wise XOR.
    pub fn xor(&mut self, a: &PTree, b: &PTree) -> Result<PTree, TreeError> {
        self.gate(BinOp::Xor, a, b)
    }

    fn not_rec(&mut self, id: TId) -> TId {
        if let Some(&r) = self.not_memo.get(&id) {
            return r;
        }
        let r = match self.nodes[id as usize] {
            Node::Leaf(s) => {
                let n = self.symbols.not(s);
                self.leaf_sym(n)
            }
            Node::Branch(lo, hi) => {
                let l = self.not_rec(lo);
                let h = self.not_rec(hi);
                self.branch(l, h)
            }
        };
        self.not_memo.insert(id, r);
        r
    }

    // ------------------------------------------------------------------
    // Measurement (non-destructive, sublinear)
    // ------------------------------------------------------------------

    /// Total ones — O(1): the root's cached population.
    pub fn pop_all(&self, t: &PTree) -> u64 {
        self.pops[t.root as usize]
    }

    /// ANY / ALL in O(1) via the population cache.
    pub fn any(&self, t: &PTree) -> bool {
        self.pop_all(t) != 0
    }

    /// ALL reduction.
    pub fn all(&self, t: &PTree) -> bool {
        self.pop_all(t) == 1u64 << t.ways()
    }

    /// `meas`: one root-to-leaf descent.
    pub fn get(&self, t: &PTree, e: u64) -> bool {
        let e = e & ((1u64 << t.ways()) - 1);
        let mut id = t.root;
        let mut level = t.level;
        while let Node::Branch(lo, hi) = self.nodes[id as usize] {
            level -= 1;
            let half = 1u64 << (level + crate::CHUNK_WAYS);
            id = if e & half != 0 { hi } else { lo };
        }
        let Node::Leaf(s) = self.nodes[id as usize] else { unreachable!() };
        (self.pattern(s) >> (e % crate::CHUNK_BITS)) & 1 != 0
    }

    /// `next`: lowest 1-channel strictly above `d`, `None` if no such
    /// channel exists — a single descent guided by subtree populations,
    /// O(height).
    pub fn next(&self, t: &PTree, d: u64) -> Option<u64> {
        let n = 1u64 << t.ways();
        let start = d.saturating_add(1);
        if start >= n {
            return None;
        }
        self.next_rec(t.root, t.level, 0, start)
    }

    fn next_rec(&self, id: TId, level: u32, base: u64, start: u64) -> Option<u64> {
        if self.pops[id as usize] == 0 {
            return None;
        }
        let size = 1u64 << (level + crate::CHUNK_WAYS);
        if start >= base + size {
            return None;
        }
        match self.nodes[id as usize] {
            Node::Leaf(s) => {
                let w = self.pattern(s);
                let from = start.saturating_sub(base).min(63);
                let masked = if start <= base { w } else { w & (u64::MAX << from) };
                (masked != 0).then(|| base + masked.trailing_zeros() as u64)
            }
            Node::Branch(lo, hi) => {
                let half = size / 2;
                self.next_rec(lo, level - 1, base, start)
                    .or_else(|| self.next_rec(hi, level - 1, base + half, start))
            }
        }
    }

    /// The value of a pint in one channel (descents only).
    pub fn pint_value_at(&self, p: &Pint<PTree>, e: u64) -> u64 {
        p.bits().iter().enumerate().map(|(i, b)| (self.get(b, e) as u64) << i).sum()
    }

    /// The distinct values of `p` on the 1-channels of `mask`, via `next`
    /// chaining — O(answers × height), never O(2^E). Capped at `limit`.
    pub fn pint_measure_where(&self, p: &Pint<PTree>, mask: &PTree, limit: usize) -> Vec<u64> {
        let mut out = std::collections::BTreeSet::new();
        if self.get(mask, 0) {
            out.insert(self.pint_value_at(p, 0));
        }
        let mut e = 0u64;
        while out.len() < limit {
            let Some(nx) = self.next(mask, e) else { break };
            out.insert(self.pint_value_at(p, nx));
            e = nx;
        }
        out.into_iter().collect()
    }
}

impl Pbits for TreeCtx {
    type Bit = PTree;
    type Error = TreeError;

    /// The constant pbit: `O(ways)` nodes.
    fn constant(&mut self, bit: bool) -> PTree {
        let level = self.level();
        PTree { root: self.uniform(if bit { u64::MAX } else { 0 }, level), level }
    }

    /// The Hadamard pattern `H(k)`: `O(ways)` nodes, all-zeros for
    /// `k ≥ ways`.
    fn hadamard(&mut self, k: u32) -> PTree {
        let level = self.level();
        if k >= self.ways {
            return self.constant(false);
        }
        if k < crate::CHUNK_WAYS {
            return PTree {
                root: self.uniform(pbp_aob::hadamard::LANE[k as usize], level),
                level,
            };
        }
        // Below the split level the subtree is uniform 0 (lo) / 1 (hi);
        // above it, both halves repeat the same structure.
        let split = k - crate::CHUNK_WAYS; // level whose children differ
        let lo = self.uniform(0, split);
        let hi = self.uniform(u64::MAX, split);
        let mut id = self.branch(lo, hi);
        for _ in (split + 1)..level {
            id = self.branch(id, id);
        }
        PTree { root: id, level }
    }

    /// A binary gate; operands over different universes are a
    /// [`TreeError::UniverseMismatch`].
    fn gate(&mut self, op: BinOp, a: &PTree, b: &PTree) -> Result<PTree, TreeError> {
        if a.level != b.level {
            return Err(TreeError::UniverseMismatch { a_ways: a.ways(), b_ways: b.ways() });
        }
        Ok(PTree { root: self.binop(op, a.root, b.root)?, level: a.level })
    }

    /// Channel-wise NOT (structurally infallible).
    fn not(&mut self, a: &PTree) -> PTree {
        PTree { root: self.not_rec(a.root), level: a.level }
    }

    fn alloc_dims(&mut self, n: u32) -> u32 {
        let first = self.next_dim;
        assert!(
            first + n <= self.ways,
            "out of entanglement dimensions: {first} + {n} > {}",
            self.ways
        );
        self.next_dim += n;
        first
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PbpContext;

    #[test]
    fn constants_and_hadamards_are_tiny() {
        let mut t = TreeCtx::new(40).unwrap();
        let z = t.constant(false);
        let o = t.constant(true);
        assert!(!t.any(&z));
        assert!(t.all(&o));
        // 2^40 channels in a few dozen shared nodes.
        for k in 0..40 {
            let h = t.hadamard(k);
            assert_eq!(t.pop_all(&h), 1u64 << 39, "k={k}");
        }
        assert!(t.node_count() < 1000, "{} nodes for 40 Hadamards at E=40", t.node_count());
    }

    #[test]
    fn out_of_range_universe_is_a_typed_error() {
        let err = TreeCtx::new(5).unwrap_err();
        assert_eq!(err, WaysError { ways: 5, min: TreeCtx::MIN_WAYS, max: TreeCtx::MAX_WAYS });
        assert!(TreeCtx::new(64).is_err());
    }

    #[test]
    fn matches_aob_semantics() {
        for ways in [6u32, 8, 10] {
            let mut t = TreeCtx::new(ways).unwrap();
            for k in 0..ways {
                let h = t.hadamard(k);
                assert_eq!(t.to_aob(&h), Aob::hadamard(ways, k), "ways={ways} k={k}");
            }
        }
        let mut t = TreeCtx::new(9).unwrap();
        let a = t.hadamard(3);
        let b = t.hadamard(8);
        let (aa, ab) = (Aob::hadamard(9, 3), Aob::hadamard(9, 8));
        let and = t.and(&a, &b).unwrap();
        assert_eq!(t.to_aob(&and), Aob::and_of(&aa, &ab));
        let or = t.or(&a, &b).unwrap();
        assert_eq!(t.to_aob(&or), Aob::or_of(&aa, &ab));
        let xor = t.xor(&a, &b).unwrap();
        assert_eq!(t.to_aob(&xor), Aob::xor_of(&aa, &ab));
        let not = t.not(&a);
        assert_eq!(t.to_aob(&not), aa.not_of());
    }

    #[test]
    fn measurement_matches_aob() {
        let mut t = TreeCtx::new(9).unwrap();
        let a = t.hadamard(2);
        let b = t.hadamard(7);
        let v = t.and(&a, &b).unwrap();
        let oracle = Aob::and_of(&Aob::hadamard(9, 2), &Aob::hadamard(9, 7));
        assert_eq!(t.pop_all(&v), oracle.pop_all());
        for e in 0..512u64 {
            assert_eq!(t.get(&v, e), oracle.get(e), "get {e}");
            assert_eq!(t.next(&v, e), oracle.next(e), "next {e}");
        }
        assert_eq!(t.next(&v, 0), oracle.next(0));
    }

    #[test]
    fn from_aob_roundtrip() {
        let mut st = 99u64;
        let v = Aob::from_fn(10, |_| {
            st ^= st << 13;
            st ^= st >> 7;
            st ^= st << 17;
            st & 1 != 0
        });
        let mut t = TreeCtx::new(10).unwrap();
        let tr = t.from_aob(&v);
        assert_eq!(t.to_aob(&tr), v);
        assert_eq!(t.pop_all(&tr), v.pop_all());
    }

    #[test]
    fn mismatched_universes_error_instead_of_panicking() {
        // One universe per context: the 12-way operand comes from another.
        let mut t = TreeCtx::new(8).unwrap();
        let small = t.hadamard(3);
        let large = TreeCtx::new(12).unwrap().hadamard(3);
        assert_eq!(
            t.and(&small, &large),
            Err(TreeError::UniverseMismatch { a_ways: 8, b_ways: 12 })
        );
        assert_eq!(t.or(&large, &small).unwrap_err().to_string(),
            "operands cover different universes: 12-way vs 8-way");
        // The context stays fully usable after the error.
        let ok = t.xor(&small, &small).unwrap();
        assert!(!t.any(&ok));
    }

    #[test]
    fn foreign_tree_height_mismatch_is_a_typed_error() {
        // A PTree is only meaningful in the context that built it. Feed a
        // structurally-inconsistent foreign root id (same claimed level,
        // different actual node height) and the gate must return
        // HeightMismatch, not abort the process.
        let mut host = TreeCtx::new(7).unwrap();
        let good = host.hadamard(6); // arena: leaf(0)=0, leaf(!0)=1, branch=2
        let mut other = TreeCtx::new(7).unwrap();
        let foreign = other.constant(false); // arena: leaf(0)=0, branch(0,0)=1
        // In `host`, node id 1 is a Leaf while `good.root` is a Branch.
        assert_eq!(host.and(&foreign, &good), Err(TreeError::HeightMismatch));
        assert_eq!(
            TreeError::HeightMismatch.to_string(),
            "operand trees have different heights"
        );
        // Still usable afterwards.
        let v = host.and(&good, &good).unwrap();
        assert_eq!(host.pop_all(&v), 1 << 6);
    }

    #[test]
    fn pathological_flat_re_case_is_easy_here() {
        // H(6) AND H(39) at E = 40: the flat single-level RE blows past its
        // representation budget; the nested tree handles it in O(E) nodes.
        let mut t = TreeCtx::new(40).unwrap();
        let before = t.node_count();
        let a = t.hadamard(6);
        let b = t.hadamard(39);
        let c = t.and(&a, &b).unwrap();
        assert!(t.node_count() - before < 150, "{} new nodes", t.node_count() - before);
        // Semantics: ones exactly where both bit 6 and bit 39 of e are set.
        assert_eq!(t.pop_all(&c), 1u64 << 38);
        assert!(!t.get(&c, 1 << 6));
        assert!(!t.get(&c, 1 << 39));
        assert!(t.get(&c, (1 << 6) | (1 << 39)));
        assert_eq!(t.next(&c, 0), Some((1 << 39) | (1 << 6)));
        // And the flat representation indeed refuses:
        let mut ctx = PbpContext::new(40);
        let fa = ctx.hadamard(6);
        let fb = ctx.hadamard(39);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ctx.and(&fa, &fb)));
        assert!(r.is_err(), "flat RE should hit its representation budget");
    }

    #[test]
    fn hash_consing_shares_subtrees_across_values() {
        let mut t = TreeCtx::new(30).unwrap();
        let h1 = t.hadamard(10);
        let h2 = t.hadamard(10);
        assert_eq!(h1, h2); // literally the same node id
        let n1 = t.node_count();
        let _h3 = t.hadamard(11); // shares all the uniform subtrees
        assert!(t.node_count() - n1 < 40);
    }

    #[test]
    fn memoization_makes_repeated_ops_free() {
        let mut t = TreeCtx::new(32).unwrap();
        let a = t.hadamard(5);
        let b = t.hadamard(30);
        let c1 = t.and(&a, &b).unwrap();
        let nodes_after_first = t.node_count();
        let c2 = t.and(&a, &b).unwrap();
        assert_eq!(c1, c2);
        assert_eq!(t.node_count(), nodes_after_first);
    }

    #[test]
    fn gate_identities_hold_at_scale() {
        let mut t = TreeCtx::new(36).unwrap();
        let a = t.hadamard(7);
        let b = t.hadamard(33);
        // De Morgan at 2^36 channels, structurally.
        let and_ab = t.and(&a, &b).unwrap();
        let lhs = t.not(&and_ab);
        let na = t.not(&a);
        let nb = t.not(&b);
        let rhs = t.or(&na, &nb).unwrap();
        assert_eq!(lhs, rhs, "hash-consing makes equal values identical nodes");
        // x ^ x = 0.
        let z = t.xor(&a, &a).unwrap();
        assert!(!t.any(&z));
    }

    #[test]
    fn next_deep_descent() {
        // A single 1 at the very last channel of a 2^36 universe.
        let mut t = TreeCtx::new(36).unwrap();
        let h = (0..36).fold(t.constant(true), |acc, k| {
            let hk = t.hadamard(k);
            t.and(&acc, &hk).unwrap()
        });
        // acc = AND of all H(k) = 1 only where every bit set = last channel.
        assert_eq!(t.pop_all(&h), 1);
        let last = (1u64 << 36) - 1;
        assert_eq!(t.next(&h, 0), Some(last));
        assert_eq!(t.next(&h, last), None);
        assert!(t.get(&h, last));
    }
}

#[cfg(test)]
mod pint_tests {
    use super::*;

    #[test]
    fn arithmetic_matches_u64_per_channel() {
        let mut t = TreeCtx::new(12).unwrap();
        let a = t.pint_h_auto(4);
        let b = t.pint_h_auto(4);
        let s = t.pint_add(&a, &b).unwrap();
        let m = t.pint_mul(&a, &b).unwrap();
        for e in (0..4096u64).step_by(37) {
            let (x, y) = (e & 0xF, (e >> 4) & 0xF);
            assert_eq!(t.pint_value_at(&s, e), x + y, "add e={e}");
            assert_eq!(t.pint_value_at(&m, e), x * y, "mul e={e}");
        }
    }

    #[test]
    fn figure9_factoring_on_trees_at_16_way() {
        // Same algorithm, same answers as the flat engines.
        let mut t = TreeCtx::new(16).unwrap();
        let n = t.pint_mk(8, 221);
        let b = t.pint_h_auto(8);
        let c = t.pint_h_auto(8);
        let d = t.pint_mul(&b, &c).unwrap();
        let e = t.pint_eq(&d, &n).unwrap();
        assert_eq!(t.pop_all(&e), 4);
        let factors = t.pint_measure_where(&b, &e, 100);
        assert_eq!(factors, vec![1, 13, 17, 221]);
    }

    #[test]
    fn factoring_beyond_the_papers_hardware_20_way() {
        // 899 = 29 × 31 with 10-bit operands: 20-way entanglement —
        // 1,048,576 channels, beyond the 16-way Qat register and beyond
        // what the flat RE survives for this op mix. The nested trees
        // factor it symbolically.
        let mut t = TreeCtx::new(20).unwrap();
        let n = t.pint_mk(10, 899);
        let b = t.pint_h_auto(10);
        let c = t.pint_h_auto(10);
        let d = t.pint_mul(&b, &c).unwrap();
        let e = t.pint_eq(&d, &n).unwrap();
        assert_eq!(t.pop_all(&e), 4);
        let factors = t.pint_measure_where(&b, &e, 100);
        assert_eq!(factors, vec![1, 29, 31, 899]);
    }

    #[test]
    fn prime_detection_at_18_way() {
        // 509 is prime: only the trivial pairs (1,509),(509,1) satisfy.
        let mut t = TreeCtx::new(18).unwrap();
        let n = t.pint_mk(9, 509);
        let b = t.pint_h_auto(9);
        let c = t.pint_h_auto(9);
        let d = t.pint_mul(&b, &c).unwrap();
        let e = t.pint_eq(&d, &n).unwrap();
        assert_eq!(t.pop_all(&e), 2);
        assert_eq!(t.pint_measure_where(&b, &e, 100), vec![1, 509]);
    }

    #[test]
    fn mismatched_pint_operands_degrade_gracefully() {
        // A bad gate program mixing universes gets an Err from the whole
        // pint layer instead of aborting the simulator.
        let mut t = TreeCtx::new(10).unwrap();
        let a = t.pint_h_auto(4);
        let b = TreeCtx::new(12).unwrap().pint_h_auto(4);
        assert!(matches!(t.pint_add(&a, &b), Err(TreeError::UniverseMismatch { .. })));
        assert!(matches!(t.pint_mul(&a, &b), Err(TreeError::UniverseMismatch { .. })));
        assert!(matches!(t.pint_eq(&a, &b), Err(TreeError::UniverseMismatch { .. })));
        // And the context still works for well-formed programs.
        let ok = t.pint_add(&a, &a).unwrap();
        assert_eq!(t.pint_value_at(&ok, 5), 2 * 5);
    }

    #[test]
    fn measure_where_empty_and_capped() {
        let mut t = TreeCtx::new(10).unwrap();
        let b = t.pint_h_auto(4);
        let never = t.constant(false);
        assert!(t.pint_measure_where(&b, &never, 100).is_empty());
        let always = t.constant(true);
        let capped = t.pint_measure_where(&b, &always, 3);
        assert_eq!(capped.len(), 3);
    }
}
