//! The flat word table behind the RE layer's chunk symbols.
//!
//! A chunk symbol is one 64-bit word, so the table is a `Vec<u64>` of
//! patterns indexed by [`Sym`] plus one `u64 → Sym` map. Ids are dense and
//! handed out in first-intern order after the constant bank
//! `[0, 1, H(0) .. H(min(ways, 6) - 1)]`, which is the order a
//! [`pbp_aob::ChunkStore`] of the same degree uses. So the ids a packed
//! `Lit` word carries are the ones that store would have issued.
//!
//! There is no op cache: a one-word gate is one ALU op, cheaper than any
//! probe, so [`SymbolTable::bin`] and [`SymbolTable::not`] compute the word
//! and intern it. Only the algebraic identities of [`ChunkStore`] skip the
//! map.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use pbp_aob::{ChunkStore, GateOp, InternStats};

use crate::{Sym, CHUNK_WAYS, SYM_ONE, SYM_ZERO};

/// Hasher of the word → id map. The map's bucket index is the hash's low
/// bits, so they must depend on all 64 key bits: the patterns of one
/// factoring run often differ only in their high half, and a plain
/// multiply (whose low bits see only the key's low bits) piles those into
/// one bucket chain. A widening multiply folded with an xor mixes every
/// key bit into every hash bit.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        let x = u128::from(v) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (x as u64) ^ ((x >> 64) as u64);
    }
}

/// Dense table of interned chunk words. See the module docs.
#[derive(Debug, Clone)]
pub(crate) struct SymbolTable {
    /// Pattern of each symbol, indexed by its raw id.
    words: Vec<u64>,
    ids: HashMap<u64, Sym, BuildHasherDefault<WordHasher>>,
    /// Live-channel mask: all ones from 6 ways up, the low `2^ways` bits
    /// below, so sub-chunk universes never intern padding.
    mask: u64,
    stats: InternStats,
}

impl SymbolTable {
    /// A table for chunks of `2^min(ways, 6)` live bits, with the constant
    /// bank pre-interned at the canonical ids.
    pub(crate) fn new(ways: u32) -> Self {
        let ways = ways.min(CHUNK_WAYS);
        let mask = if ways == CHUNK_WAYS { u64::MAX } else { (1u64 << (1u32 << ways)) - 1 };
        let mut t = SymbolTable {
            words: Vec::new(),
            ids: HashMap::default(),
            mask,
            stats: InternStats::default(),
        };
        let lanes = pbp_aob::hadamard::LANE[..ways as usize].iter().copied();
        for w in [0, u64::MAX].into_iter().chain(lanes) {
            t.insert(w & mask);
        }
        debug_assert_eq!(t.words.len(), ways as usize + 2, "the bank never dedups");
        t.stats.chunks = t.words.len() as u64;
        t
    }

    /// Number of distinct symbols interned.
    pub(crate) fn len(&self) -> usize {
        self.words.len()
    }

    /// Hit/miss counters: an op is a `miss` when it interns a new pattern
    /// and a `hit` otherwise. `evictions` is always 0.
    pub(crate) fn stats(&self) -> InternStats {
        self.stats
    }

    /// Pattern of a symbol.
    #[inline]
    pub(crate) fn pattern(&self, s: Sym) -> u64 {
        self.words[s.raw() as usize]
    }

    /// The id of a masked word, and whether it was new.
    #[inline]
    fn insert(&mut self, w: u64) -> (Sym, bool) {
        match self.ids.entry(w) {
            Entry::Occupied(e) => (*e.get(), false),
            Entry::Vacant(e) => {
                let s = Sym::from_raw(self.words.len() as u32);
                self.words.push(w);
                self.stats.chunks = self.words.len() as u64;
                (*e.insert(s), true)
            }
        }
    }

    /// Intern a chunk word (bits past the live channels are masked off).
    pub(crate) fn sym(&mut self, w: u64) -> Sym {
        let (s, new) = self.insert(w & self.mask);
        if !new {
            self.stats.dedup_hits += 1;
        }
        s
    }

    /// Account an op that ended on an existing symbol.
    #[inline]
    fn hit(&mut self, s: Sym) -> Sym {
        self.stats.hits += 1;
        self.stats.dedup_hits += 1;
        s
    }

    /// Intern an op's (already masked) result word.
    #[inline]
    fn result(&mut self, w: u64) -> Sym {
        match self.insert(w) {
            (s, true) => {
                self.stats.misses += 1;
                s
            }
            (s, false) => self.hit(s),
        }
    }

    /// Binary gate on two symbols.
    pub(crate) fn bin(&mut self, op: GateOp, a: Sym, b: Sym) -> Sym {
        // The algebraic identities: the result is an operand or a
        // constant, so no word is computed or looked up.
        if let Some(s) = ChunkStore::binop_shortcut(op, a, b) {
            return self.hit(s);
        }
        let (x, y) = (self.pattern(a), self.pattern(b));
        self.result(match op {
            GateOp::And => x & y,
            GateOp::Or => x | y,
            GateOp::Xor => x ^ y,
        })
    }

    /// Channel-wise NOT of a symbol.
    pub(crate) fn not(&mut self, a: Sym) -> Sym {
        if a == SYM_ZERO {
            return self.hit(SYM_ONE);
        }
        if a == SYM_ONE {
            return self.hit(SYM_ZERO);
        }
        self.result(!self.pattern(a) & self.mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbp_aob::Aob;
    use proptest::prelude::*;

    /// `w` as a chunk of a `ways`-degree store (padding masked).
    fn chunk(ways: u32, w: u64) -> Aob {
        let mut v = Aob::zeros(ways);
        v.words_mut()[0] = w;
        v.normalize();
        v
    }

    #[test]
    fn bank_matches_the_store_bank() {
        for ways in 1..=8u32 {
            let t = SymbolTable::new(ways);
            let s = ChunkStore::new(ways.min(CHUNK_WAYS));
            assert_eq!(t.len(), s.len(), "ways {ways}");
            for id in 0..t.len() as u32 {
                let id = Sym::from_raw(id);
                assert_eq!(t.pattern(id), s.aob(id).words()[0], "ways {ways} id {id}");
            }
            assert_eq!(t.stats(), InternStats { chunks: t.len() as u64, ..InternStats::default() });
        }
    }

    #[test]
    fn hits_and_misses_count_new_patterns() {
        let mut t = SymbolTable::new(6);
        let a = t.sym(0xF0F0);
        let b = t.sym(0x0FF0);
        assert_eq!(t.sym(0xF0F0), a);
        let c = t.bin(GateOp::And, a, b); // 0x00F0: new
        assert_eq!(t.bin(GateOp::And, b, a), c); // existing pattern
        assert_eq!(t.bin(GateOp::Xor, a, a), SYM_ZERO); // shortcut
        assert_eq!(t.not(SYM_ONE), SYM_ZERO); // shortcut
        let s = t.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (3, 1, 0));
        assert_eq!(s.dedup_hits, 3 + 1, "hits plus the repeated sym()");
        assert_eq!(s.chunks, 8 + 3);
    }

    #[test]
    fn sub_chunk_tables_mask_padding() {
        let mut t = SymbolTable::new(2);
        assert_eq!(t.sym(u64::MAX), SYM_ONE);
        assert_eq!(t.pattern(SYM_ONE), 0xF);
        let h0 = t.sym(pbp_aob::hadamard::LANE[0]);
        let n = t.not(h0);
        assert_eq!(t.pattern(n), 0x5);
    }

    /// One step of a random symbol workload: intern a word, or apply an op
    /// to two symbols picked by index among those produced so far.
    #[derive(Debug, Clone)]
    enum Step {
        Sym(u64),
        Op(u8, usize, usize),
    }

    fn steps() -> impl Strategy<Value = Vec<Step>> {
        proptest::collection::vec(
            prop_oneof![
                any::<u64>().prop_map(Step::Sym),
                // Hadamard-lane mixes, so ops meet existing patterns often.
                (0usize..6, 0usize..6, any::<bool>()).prop_map(|(i, j, and)| {
                    let lane = pbp_aob::hadamard::LANE;
                    Step::Sym(if and { lane[i] & lane[j] } else { lane[i] ^ lane[j] })
                }),
                (0u8..4, any::<usize>(), any::<usize>()).prop_map(|(op, a, b)| Step::Op(op, a, b)),
            ],
            1..64,
        )
    }

    proptest! {
        /// The table issues the same ids for the same patterns as a
        /// `ChunkStore` of the same degree — the parity that keeps packed
        /// command words, and so the packed footprint, exact.
        #[test]
        fn ids_match_the_chunk_store(ways in 1u32..=6, steps in steps()) {
            let mut t = SymbolTable::new(ways);
            let mut s = ChunkStore::new(ways);
            let mut ids: Vec<Sym> = (0..t.len() as u32).map(Sym::from_raw).collect();
            for step in steps {
                let (got, want) = match step {
                    Step::Sym(w) => (t.sym(w), s.intern(chunk(ways, w))),
                    Step::Op(op, a, b) => {
                        let (a, b) = (ids[a % ids.len()], ids[b % ids.len()]);
                        match op {
                            0 => (t.not(a), s.not(a)),
                            1 => (t.bin(GateOp::And, a, b), s.binop(GateOp::And, a, b)),
                            2 => (t.bin(GateOp::Or, a, b), s.binop(GateOp::Or, a, b)),
                            _ => (t.bin(GateOp::Xor, a, b), s.binop(GateOp::Xor, a, b)),
                        }
                    }
                };
                prop_assert_eq!(got, want);
                prop_assert_eq!(t.pattern(got), s.aob(want).words()[0]);
                ids.push(got);
            }
            prop_assert_eq!(t.len(), s.len());
            let (ts, ss) = (t.stats(), s.stats());
            prop_assert_eq!(ts.chunks, ss.chunks);
            prop_assert_eq!(ts.hits + ts.misses, ss.hits + ss.misses);
        }
    }
}
