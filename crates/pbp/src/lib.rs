#![warn(missing_docs)]
//! # pbp — the parallel bit pattern model (the software-only prototype)
//!
//! This crate rebuilds the LCPC'20 software-only PBP engine the paper's
//! Figure 9 program runs on, and the §1.2 **RE representation**: instead of
//! storing a `2^E`-bit AoB vector explicitly, a pbit is stored as a
//! run-length-compressed *regular expression* over fixed-size chunk
//! symbols, with an outer repetition — `(0^a 1^a)^b` style patterns.
//! "By storing and operating directly on REs, parallel bit pattern
//! computing reduces both storage requirements and computational
//! complexity by as much as an exponential factor."
//!
//! * Chunks are 64-bit words, interned in a flat per-context word table:
//!   an RE symbol ([`Sym`]) is a dense index into a `Vec<u64>` of
//!   patterns, so equal chunks share one id and run-length compression
//!   works on ids. The ids are the ones a [`CHUNK_WAYS`]-way
//!   [`pbp_aob::ChunkStore`] would issue in the same order (the prototype
//!   used 4096-bit chunks; the paper's own hardware proposal is that
//!   65,536-bit AoB values become the RE symbols — the chunk size is a
//!   representation parameter, and 64 bits maps naturally onto host
//!   words).
//! * Gate operations act symbol-wise — one ALU op and one table probe per
//!   run pair, with no op cache — so an operation on two pbits costs
//!   `O(runs)`, independent of `2^E`.
//! * Measurement (`get`/`next`/`pop`/`any`/`all`) walks runs, giving the
//!   `O(1)`-ish summaries of §2.7 even for huge universes.
//! * The [`Pint`] word-level API reproduces the Figure 9 programming
//!   model: `pint_mk`, `pint_h`, `pint_add`, `pint_mul`, `pint_eq`,
//!   non-destructive `measure`. The word ops are written once, as the
//!   provided methods of the [`Pbits`] gate-set trait, which the RE
//!   context, the nested [`TreeCtx`] and `gatec`'s netlist recorder
//!   implement.
//!
//! The representation is differentially tested against the explicit
//! [`pbp_aob::Aob`] substrate for universes small enough to expand.

pub mod algos;
mod packed;
mod pint;
mod re;
pub mod storage;
mod symbols;
pub(crate) mod telem;
pub mod tree;

pub use algos::Cnf;
pub use pint::{MeasuredValue, Pbits, Pint};
pub use re::Re;
pub use storage::SparseReFile;
pub use tree::{PTree, TreeCtx, TreeError};

use pbp_aob::{ChunkId, GateOp, InternStats, WaysError};

use crate::re::Run;
use crate::symbols::SymbolTable;

/// Chunk width in bits (one symbol covers this many entanglement channels).
pub const CHUNK_BITS: u64 = 64;
/// log2 of the chunk width.
pub const CHUNK_WAYS: u32 = 6;

/// Interned chunk-symbol id: a dense index into the context's word table.
/// It keeps the [`ChunkId`] type because packed `Lit` command words carry
/// these ids, and they are exactly the ids a [`pbp_aob::ChunkStore`] of the
/// same degree would hand out.
pub type Sym = ChunkId;

/// Binary gate selector for symbol ops.
pub(crate) type BinOp = GateOp;

/// The PBP execution context: universe size, the chunk-symbol table, and
/// the entanglement-channel allocator.
#[derive(Debug, Clone)]
pub struct PbpContext {
    universe_ways: u32,
    /// Interned chunk words, one 64-bit word per symbol, masked to the
    /// live channels below [`CHUNK_WAYS`].
    symbols: SymbolTable,
    /// Scratch run list the gate kernels build a result period in, kept
    /// between gates so that a result's only allocation is its packing.
    runs: Vec<Run>,
    /// Next unallocated entanglement-channel dimension.
    next_dim: u32,
}

/// Symbol id of the all-zeros chunk (the table's canonical zero).
pub const SYM_ZERO: Sym = pbp_aob::ID_ZERO;
/// Symbol id of the all-ones chunk (the table's canonical one).
pub const SYM_ONE: Sym = pbp_aob::ID_ONE;

/// Smallest supported `universe_ways`.
pub const MIN_UNIVERSE_WAYS: u32 = 1;
/// Largest supported `universe_ways` (the run arithmetic is exact far
/// beyond that, but 2^40 channels is already a trillion possible worlds).
pub const MAX_UNIVERSE_WAYS: u32 = 40;

impl PbpContext {
    /// A context whose universe has `2^universe_ways` entanglement
    /// channels, or a typed [`WaysError`] outside
    /// [`MIN_UNIVERSE_WAYS`]`..=`[`MAX_UNIVERSE_WAYS`].
    ///
    /// Universes smaller than one chunk (`universe_ways < CHUNK_WAYS`)
    /// are supported by interning at the sub-chunk degree: the table
    /// masks padding bits on every interned word, so the RE layer's
    /// canonical zero/one symbols are already the *masked* constants and
    /// no measurement can observe padding.
    pub fn try_new(universe_ways: u32) -> Result<Self, WaysError> {
        WaysError::check(universe_ways, MIN_UNIVERSE_WAYS, MAX_UNIVERSE_WAYS)?;
        // The table pre-interns the constant bank [0, 1, H(0)..], so
        // SYM_ZERO / SYM_ONE are its canonical first two ids.
        let symbols = SymbolTable::new(universe_ways);
        Ok(PbpContext { universe_ways, symbols, runs: Vec::new(), next_dim: 0 })
    }

    /// Panicking convenience wrapper around [`PbpContext::try_new`].
    pub fn new(universe_ways: u32) -> Self {
        Self::try_new(universe_ways).unwrap_or_else(|e| {
            panic!(
                "universe_ways must be in {MIN_UNIVERSE_WAYS}..={MAX_UNIVERSE_WAYS}: {e}"
            )
        })
    }

    /// log2 of the number of entanglement channels.
    pub fn universe_ways(&self) -> u32 {
        self.universe_ways
    }

    /// Number of entanglement channels, `2^universe_ways`.
    pub fn channels(&self) -> u64 {
        1u64 << self.universe_ways
    }

    /// Universe size in chunks (1 for sub-chunk universes, whose single
    /// chunk is masked to the live channels).
    pub fn total_chunks(&self) -> u64 {
        1u64 << self.universe_ways.saturating_sub(CHUNK_WAYS)
    }

    /// Number of distinct chunk symbols interned so far (includes the
    /// 8-entry constant bank).
    pub fn symbol_count(&self) -> usize {
        self.symbols.len()
    }

    /// Symbol-table counters: `chunks` counts symbols; a symbol op is a
    /// `miss` when it interns a new pattern and a `hit` otherwise (an
    /// algebraic shortcut or an existing pattern); `dedup_hits` adds the
    /// interned words that were already present; `evictions` is 0.
    pub fn intern_stats(&self) -> InternStats {
        self.symbols.stats()
    }

    /// Intern a chunk pattern.
    pub(crate) fn sym(&mut self, chunk: u64) -> Sym {
        self.symbols.sym(chunk)
    }

    /// Pattern of a symbol.
    #[inline]
    pub(crate) fn pattern(&self, s: Sym) -> u64 {
        self.symbols.pattern(s)
    }

    /// Binary op on symbols.
    pub(crate) fn bin_sym(&mut self, op: BinOp, a: Sym, b: Sym) -> Sym {
        self.symbols.bin(op, a, b)
    }

    /// NOT on a symbol.
    pub(crate) fn not_sym(&mut self, a: Sym) -> Sym {
        self.symbols.not(a)
    }

    /// Dimensions allocated so far ([`Pbits::alloc_dims`]).
    pub fn dims_used(&self) -> u32 {
        self.next_dim
    }

    /// Reset the dimension allocator (symbols stay interned).
    pub fn reset_dims(&mut self) {
        self.next_dim = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table's preloaded constant bank: 0, 1, H(0)..H(5).
    const BANK: usize = 8;

    #[test]
    fn context_basics() {
        let ctx = PbpContext::new(16);
        assert_eq!(ctx.channels(), 65_536);
        assert_eq!(ctx.total_chunks(), 1024);
        assert_eq!(ctx.symbol_count(), BANK);
    }

    #[test]
    fn out_of_range_universe_is_a_typed_error() {
        assert_eq!(
            PbpContext::try_new(0).unwrap_err(),
            pbp_aob::WaysError { ways: 0, min: MIN_UNIVERSE_WAYS, max: MAX_UNIVERSE_WAYS }
        );
        assert!(PbpContext::try_new(41).is_err());
        // Sub-chunk universes are supported (masked single-chunk symbols).
        let ctx = PbpContext::try_new(5).unwrap();
        assert_eq!(ctx.channels(), 32);
        assert_eq!(ctx.total_chunks(), 1);
    }

    #[test]
    #[should_panic(expected = "universe_ways")]
    fn too_large_universe_rejected() {
        PbpContext::new(41);
    }

    #[test]
    fn interning_dedupes() {
        let mut ctx = PbpContext::new(8);
        let a = ctx.sym(0xDEAD_BEEF);
        let b = ctx.sym(0xDEAD_BEEF);
        assert_eq!(a, b);
        assert_eq!(ctx.symbol_count(), BANK + 1);
    }

    #[test]
    fn canonical_symbols_match_the_bank() {
        let mut ctx = PbpContext::new(8);
        assert_eq!(ctx.sym(0), SYM_ZERO);
        assert_eq!(ctx.sym(u64::MAX), SYM_ONE);
        // H(0)'s chunk word is the bank's canonical H(0).
        let h0 = ctx.sym(pbp_aob::hadamard::LANE[0]);
        assert_eq!(h0.raw(), 2);
    }

    #[test]
    fn symbol_ops_count_existing_patterns_as_hits() {
        let mut ctx = PbpContext::new(8);
        let a = ctx.sym(0xF0F0_F0F0_F0F0_F0F0);
        let r1 = ctx.bin_sym(BinOp::And, a, SYM_ONE);
        let r2 = ctx.bin_sym(BinOp::And, a, SYM_ONE);
        assert_eq!(r1, r2);
        assert_eq!(r1, a);
        let n = ctx.not_sym(SYM_ZERO);
        assert_eq!(n, SYM_ONE);
        assert!(ctx.intern_stats().hits >= 2);
    }

    #[test]
    fn dimension_allocator() {
        let mut ctx = PbpContext::new(10);
        assert_eq!(ctx.alloc_dims(4), 0);
        assert_eq!(ctx.alloc_dims(4), 4);
        assert_eq!(ctx.dims_used(), 8);
        ctx.reset_dims();
        assert_eq!(ctx.alloc_dims(10), 0);
    }

    #[test]
    #[should_panic(expected = "out of entanglement dimensions")]
    fn overallocation_panics() {
        let mut ctx = PbpContext::new(8);
        ctx.alloc_dims(9);
    }
}
