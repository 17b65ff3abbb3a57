//! The RE (run-length / repetition) compressed pbit representation (§1.2).
//!
//! A [`Re`] stores a pbit's `2^E`-bit AoB vector as a *period* — a list of
//! `(symbol, run-length)` pairs over interned 64-bit chunks — repeated
//! `reps` times to cover the universe. The Hadamard constants, the values
//! quantum-inspired algorithms actually manipulate, compress to one or two
//! runs regardless of `E`: `H(k)` for `k ≥ 6` is literally `(0^m 1^m)^r`,
//! the paper's run-length-encoding example scaled to chunk granularity.
//!
//! All gate operations work run-zipper-wise with memoized symbol ops, and
//! all measurements walk runs — nothing is ever `O(2^E)` unless the value
//! itself has `O(2^E)` entropy.
//!
//! The period itself is stored in the packed hybrid encoding of
//! [`crate::packed::PackedRuns`] — one or two tagged `u32` command words
//! per run — rather than a flat `Vec<Run>`, so a constant run costs 4
//! bytes instead of 16 while every operation still runs over the logical
//! runs.

use crate::packed::PackedRuns;
use crate::{BinOp, PbpContext, Sym, CHUNK_BITS, CHUNK_WAYS, SYM_ONE, SYM_ZERO};
use pbp_aob::Aob;

/// One run: `len` consecutive chunks of the same symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Interned chunk symbol.
    pub sym: Sym,
    /// Run length in chunks (≥ 1).
    pub len: u64,
}

/// A compressed pbit: a packed-encoded `period` repeated `reps` times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Re {
    period: PackedRuns,
    reps: u64,
}

impl Re {
    /// Logical runs in the stored period — the §1.2 compression measure.
    pub fn storage_runs(&self) -> usize {
        self.period.runs()
    }

    /// Stored period footprint in packed `u32` command words — one per
    /// constant or single-chunk run, two per other run, plus spill words
    /// for runs longer than `2^29 - 1` chunks.
    pub fn packed_words(&self) -> usize {
        self.period.words()
    }

    /// Outer repetition count.
    pub fn reps(&self) -> u64 {
        self.reps
    }

    /// Period length in chunks.
    pub fn period_chunks(&self) -> u64 {
        self.period.chunks()
    }

    /// Total chunks covered (must equal the context's universe).
    pub fn total_chunks(&self) -> u64 {
        self.period_chunks() * self.reps
    }

    /// `u32` words a flat `Vec<Run>` period would occupy (16 bytes per
    /// run) — the baseline the packed encoding is measured against.
    pub fn flat_run_words(&self) -> usize {
        self.storage_runs() * 4
    }
}

/// Merge adjacent equal-symbol runs in place.
fn merge_adjacent(runs: &mut Vec<Run>) {
    let mut out: Vec<Run> = Vec::with_capacity(runs.len());
    for r in runs.drain(..) {
        match out.last_mut() {
            Some(last) if last.sym == r.sym => last.len += r.len,
            _ => out.push(r),
        }
    }
    *runs = out;
}

/// Split a run list at an absolute chunk position (splitting a straddling
/// run if necessary). Returns (left, right).
fn split_at_chunk(runs: &[Run], pos: u64) -> (Vec<Run>, Vec<Run>) {
    let mut left = Vec::new();
    let mut right = Vec::new();
    let mut acc = 0u64;
    for r in runs {
        if acc >= pos {
            right.push(*r);
        } else if acc + r.len <= pos {
            left.push(*r);
        } else {
            let l = pos - acc;
            left.push(Run { sym: r.sym, len: l });
            right.push(Run { sym: r.sym, len: r.len - l });
        }
        acc += r.len;
    }
    (left, right)
}

impl PbpContext {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// The constant pbit (0 or 1) — one run.
    pub fn constant(&mut self, bit: bool) -> Re {
        let sym = if bit { SYM_ONE } else { SYM_ZERO };
        Re { period: PackedRuns::pack(&[Run { sym, len: 1 }]), reps: self.total_chunks() }
    }

    /// The Hadamard pattern `H(k)`: bit `e` is bit `k` of channel number
    /// `e`. Compresses to ≤ 2 runs for any `k` (the RE representation's
    /// showcase). For `k ≥ universe_ways` the result is all-zeros.
    pub fn hadamard(&mut self, k: u32) -> Re {
        if k >= self.universe_ways() {
            return self.constant(false);
        }
        if k < CHUNK_WAYS {
            let sym = self.sym(pbp_aob::hadamard::LANE[k as usize]);
            return Re {
                period: PackedRuns::pack(&[Run { sym, len: 1 }]),
                reps: self.total_chunks(),
            };
        }
        let m = 1u64 << (k - CHUNK_WAYS);
        Re {
            period: PackedRuns::pack(&[
                Run { sym: SYM_ZERO, len: m },
                Run { sym: SYM_ONE, len: m },
            ]),
            reps: self.total_chunks() / (2 * m),
        }
    }

    /// Import an explicit AoB vector (universe must match; sub-chunk
    /// universes store their single masked chunk symbol, so padding bits
    /// never reach the RE layer).
    pub fn from_aob(&mut self, a: &Aob) -> Re {
        assert_eq!(
            a.ways(),
            self.universe_ways(),
            "AoB degree must match the context universe"
        );
        let mut runs: Vec<Run> = Vec::new();
        for &w in a.words() {
            let sym = self.sym(w);
            match runs.last_mut() {
                Some(last) if last.sym == sym => last.len += 1,
                _ => runs.push(Run { sym, len: 1 }),
            }
        }
        self.build_re(runs, 1)
    }

    /// Expand to an explicit AoB vector (test oracle; only for universes
    /// that fit [`pbp_aob::MAX_WAYS`]).
    pub fn to_aob(&self, re: &Re) -> Aob {
        let ways = self.universe_ways();
        let mut v = Aob::zeros(ways);
        let runs = re.period.decode();
        let mut idx = 0usize;
        for _ in 0..re.reps {
            for r in &runs {
                let pat = self.pattern(r.sym);
                for _ in 0..r.len {
                    v.words_mut()[idx] = pat;
                    idx += 1;
                }
            }
        }
        v
    }

    // ------------------------------------------------------------------
    // Canonicalization
    // ------------------------------------------------------------------

    /// Canonicalize a raw run list — merge adjacent equal-symbol runs,
    /// shrink the period by halving while both halves agree — then pack
    /// it. Packing is deterministic, so structurally equal pbits compare
    /// equal on the packed words.
    fn build_re(&self, mut period: Vec<Run>, mut reps: u64) -> Re {
        merge_adjacent(&mut period);
        loop {
            let pc: u64 = period.iter().map(|r| r.len).sum();
            if pc % 2 != 0 {
                break;
            }
            let (l, r) = split_at_chunk(&period, pc / 2);
            let mut lm = l;
            let mut rm = r;
            merge_adjacent(&mut lm);
            merge_adjacent(&mut rm);
            if lm == rm {
                period = lm;
                reps *= 2;
            } else {
                break;
            }
        }
        Re { period: PackedRuns::pack(&period), reps }
    }

    // ------------------------------------------------------------------
    // Gate operations
    // ------------------------------------------------------------------

    /// Channel-wise NOT.
    pub fn not(&mut self, a: &Re) -> Re {
        let period = a
            .period
            .iter()
            .map(|r| Run { sym: self.not_sym(r.sym), len: r.len })
            .collect();
        self.build_re(period, a.reps)
    }

    fn binop(&mut self, op: BinOp, a: &Re, b: &Re) -> Re {
        let total = self.total_chunks();
        let pa = a.period_chunks();
        let pb = b.period_chunks();
        // Combined period: lcm of the operand periods; anything that does
        // not divide the universe degenerates to the full universe.
        let g = gcd(pa, pb);
        let lcm = pa / g * pb;
        let p = if lcm >= total || total % lcm != 0 { total } else { lcm };

        let mut period = Vec::new();
        let runs_a = a.period.decode();
        let runs_b = b.period.decode();
        let mut ia = RunCursor::new(&runs_a);
        let mut ib = RunCursor::new(&runs_b);
        let mut covered = 0u64;
        let mut steps = 0u64;
        while covered < p {
            steps += 1;
            assert!(
                steps <= 1 << 22,
                "RE operation result exceeds the single-level representation \
                 budget ({} of {} chunks combined); operands with widely \
                 mismatched small periods need nested REs (future work in \
                 the paper, §5)",
                covered,
                p
            );
            let (sa, ra) = ia.current();
            let (sb, rb) = ib.current();
            let step = ra.min(rb).min(p - covered);
            let sym = self.bin_sym(op, sa, sb);
            match period.last_mut() {
                Some(Run { sym: s, len }) if *s == sym => *len += step,
                _ => period.push(Run { sym, len: step }),
            }
            ia.advance(step);
            ib.advance(step);
            covered += step;
        }
        let re = self.build_re(period, total / p);
        crate::telem::RE_GATES.inc();
        crate::telem::RE_COMPRESSION.record(total / re.storage_runs().max(1) as u64);
        crate::telem::RE_PACKED_WORDS.record(re.packed_words() as u64);
        crate::telem::RE_PACKED_RATIO
            .record((re.flat_run_words() / re.packed_words().max(1)) as u64);
        re
    }

    /// `AND` of two pbits.
    pub fn and(&mut self, a: &Re, b: &Re) -> Re {
        self.binop(BinOp::And, a, b)
    }

    /// `OR` of two pbits.
    pub fn or(&mut self, a: &Re, b: &Re) -> Re {
        self.binop(BinOp::Or, a, b)
    }

    /// `XOR` of two pbits.
    pub fn xor(&mut self, a: &Re, b: &Re) -> Re {
        self.binop(BinOp::Xor, a, b)
    }

    /// Channel-wise multiplexor `sel ? t : f` (the Fredkin/BDD view).
    pub fn mux(&mut self, sel: &Re, t: &Re, f: &Re) -> Re {
        let st = self.and(sel, t);
        let ns = self.not(sel);
        let sf = self.and(&ns, f);
        self.or(&st, &sf)
    }

    /// Semantic equality (structural canonical forms can differ by phase).
    pub fn re_eq(&mut self, a: &Re, b: &Re) -> bool {
        let x = self.xor(a, b);
        !self.re_any(&x)
    }

    // ------------------------------------------------------------------
    // Measurement (all non-destructive, all O(runs))
    // ------------------------------------------------------------------

    /// Symbol at an absolute chunk index.
    fn sym_at_chunk(&self, re: &Re, chunk: u64) -> Sym {
        let pc = re.period_chunks();
        let mut off = chunk % pc;
        for r in re.period.iter() {
            if off < r.len {
                return r.sym;
            }
            off -= r.len;
        }
        unreachable!("offset within period by construction")
    }

    /// `meas`: the bit at channel `e` (wraps modulo the universe).
    pub fn re_get(&self, re: &Re, e: u64) -> bool {
        let e = e & (self.channels() - 1);
        let pat = self.pattern(self.sym_at_chunk(re, e / CHUNK_BITS));
        (pat >> (e % CHUNK_BITS)) & 1 != 0
    }

    /// `next`: lowest channel strictly above `d` holding a 1; `None` if
    /// no such channel exists (the ISA's in-band `0` sentinel is applied
    /// only at the GPR boundary).
    pub fn re_next(&self, re: &Re, d: u64) -> Option<u64> {
        let n = self.channels();
        let start = d.saturating_add(1);
        if start >= n {
            return None;
        }
        let chunk = start / CHUNK_BITS;
        let bit = start % CHUNK_BITS;
        // Partial current chunk.
        let pat = self.pattern(self.sym_at_chunk(re, chunk)) & (u64::MAX << bit);
        if pat != 0 {
            return Some(chunk * CHUNK_BITS + pat.trailing_zeros() as u64);
        }
        // Rest of the current period after this chunk.
        let pc = re.period_chunks();
        let period_idx = chunk / pc;
        let off = chunk % pc + 1; // next chunk within period
        let mut acc = 0u64;
        for r in re.period.iter() {
            let run_end = acc + r.len;
            if run_end > off && r.sym != SYM_ZERO {
                let at = acc.max(off);
                let abs = period_idx * pc + at;
                return Some(abs * CHUNK_BITS + self.pattern(r.sym).trailing_zeros() as u64);
            }
            acc = run_end;
        }
        // First non-zero chunk of a full period, if any periods remain.
        if period_idx + 1 < re.reps {
            let mut acc = 0u64;
            for r in re.period.iter() {
                if r.sym != SYM_ZERO {
                    let abs = (period_idx + 1) * pc + acc;
                    return Some(
                        abs * CHUNK_BITS + self.pattern(r.sym).trailing_zeros() as u64,
                    );
                }
                acc += r.len;
            }
        }
        None
    }

    /// Ones in one period.
    fn period_pop(&self, re: &Re) -> u64 {
        re.period
            .iter()
            .map(|r| r.len * self.pattern(r.sym).count_ones() as u64)
            .sum()
    }

    /// Total population (probability numerator in parts per `2^E`).
    pub fn re_pop_all(&self, re: &Re) -> u64 {
        self.period_pop(re) * re.reps
    }

    /// Ones strictly below channel `n`.
    pub fn re_pop_prefix(&self, re: &Re, n: u64) -> u64 {
        let n = n.min(self.channels());
        let full_chunks = n / CHUNK_BITS;
        let pc = re.period_chunks();
        let mut count = (full_chunks / pc) * self.period_pop(re);
        // Partial period.
        let mut rem = full_chunks % pc;
        for r in re.period.iter() {
            let take = rem.min(r.len);
            count += take * self.pattern(r.sym).count_ones() as u64;
            rem -= take;
            if rem == 0 {
                break;
            }
        }
        // Partial chunk.
        let bits = n % CHUNK_BITS;
        if bits != 0 {
            let pat = self.pattern(self.sym_at_chunk(re, full_chunks));
            count += (pat & ((1u64 << bits) - 1)).count_ones() as u64;
        }
        count
    }

    /// Ones strictly after channel `d` (the `pop` instruction).
    pub fn re_pop_after(&self, re: &Re, d: u64) -> u64 {
        self.re_pop_all(re) - self.re_pop_prefix(re, d.saturating_add(1))
    }

    /// ANY reduction. Symbol ids are canonical, so this is exact (and
    /// padding-safe at sub-chunk universes, where the all-ones symbol is
    /// already masked).
    pub fn re_any(&self, re: &Re) -> bool {
        re.period.iter().any(|r| r.sym != SYM_ZERO)
    }

    /// ALL reduction. Compares symbols against the canonical all-ones
    /// chunk — which at sub-chunk universes is the *masked* ones pattern,
    /// so padding bits never make ALL unreachable.
    pub fn re_all(&self, re: &Re) -> bool {
        re.period.iter().all(|r| r.sym == SYM_ONE)
    }

    /// All 1-valued channels, capped at `limit` results.
    pub fn re_enumerate_ones(&self, re: &Re, limit: usize) -> Vec<u64> {
        let mut out = Vec::new();
        if self.re_get(re, 0) {
            out.push(0);
        }
        let mut e = 0u64;
        while out.len() < limit {
            let Some(nx) = self.re_next(re, e) else { break };
            out.push(nx);
            e = nx;
        }
        out
    }
}

/// Cyclic cursor over a run list.
struct RunCursor<'a> {
    runs: &'a [Run],
    idx: usize,
    used: u64,
}

impl<'a> RunCursor<'a> {
    fn new(runs: &'a [Run]) -> Self {
        RunCursor { runs, idx: 0, used: 0 }
    }

    /// Current symbol and chunks remaining in its run. A single-run period
    /// never changes symbol, so its remaining span is unbounded — this is
    /// what keeps ops between a constant/`H(k<6)` pattern and a huge
    /// pattern O(runs) instead of O(universe).
    fn current(&self) -> (Sym, u64) {
        let r = self.runs[self.idx];
        if self.runs.len() == 1 {
            return (r.sym, u64::MAX);
        }
        (r.sym, r.len - self.used)
    }

    fn advance(&mut self, n: u64) {
        if self.runs.len() == 1 {
            return; // single-run periods never change position meaningfully
        }
        self.used += n;
        while self.used >= self.runs[self.idx].len {
            self.used -= self.runs[self.idx].len;
            self.idx = (self.idx + 1) % self.runs.len();
        }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hadamard_compression_is_constant_size() {
        // §1.2's exponential-factor claim: H(k) is ≤ 2 runs at ANY scale.
        let mut ctx = PbpContext::new(32); // 4 billion channels
        for k in 0..32u32 {
            let h = ctx.hadamard(k);
            assert!(h.storage_runs() <= 2, "H({k}) has {} runs", h.storage_runs());
            assert_eq!(h.total_chunks(), ctx.total_chunks());
            assert_eq!(ctx.re_pop_all(&h), ctx.channels() / 2);
        }
    }

    #[test]
    fn hadamard_matches_aob() {
        let mut ctx = PbpContext::new(12);
        for k in 0..14u32 {
            let h = ctx.hadamard(k);
            assert_eq!(ctx.to_aob(&h), Aob::hadamard(12, k), "k={k}");
        }
    }

    #[test]
    fn constants() {
        let mut ctx = PbpContext::new(10);
        let z = ctx.constant(false);
        let o = ctx.constant(true);
        assert!(!ctx.re_any(&z));
        assert!(ctx.re_all(&o));
        assert_eq!(ctx.re_pop_all(&o), 1024);
        assert_eq!(ctx.to_aob(&z), Aob::zeros(10));
        assert_eq!(ctx.to_aob(&o), Aob::ones(10));
    }

    #[test]
    fn binops_match_aob_differentially() {
        let mut ctx = PbpContext::new(10);
        let values: Vec<Re> = (0..10).map(|k| ctx.hadamard(k)).collect();
        for i in 0..values.len() {
            for j in 0..values.len() {
                let (a, b) = (&values[i], &values[j]);
                let (aa, ab) = (ctx.to_aob(a), ctx.to_aob(b));
                let and = ctx.and(a, b);
                assert_eq!(ctx.to_aob(&and), Aob::and_of(&aa, &ab), "and {i},{j}");
                let or = ctx.or(a, b);
                assert_eq!(ctx.to_aob(&or), Aob::or_of(&aa, &ab));
                let xor = ctx.xor(a, b);
                assert_eq!(ctx.to_aob(&xor), Aob::xor_of(&aa, &ab));
            }
        }
    }

    #[test]
    fn not_and_roundtrip_from_aob() {
        let mut ctx = PbpContext::new(8);
        let mut v = Aob::zeros(8);
        for e in [0u64, 7, 63, 64, 65, 200, 255] {
            v.set(e, true);
        }
        let re = ctx.from_aob(&v);
        assert_eq!(ctx.to_aob(&re), v);
        let n = ctx.not(&re);
        assert_eq!(ctx.to_aob(&n), v.not_of());
        let nn = ctx.not(&n);
        assert!(ctx.re_eq(&nn, &re));
    }

    #[test]
    fn measurement_matches_aob() {
        let mut ctx = PbpContext::new(9);
        let h3 = ctx.hadamard(3);
        let h7 = ctx.hadamard(7);
        let v = ctx.and(&h3, &h7);
        let oracle = ctx.to_aob(&v);
        for e in 0..512u64 {
            assert_eq!(ctx.re_get(&v, e), oracle.get(e), "get {e}");
        }
        for d in 0..512u64 {
            assert_eq!(ctx.re_next(&v, d), oracle.next(d), "next {d}");
            assert_eq!(ctx.re_pop_after(&v, d), oracle.pop_after(d), "pop {d}");
        }
        assert_eq!(ctx.re_pop_all(&v), oracle.pop_all());
        assert_eq!(ctx.re_any(&v), oracle.any());
        assert_eq!(ctx.re_all(&v), oracle.all());
        assert_eq!(
            ctx.re_enumerate_ones(&v, 10_000),
            oracle.enumerate_ones()
        );
    }

    #[test]
    fn paper_next_example_via_re() {
        // The §2.7 worked example, on the compressed representation.
        let mut ctx = PbpContext::new(16);
        let h4 = ctx.hadamard(4);
        assert_eq!(ctx.re_next(&h4, 42), Some(48));
    }

    #[test]
    fn giant_universe_operations_stay_tiny() {
        // E = 36: a 64-billion-channel pbit in a few runs — far beyond
        // what any explicit AoB could store.
        let mut ctx = PbpContext::new(36);
        let a = ctx.hadamard(30);
        let b = ctx.hadamard(35);
        let c = ctx.and(&a, &b);
        // AND of H(30) and H(35) interleaves at the 2^24-chunk scale: the
        // run count is ~2^(35-30), still astronomically below the 2^30
        // chunks an explicit AoB would need.
        assert!(c.storage_runs() <= 40, "{} runs", c.storage_runs());
        assert_eq!(ctx.re_pop_all(&c), ctx.channels() / 4);
        // next across a huge zero span:
        assert_eq!(ctx.re_next(&c, 0), Some((1 << 30) | (1 << 35)));
        // pops line up with the analytic value
        assert_eq!(ctx.re_pop_prefix(&c, 1 << 35), 0);
    }

    #[test]
    fn packed_encoding_roundtrips_through_aob() {
        // Sweep structured and unstructured values: to_aob must invert
        // from_aob exactly with the packed period in between.
        let mut ctx = PbpContext::new(10);
        let mut patterns: Vec<Aob> = (0..12).map(|k| Aob::hadamard(10, k)).collect();
        let mut odd = Aob::zeros(10);
        for e in [0u64, 1, 63, 64, 500, 777, 1023] {
            odd.set(e, true);
        }
        patterns.push(odd);
        for v in &patterns {
            let re = ctx.from_aob(v);
            assert_eq!(&ctx.to_aob(&re), v);
            assert!(re.packed_words() <= re.flat_run_words());
        }
    }

    #[test]
    fn sub_chunk_universe_measurements_respect_padding() {
        // ways < CHUNK_WAYS: the universe is smaller than one 64-bit
        // chunk. The store interns masked chunks, so ALL must hold for
        // the masked ones value and nothing may leak from padding bits.
        for ways in [1u32, 3, 5] {
            let mut ctx = PbpContext::new(ways);
            let n = 1u64 << ways;
            assert_eq!(ctx.total_chunks(), 1, "ways={ways}");

            let o = ctx.constant(true);
            let z = ctx.constant(false);
            assert!(ctx.re_all(&o), "ways={ways}: masked ones must satisfy ALL");
            assert!(ctx.re_any(&o));
            assert!(!ctx.re_any(&z));
            assert_eq!(ctx.re_pop_all(&o), n);
            assert_eq!(ctx.re_pop_all(&z), 0);
            assert_eq!(ctx.to_aob(&o), Aob::ones(ways));

            // NOT of ones is zeros — only true if padding stayed clear.
            let nz = ctx.not(&o);
            assert!(!ctx.re_any(&nz), "ways={ways}: padding leaked through NOT");

            // next never reports a padding channel.
            for d in 0..2 * n {
                match ctx.re_next(&o, d) {
                    Some(e) => assert!(e > d && e < n, "ways={ways} d={d} e={e}"),
                    None => assert!(d + 1 >= n, "ways={ways} d={d}"),
                }
            }

            // Round-trip and gate parity against the explicit substrate.
            for k in 0..ways {
                let h = ctx.hadamard(k);
                let oracle = Aob::hadamard(ways, k);
                assert_eq!(ctx.to_aob(&h), oracle, "ways={ways} k={k}");
                let re2 = ctx.from_aob(&oracle);
                assert!(ctx.re_eq(&h, &re2));
                let x = ctx.xor(&h, &o);
                assert_eq!(ctx.to_aob(&x), Aob::xor_of(&oracle, &Aob::ones(ways)));
                assert_eq!(ctx.re_pop_all(&h), n / 2);
            }
        }
    }

    #[test]
    fn mux_identity() {
        let mut ctx = PbpContext::new(8);
        let s = ctx.hadamard(2);
        let t = ctx.hadamard(5);
        let f = ctx.hadamard(7);
        let m = ctx.mux(&s, &t, &f);
        let oracle = Aob::mux_of(
            &Aob::hadamard(8, 2),
            &Aob::hadamard(8, 5),
            &Aob::hadamard(8, 7),
        );
        assert_eq!(ctx.to_aob(&m), oracle);
    }

    #[test]
    fn period_reduction_finds_small_period() {
        let mut ctx = PbpContext::new(12);
        // Build H(6) explicitly through from_aob: period must shrink to 2.
        let re = ctx.from_aob(&Aob::hadamard(12, 6));
        assert_eq!(re.storage_runs(), 2);
        assert_eq!(re.period_chunks(), 2);
        assert_eq!(re.reps(), 32);
    }

    #[test]
    fn re_eq_detects_phase_equivalent_values() {
        let mut ctx = PbpContext::new(8);
        let h = ctx.hadamard(7);
        let via_aob = ctx.from_aob(&Aob::hadamard(8, 7));
        assert!(ctx.re_eq(&h, &via_aob));
        let other = ctx.hadamard(6);
        assert!(!ctx.re_eq(&h, &other));
    }
}

impl PbpContext {
    /// Render a pbit in the paper's §1.2 notation: runs as `0^n` / `1^n` /
    /// `s42^n` (for non-trivial chunk symbols), the period parenthesized
    /// and raised to its repetition count — e.g. `H(7)` at 16-way prints
    /// `(0^2 1^2)^256`. Lengths are in 64-bit chunks.
    pub fn re_notation(&self, re: &Re) -> String {
        // Symbols are canonical ids, so the constant chunks are named by
        // id — exact even at sub-chunk universes where the ones pattern
        // is masked.
        let sym_name = |s: Sym| {
            if s == SYM_ZERO {
                "0".to_string()
            } else if s == SYM_ONE {
                "1".to_string()
            } else {
                format!("s{s}")
            }
        };
        let mut body = String::new();
        for (i, r) in re.period.iter().enumerate() {
            if i > 0 {
                body.push(' ');
            }
            let sym = sym_name(r.sym);
            if r.len == 1 {
                body.push_str(&sym);
            } else {
                body.push_str(&format!("{sym}^{}", r.len));
            }
        }
        if re.reps == 1 {
            body
        } else if re.storage_runs() == 1 {
            // A single run repeated: fold the repetition into the exponent.
            let r = re.period.iter().next().expect("periods are never empty");
            let sym = sym_name(r.sym);
            let total = r.len * re.reps;
            if total == 1 { sym } else { format!("{sym}^{total}") }
        } else {
            format!("({body})^{}", re.reps)
        }
    }
}

#[cfg(test)]
mod notation_tests {
    use super::*;

    #[test]
    fn paper_style_notation() {
        let mut ctx = PbpContext::new(16);
        let zero = ctx.constant(false);
        assert_eq!(ctx.re_notation(&zero), "0^1024");
        let one = ctx.constant(true);
        assert_eq!(ctx.re_notation(&one), "1^1024");
        // H(7) at 16-way: (0^2 1^2)^256 in chunks — the paper's
        // run-length-encoding example shape.
        let h7 = ctx.hadamard(7);
        assert_eq!(ctx.re_notation(&h7), "(0^2 1^2)^256");
        let h15 = ctx.hadamard(15);
        assert_eq!(ctx.re_notation(&h15), "0^512 1^512"); // reps == 1: no wrapper
        // Sub-chunk patterns show as interned symbols.
        let h0 = ctx.hadamard(0);
        assert!(ctx.re_notation(&h0).starts_with('s'));
    }

    #[test]
    fn notation_roundtrips_semantics_visually() {
        // Not a parser — but the notation must reflect pops: count the 1s.
        let mut ctx = PbpContext::new(16);
        let h10 = ctx.hadamard(10);
        let n = ctx.re_notation(&h10);
        assert_eq!(n, "(0^16 1^16)^32");
        // 16 chunks * 64 bits * 32 reps = 32768 ones.
        assert_eq!(ctx.re_pop_all(&h10), 32_768);
    }
}
