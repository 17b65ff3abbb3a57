//! The `pint` (pattern integer) word-level API — the Figure 9 programming
//! model of the software-only PBP prototype.
//!
//! A [`Pint`] is a little-endian vector of pbits. Arithmetic is built from
//! gate operations on the pbits (ripple-carry addition, shift-and-add
//! multiplication, XNOR-AND equality), exactly the decomposition the
//! prototype emitted as gate-level code. The algorithm is written once, as
//! the provided methods of [`Pbits`]; an engine supplies only the gates.
//! The flat RE [`PbpContext`] and the nested [`crate::TreeCtx`] perform
//! them, and `gatec`'s `PintProgram` records them as a netlist — the
//! prototype "slightly modified to output the gate-level operations rather
//! than to perform them" (§4.1).
//!
//! Measurement stays per engine, since a netlist has no channels to read.
//! On RE it is **non-destructive** and returns *all* values in the
//! entangled superposition with their probabilities — the paper's headline
//! advantage over quantum measurement.

use std::convert::Infallible;

use pbp_aob::GateOp;

use crate::{PbpContext, Re};

/// A superposed machine integer: little-endian pbits of one engine
/// ([`Re`] unless named otherwise).
#[derive(Debug, Clone)]
pub struct Pint<B = Re> {
    bits: Vec<B>,
}

/// One entry of a non-destructive measurement: a value and its probability
/// numerator (in parts per `2^E`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasuredValue {
    /// The integer value.
    pub value: u64,
    /// Number of entanglement channels carrying this value.
    pub count: u64,
}

impl<B> Pint<B> {
    /// Width in pbits.
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// Borrow pbit `i` (little-endian).
    pub fn bit(&self, i: usize) -> &B {
        &self.bits[i]
    }

    /// All pbits, little-endian.
    pub fn bits(&self) -> &[B] {
        &self.bits
    }

    /// Construct from explicit pbits.
    pub fn from_bits(bits: Vec<B>) -> Self {
        assert!(!bits.is_empty(), "a pint needs at least one pbit");
        Pint { bits }
    }
}

/// A pbit engine's gate set, and the word-level algorithm over it.
///
/// An engine implements the five required methods; every `pint_*` word op
/// is a provided method, so all engines run (or record) the same gates in
/// the same order. The order is part of the contract: `gatec` compiles the
/// recorded sequence node for node.
pub trait Pbits {
    /// One pbit.
    type Bit: Clone;
    /// Why a binary gate refuses its operands ([`Infallible`] when it
    /// cannot).
    type Error;

    /// The constant pbit.
    fn constant(&mut self, bit: bool) -> Self::Bit;

    /// The Hadamard pbit `H(k)`: bit `e` is bit `k` of channel number `e`.
    fn hadamard(&mut self, k: u32) -> Self::Bit;

    /// A channel-wise binary gate.
    fn gate(&mut self, op: GateOp, a: &Self::Bit, b: &Self::Bit) -> Result<Self::Bit, Self::Error>;

    /// Channel-wise NOT.
    fn not(&mut self, a: &Self::Bit) -> Self::Bit;

    /// Allocate `n` fresh entanglement-channel dimensions (the "disjoint
    /// channels" discipline Figure 9's factoring depends on). Returns the
    /// first dimension index.
    fn alloc_dims(&mut self, n: u32) -> u32;

    /// `pint_mk(width, value)`: the constant `value` as a `width`-pbit pint.
    fn pint_mk(&mut self, width: usize, value: u64) -> Pint<Self::Bit> {
        let bits = (0..width).map(|i| self.constant((value >> i) & 1 != 0)).collect();
        Pint { bits }
    }

    /// `pint_h(width, mask)`: a Hadamard-initialized superposition. Bit `i`
    /// of the pint uses `H(k)` where `k` is the `i`-th set bit of `mask` —
    /// Figure 9's `pint_h(4, 0x0f)` / `pint_h(4, 0xf0)` convention, which
    /// is what keeps `b` and `c` entangled over *disjoint* channel sets.
    fn pint_h(&mut self, width: usize, mask: u64) -> Pint<Self::Bit> {
        let dims: Vec<u32> = (0..64).filter(|k| (mask >> k) & 1 != 0).collect();
        assert_eq!(dims.len(), width, "pint_h mask must have exactly `width` set bits");
        let bits = dims.into_iter().map(|k| self.hadamard(k)).collect();
        Pint { bits }
    }

    /// A Hadamard superposition over the next `width` *unallocated*
    /// dimensions (see [`Pbits::alloc_dims`]).
    fn pint_h_auto(&mut self, width: usize) -> Pint<Self::Bit> {
        let first = self.alloc_dims(width as u32);
        let bits = (first..first + width as u32).map(|k| self.hadamard(k)).collect();
        Pint { bits }
    }

    /// Bitwise AND of equal-width pints.
    fn pint_and(
        &mut self,
        a: &Pint<Self::Bit>,
        b: &Pint<Self::Bit>,
    ) -> Result<Pint<Self::Bit>, Self::Error> {
        bitwise(self, GateOp::And, a, b)
    }

    /// Bitwise XOR of equal-width pints.
    fn pint_xor(
        &mut self,
        a: &Pint<Self::Bit>,
        b: &Pint<Self::Bit>,
    ) -> Result<Pint<Self::Bit>, Self::Error> {
        bitwise(self, GateOp::Xor, a, b)
    }

    /// Bitwise NOT.
    fn pint_not(&mut self, a: &Pint<Self::Bit>) -> Pint<Self::Bit> {
        let bits = a.bits.iter().map(|x| self.not(x)).collect();
        Pint { bits }
    }

    /// Zero-extend (or truncate) to `width` pbits.
    fn pint_resize(&mut self, a: &Pint<Self::Bit>, width: usize) -> Pint<Self::Bit> {
        let mut bits = a.bits.clone();
        while bits.len() < width {
            bits.push(self.constant(false));
        }
        bits.truncate(width);
        Pint { bits }
    }

    /// Ripple-carry addition; result is one pbit wider than the wider
    /// operand (no overflow loss). Per bit: xor, xor, and, and, or.
    fn pint_add(
        &mut self,
        a: &Pint<Self::Bit>,
        b: &Pint<Self::Bit>,
    ) -> Result<Pint<Self::Bit>, Self::Error> {
        let w = a.width().max(b.width());
        let a = self.pint_resize(a, w);
        let b = self.pint_resize(b, w);
        let mut carry = self.constant(false);
        let mut bits = Vec::with_capacity(w + 1);
        for (x, y) in a.bits.iter().zip(&b.bits) {
            let xy = self.gate(GateOp::Xor, x, y)?;
            let sum = self.gate(GateOp::Xor, &xy, &carry)?;
            // carry' = (x & y) | (carry & (x ^ y))
            let and_xy = self.gate(GateOp::And, x, y)?;
            let and_cxy = self.gate(GateOp::And, &carry, &xy)?;
            carry = self.gate(GateOp::Or, &and_xy, &and_cxy)?;
            bits.push(sum);
        }
        bits.push(carry);
        Ok(Pint { bits })
    }

    /// Shift-and-add multiplication; result width is the sum of the
    /// operand widths (exact product). Each partial product emits its
    /// ANDs, then one `constant(false)` per shifted position.
    fn pint_mul(
        &mut self,
        a: &Pint<Self::Bit>,
        b: &Pint<Self::Bit>,
    ) -> Result<Pint<Self::Bit>, Self::Error> {
        let wr = a.width() + b.width();
        let mut acc = self.pint_mk(wr, 0);
        for (i, bi) in b.bits.iter().enumerate() {
            // partial = (a & replicate(b_i)) << i, zero-extended to wr
            let masked = a.bits.iter().map(|x| self.gate(GateOp::And, x, bi));
            let masked = Pint { bits: masked.collect::<Result<_, _>>()? };
            let shifted = self.pint_shl(&masked, i);
            let partial = self.pint_resize(&shifted, wr);
            let sum = self.pint_add(&acc, &partial)?;
            acc = self.pint_resize(&sum, wr);
        }
        Ok(acc)
    }

    /// Equality comparison → a single pbit (1 in every channel where the
    /// two values agree). Operands are zero-extended to a common width.
    /// Per bit: xor, not, and.
    fn pint_eq(
        &mut self,
        a: &Pint<Self::Bit>,
        b: &Pint<Self::Bit>,
    ) -> Result<Self::Bit, Self::Error> {
        let w = a.width().max(b.width());
        let a = self.pint_resize(a, w);
        let b = self.pint_resize(b, w);
        let mut acc = self.constant(true);
        for (x, y) in a.bits.iter().zip(&b.bits) {
            let x = self.gate(GateOp::Xor, x, y)?;
            let eq = self.not(&x);
            acc = self.gate(GateOp::And, &acc, &eq)?;
        }
        Ok(acc)
    }

    /// Unsigned less-than → a single pbit.
    fn pint_lt(
        &mut self,
        a: &Pint<Self::Bit>,
        b: &Pint<Self::Bit>,
    ) -> Result<Self::Bit, Self::Error> {
        let w = a.width().max(b.width());
        let a = self.pint_resize(a, w);
        let b = self.pint_resize(b, w);
        // From lsb up: lt = (!ai & bi) | (ai==bi) & lt_lower
        let mut lt = self.constant(false);
        for (ai, bi) in a.bits.iter().zip(&b.bits) {
            let na = self.not(ai);
            let strictly = self.gate(GateOp::And, &na, bi)?;
            let x = self.gate(GateOp::Xor, ai, bi)?;
            let eq = self.not(&x);
            let keep = self.gate(GateOp::And, &eq, &lt)?;
            lt = self.gate(GateOp::Or, &strictly, &keep)?;
        }
        Ok(lt)
    }

    /// Two's-complement subtraction `a - b`, truncated to the wider
    /// operand's width (wrapping, like the Tangled `add`/`neg` pair).
    fn pint_sub(
        &mut self,
        a: &Pint<Self::Bit>,
        b: &Pint<Self::Bit>,
    ) -> Result<Pint<Self::Bit>, Self::Error> {
        let w = a.width().max(b.width());
        let b = self.pint_resize(b, w);
        let nb = self.pint_not(&b);
        let one = self.pint_mk(w, 1);
        let nb1 = self.pint_add(&nb, &one)?;
        let nb1 = self.pint_resize(&nb1, w);
        let sum = self.pint_add(a, &nb1)?;
        Ok(self.pint_resize(&sum, w))
    }

    /// Left shift by a constant amount (widens by `k` pbits).
    fn pint_shl(&mut self, a: &Pint<Self::Bit>, k: usize) -> Pint<Self::Bit> {
        let mut bits: Vec<Self::Bit> = (0..k).map(|_| self.constant(false)).collect();
        bits.extend(a.bits.iter().cloned());
        Pint { bits }
    }

    /// Logical right shift by a constant amount (narrows by `k`, minimum
    /// width 1).
    fn pint_shr(&mut self, a: &Pint<Self::Bit>, k: usize) -> Pint<Self::Bit> {
        let mut bits: Vec<Self::Bit> = a.bits.iter().skip(k).cloned().collect();
        if bits.is_empty() {
            bits.push(self.constant(false));
        }
        Pint { bits }
    }

    /// Inequality → single pbit (`NOT` of [`Pbits::pint_eq`]).
    fn pint_ne(
        &mut self,
        a: &Pint<Self::Bit>,
        b: &Pint<Self::Bit>,
    ) -> Result<Self::Bit, Self::Error> {
        let eq = self.pint_eq(a, b)?;
        Ok(self.not(&eq))
    }
}

/// The bitwise word ops' shared body.
fn bitwise<P: Pbits + ?Sized>(
    p: &mut P,
    op: GateOp,
    a: &Pint<P::Bit>,
    b: &Pint<P::Bit>,
) -> Result<Pint<P::Bit>, P::Error> {
    assert_eq!(a.width(), b.width());
    let bits = a.bits.iter().zip(&b.bits).map(|(x, y)| p.gate(op, x, y));
    Ok(Pint { bits: bits.collect::<Result<_, _>>()? })
}

impl Pbits for PbpContext {
    type Bit = Re;
    type Error = Infallible;

    fn constant(&mut self, bit: bool) -> Re {
        PbpContext::constant(self, bit)
    }

    fn hadamard(&mut self, k: u32) -> Re {
        PbpContext::hadamard(self, k)
    }

    fn gate(&mut self, op: GateOp, a: &Re, b: &Re) -> Result<Re, Infallible> {
        Ok(self.binop(op, a, b))
    }

    fn not(&mut self, a: &Re) -> Re {
        PbpContext::not(self, a)
    }

    fn alloc_dims(&mut self, n: u32) -> u32 {
        let first = self.next_dim;
        assert!(
            first + n <= self.universe_ways(),
            "out of entanglement dimensions: {} + {n} > {}",
            first,
            self.universe_ways()
        );
        self.next_dim += n;
        first
    }
}

impl PbpContext {
    /// The probability that a predicate pbit is 1, as a fraction of the
    /// universe (POP / 2^E).
    pub fn probability(&self, p: &Re) -> f64 {
        self.re_pop_all(p) as f64 / self.channels() as f64
    }

    /// The value of a pint in one specific entanglement channel.
    pub fn pint_value_at(&self, p: &Pint, e: u64) -> u64 {
        p.bits
            .iter()
            .enumerate()
            .map(|(i, b)| (self.re_get(b, e) as u64) << i)
            .sum()
    }

    /// Non-destructive measurement: every distinct value in the entangled
    /// superposition, with its channel count, sorted by value — the
    /// Figure 9 `pint_measure` that "prints 0, 1, 3, 5, 15".
    pub fn pint_measure(&self, p: &Pint) -> Vec<MeasuredValue> {
        let mut counts: std::collections::BTreeMap<u64, u64> = Default::default();
        for e in 0..self.channels() {
            *counts.entry(self.pint_value_at(p, e)).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .map(|(value, count)| MeasuredValue { value, count })
            .collect()
    }

    /// Measurement restricted to channels where a mask pbit is 1 (used to
    /// read out "the answers" without materializing the e*b product —
    /// the §4.2 observation that the result "is really encoded in the
    /// 1-valued entanglement channels of e").
    pub fn pint_measure_where(&self, p: &Pint, mask: &Re) -> Vec<MeasuredValue> {
        let mut counts: std::collections::BTreeMap<u64, u64> = Default::default();
        let mut visit = |e: u64| {
            *counts.entry(self.pint_value_at(p, e)).or_insert(0) += 1;
        };
        if self.re_get(mask, 0) {
            visit(0);
        }
        let mut e = 0u64;
        while let Some(nx) = self.re_next(mask, e) {
            visit(nx);
            e = nx;
        }
        counts
            .into_iter()
            .map(|(value, count)| MeasuredValue { value, count })
            .collect()
    }

    /// Monte-Carlo measurement: sample `n` channels chosen by a caller-
    /// supplied channel source (the paper: "very high-quality random
    /// sampling of entangled superpositions by simply using Tangled
    /// instructions to place a random number in $d"). Unlike quantum
    /// sampling this never collapses anything — and unlike
    /// [`PbpContext::pint_measure`] it is O(n), not O(2^E).
    pub fn pint_measure_sampled(
        &self,
        p: &Pint,
        n: usize,
        mut channel: impl FnMut() -> u64,
    ) -> Vec<MeasuredValue> {
        let mut counts: std::collections::BTreeMap<u64, u64> = Default::default();
        for _ in 0..n {
            let e = channel() & (self.channels() - 1);
            *counts.entry(self.pint_value_at(p, e)).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .map(|(value, count)| MeasuredValue { value, count })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(m: &[MeasuredValue]) -> Vec<u64> {
        m.iter().map(|v| v.value).collect()
    }

    #[test]
    fn constants_measure_to_themselves() {
        let mut ctx = PbpContext::new(8);
        let p = ctx.pint_mk(4, 13);
        let m = ctx.pint_measure(&p);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0], MeasuredValue { value: 13, count: 256 });
    }

    #[test]
    fn hadamard_pint_is_uniform_counter() {
        // pint_h(4, 0x0f) ranges uniformly over 0..16.
        let mut ctx = PbpContext::new(8);
        let b = ctx.pint_h(4, 0x0f);
        let m = ctx.pint_measure(&b);
        assert_eq!(values(&m), (0..16u64).collect::<Vec<_>>());
        assert!(m.iter().all(|v| v.count == 16)); // 256/16 channels each
    }

    #[test]
    fn disjoint_channel_sets_are_independent() {
        // Figure 9's crucial property: b uses H(0..3), c uses H(4..7), so
        // b*c ranges over ALL pairs, not just squares.
        let mut ctx = PbpContext::new(8);
        let b = ctx.pint_h(4, 0x0f);
        let c = ctx.pint_h(4, 0xf0);
        for e in 0..256u64 {
            assert_eq!(ctx.pint_value_at(&b, e), e & 0xF);
            assert_eq!(ctx.pint_value_at(&c, e), e >> 4);
        }
    }

    #[test]
    fn same_channels_give_squares() {
        // The paper's counterpoint: "Had b and c used the same entanglement
        // channels, that multiplication would only have computed 4-way
        // entangled squares."
        let mut ctx = PbpContext::new(8);
        let b = ctx.pint_h(4, 0x0f);
        let c = ctx.pint_h(4, 0x0f);
        let Ok(d) = ctx.pint_mul(&b, &c);
        let m = ctx.pint_measure(&d);
        let squares: Vec<u64> = (0..16u64).map(|v| v * v).collect();
        let mut expect: Vec<u64> = squares.clone();
        expect.dedup();
        assert_eq!(values(&m), expect);
    }

    #[test]
    fn add_is_exact_on_superpositions() {
        let mut ctx = PbpContext::new(8);
        let b = ctx.pint_h(3, 0b0000_0111);
        let c = ctx.pint_h(3, 0b0011_1000);
        let Ok(s) = ctx.pint_add(&b, &c);
        for e in 0..256u64 {
            let (x, y) = (e & 7, (e >> 3) & 7);
            assert_eq!(ctx.pint_value_at(&s, e), x + y, "e={e}");
        }
    }

    #[test]
    fn mul_is_exact_on_superpositions() {
        let mut ctx = PbpContext::new(8);
        let b = ctx.pint_h(4, 0x0f);
        let c = ctx.pint_h(4, 0xf0);
        let Ok(d) = ctx.pint_mul(&b, &c);
        assert_eq!(d.width(), 8);
        for e in 0..256u64 {
            assert_eq!(ctx.pint_value_at(&d, e), (e & 0xF) * (e >> 4), "e={e}");
        }
    }

    #[test]
    fn eq_and_lt_predicates() {
        let mut ctx = PbpContext::new(8);
        let b = ctx.pint_h(4, 0x0f);
        let seven = ctx.pint_mk(4, 7);
        let Ok(eq) = ctx.pint_eq(&b, &seven);
        let Ok(lt) = ctx.pint_lt(&b, &seven);
        for e in 0..256u64 {
            assert_eq!(ctx.re_get(&eq, e), (e & 0xF) == 7);
            assert_eq!(ctx.re_get(&lt, e), (e & 0xF) < 7);
        }
    }

    #[test]
    fn figure9_word_level_prime_factoring_of_15() {
        // The complete Figure 9 program.
        let mut ctx = PbpContext::new(8);
        let a = ctx.pint_mk(4, 15); //  a = 15
        let b = ctx.pint_h(4, 0x0f); // b = 0..15
        let c = ctx.pint_h(4, 0xf0); // c = 0..15
        let Ok(d) = ctx.pint_mul(&b, &c); // d = b*c
        let Ok(e) = ctx.pint_eq(&d, &a); //  e = (d == 15)
        let e_pint = Pint::from_bits(vec![e.clone()]);
        let Ok(f) = ctx.pint_mul(&e_pint, &b); // zero the non-factors
        let m = ctx.pint_measure(&f);
        // "prints 0, 1, 3, 5, 15"
        assert_eq!(values(&m), vec![0, 1, 3, 5, 15]);
        // And §4.2's shortcut: reading b only where e is 1 gives the
        // factors directly, no final multiply needed.
        let direct = ctx.pint_measure_where(&b, &e);
        assert_eq!(values(&direct), vec![1, 3, 5, 15]);
    }

    #[test]
    fn factoring_221_at_16_way() {
        // The prototype's original problem (§4.1): factor 221 = 13 * 17
        // with two 8-bit operands — 16-way entanglement.
        let mut ctx = PbpContext::new(16);
        let n = ctx.pint_mk(8, 221);
        let b = ctx.pint_h_auto(8);
        let c = ctx.pint_h_auto(8);
        let Ok(d) = ctx.pint_mul(&b, &c);
        let Ok(e) = ctx.pint_eq(&d, &n);
        let factors = ctx.pint_measure_where(&b, &e);
        assert_eq!(values(&factors), vec![1, 13, 17, 221]);
    }

    #[test]
    fn measure_where_on_empty_mask() {
        let mut ctx = PbpContext::new(8);
        let b = ctx.pint_h(4, 0x0f);
        let never = ctx.constant(false);
        assert!(ctx.pint_measure_where(&b, &never).is_empty());
    }

    #[test]
    fn probabilities_sum_to_universe() {
        let mut ctx = PbpContext::new(8);
        let b = ctx.pint_h(4, 0x0f);
        let two = ctx.pint_mk(4, 2);
        let Ok(p) = ctx.pint_mul(&b, &two);
        let m = ctx.pint_measure(&p);
        let total: u64 = m.iter().map(|v| v.count).sum();
        assert_eq!(total, ctx.channels());
    }

    #[test]
    fn figure1_nonuniform_distribution() {
        // The Figure 1 example: vectors {0,0,1,0} and {0,0,1,1} encode
        // values {0,0,3,2} — 50% 0, 25% 2, 25% 3.
        let mut ctx = PbpContext::new(6); // smallest universe; use dims 0,1
        // Build the two pbits explicitly from their truth tables on the
        // 4 channels, repeated across the universe (channels mod 4).
        let h0 = ctx.hadamard(0);
        let h1 = ctx.hadamard(1);
        // lo = {0,0,1,0}: 1 only where (e%4)==2 → h1 & !h0
        let nh0 = ctx.not(&h0);
        let lo = ctx.and(&h1, &nh0);
        // hi = {0,0,1,1}: 1 where e%4 >= 2 → h1
        let hi = h1.clone();
        let p = Pint::from_bits(vec![lo, hi]);
        let m = ctx.pint_measure(&p);
        assert_eq!(
            m,
            vec![
                MeasuredValue { value: 0, count: 32 }, // 50%
                MeasuredValue { value: 2, count: 16 }, // 25%
                MeasuredValue { value: 3, count: 16 }, // 25%
            ]
        );
    }
}

#[cfg(test)]
mod extended_tests {
    use super::*;

    #[test]
    fn sub_is_exact_wrapping() {
        let mut ctx = PbpContext::new(8);
        let b = ctx.pint_h(4, 0x0f);
        let c = ctx.pint_h(4, 0xf0);
        let Ok(d) = ctx.pint_sub(&b, &c);
        for e in 0..256u64 {
            let (x, y) = (e & 0xF, e >> 4);
            assert_eq!(ctx.pint_value_at(&d, e), x.wrapping_sub(y) & 0xF, "e={e}");
        }
    }

    #[test]
    fn shifts() {
        let mut ctx = PbpContext::new(8);
        let b = ctx.pint_h(4, 0x0f);
        let l = ctx.pint_shl(&b, 2);
        assert_eq!(l.width(), 6);
        let r = ctx.pint_shr(&b, 2);
        assert_eq!(r.width(), 2);
        for e in 0..256u64 {
            let x = e & 0xF;
            assert_eq!(ctx.pint_value_at(&l, e), x << 2);
            assert_eq!(ctx.pint_value_at(&r, e), x >> 2);
        }
        // Shifting everything out leaves a zero pbit, not an empty pint.
        let all_out = ctx.pint_shr(&b, 10);
        assert_eq!(all_out.width(), 1);
        assert_eq!(ctx.pint_measure(&all_out)[0].value, 0);
    }

    #[test]
    fn ne_and_probability() {
        let mut ctx = PbpContext::new(8);
        let b = ctx.pint_h(4, 0x0f);
        let five = ctx.pint_mk(4, 5);
        let Ok(eq) = ctx.pint_eq(&b, &five);
        let Ok(ne) = ctx.pint_ne(&b, &five);
        assert!((ctx.probability(&eq) - 1.0 / 16.0).abs() < 1e-12);
        assert!((ctx.probability(&ne) - 15.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn sampled_measurement_hits_only_real_values() {
        let mut ctx = PbpContext::new(8);
        let b = ctx.pint_h(4, 0x0f);
        let three = ctx.pint_mk(2, 3);
        let Ok(p) = ctx.pint_mul(&b, &three);
        // A deterministic "random" channel walk.
        let mut st = 12345u64;
        let samples = ctx.pint_measure_sampled(&p, 500, || {
            st = st.wrapping_mul(6364136223846793005).wrapping_add(1);
            st >> 32
        });
        let total: u64 = samples.iter().map(|v| v.count).sum();
        assert_eq!(total, 500);
        for v in &samples {
            assert_eq!(v.value % 3, 0, "sampled impossible value {}", v.value);
            assert!(v.value <= 45);
        }
    }

    #[test]
    fn sub_then_add_roundtrips() {
        let mut ctx = PbpContext::new(8);
        let b = ctx.pint_h(4, 0x0f);
        let k = ctx.pint_mk(4, 9);
        let Ok(d) = ctx.pint_sub(&b, &k);
        let Ok(s) = ctx.pint_add(&d, &k);
        let s4 = ctx.pint_resize(&s, 4);
        for e in 0..256u64 {
            assert_eq!(ctx.pint_value_at(&s4, e), e & 0xF);
        }
    }
}
