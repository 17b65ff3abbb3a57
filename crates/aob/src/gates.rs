//! Channel-wise gate operations on AoB values.
//!
//! These are the ALU functions of the Qat coprocessor (paper Table 3 and
//! §2.4–§2.6). Every gate acts independently on each entanglement channel,
//! which the implementation realizes as word-parallel (`u64`-lane)
//! operations — the software equivalent of the paper's bit-level SIMD
//! datapath.
//!
//! Two flavours are provided for each binary gate:
//!
//! * an in-place accumulating form (`a.and_assign(&b)`), matching the
//!   two-register Tangled style, and
//! * a three-address form (`Aob::and_of(&b, &c)`), matching the Qat
//!   three-register instruction format `and @a,@b,@c`.
//!
//! The reversible gates of §2.4/§2.5 (`cnot`, `ccnot`, `swap`, `cswap`) are
//! each their own inverse; unit and property tests below check the
//! identities the paper relies on, including the "billiard-ball
//! conservancy" of the swap family.

use crate::bitvec::Aob;

// ---------------------------------------------------------------------------
// Word-loop building blocks: 4-way unrolled, single pass.
//
// A 16-way value is 1024 `u64` words; the two-pass clone-then-assign shape
// the kernels used to have touched every word twice (memcpy, then the op).
// These helpers fill a destination buffer in one pass, processing four
// words per iteration the same way `intern::content_hash` does, which both
// halves memory traffic and gives the optimizer independent lanes to
// vectorize. The zero-padding invariant of `bitvec.rs` (high bits of the
// final word are zero for `ways < 6`) is what makes this safe: AND/OR/XOR
// of normalized operands stays normalized, and the constructors mask NOT.
// ---------------------------------------------------------------------------

/// `out = f(b[i], c[i])` for every word, replacing `out`'s contents.
#[inline(always)]
fn zip2_into(out: &mut Vec<u64>, b: &[u64], c: &[u64], f: impl Fn(u64, u64) -> u64) {
    debug_assert_eq!(b.len(), c.len());
    out.clear();
    out.reserve(b.len());
    let mut bq = b.chunks_exact(4);
    let mut cq = c.chunks_exact(4);
    for (x, y) in (&mut bq).zip(&mut cq) {
        out.extend_from_slice(&[f(x[0], y[0]), f(x[1], y[1]), f(x[2], y[2]), f(x[3], y[3])]);
    }
    for (&x, &y) in bq.remainder().iter().zip(cq.remainder()) {
        out.push(f(x, y));
    }
}

/// `out = f(a[i], b[i], c[i])` for every word, replacing `out`'s contents.
#[inline(always)]
fn zip3_into(
    out: &mut Vec<u64>,
    a: &[u64],
    b: &[u64],
    c: &[u64],
    f: impl Fn(u64, u64, u64) -> u64,
) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), c.len());
    out.clear();
    out.reserve(a.len());
    let mut aq = a.chunks_exact(4);
    let mut bq = b.chunks_exact(4);
    let mut cq = c.chunks_exact(4);
    for ((x, y), z) in (&mut aq).zip(&mut bq).zip(&mut cq) {
        out.extend_from_slice(&[
            f(x[0], y[0], z[0]),
            f(x[1], y[1], z[1]),
            f(x[2], y[2], z[2]),
            f(x[3], y[3], z[3]),
        ]);
    }
    for ((&x, &y), &z) in aq.remainder().iter().zip(bq.remainder()).zip(cq.remainder()) {
        out.push(f(x, y, z));
    }
}

/// `a[i] = f(a[i], b[i])` in place for every word.
#[inline(always)]
fn zip2_assign(a: &mut [u64], b: &[u64], f: impl Fn(u64, u64) -> u64) {
    debug_assert_eq!(a.len(), b.len());
    let mut aq = a.chunks_exact_mut(4);
    let mut bq = b.chunks_exact(4);
    for (x, y) in (&mut aq).zip(&mut bq) {
        x[0] = f(x[0], y[0]);
        x[1] = f(x[1], y[1]);
        x[2] = f(x[2], y[2]);
        x[3] = f(x[3], y[3]);
    }
    for (x, &y) in aq.into_remainder().iter_mut().zip(bq.remainder()) {
        *x = f(*x, y);
    }
}

/// Fresh single-pass binary kernel result.
#[inline(always)]
fn binop_of(b: &Aob, c: &Aob, f: impl Fn(u64, u64) -> u64) -> Aob {
    b.check_same_ways(c);
    let mut out = Vec::new();
    zip2_into(&mut out, b.words(), c.words(), f);
    Aob::from_raw_words(b.ways(), out)
}

impl Aob {
    // ------------------------------------------------------------------
    // Irreversible logic instructions (§2.6)
    // ------------------------------------------------------------------

    /// Pauli-X / logical NOT: flip every channel (`not @a`).
    pub fn not_assign(&mut self) {
        let mut q = self.words_mut().chunks_exact_mut(4);
        for w in &mut q {
            w[0] = !w[0];
            w[1] = !w[1];
            w[2] = !w[2];
            w[3] = !w[3];
        }
        for w in q.into_remainder() {
            *w = !*w;
        }
        self.normalize();
    }

    /// Channel-wise NOT of a value (single pass, padding masked).
    pub fn not_of(&self) -> Aob {
        let mut out = Vec::with_capacity(self.words().len());
        let mut q = self.words().chunks_exact(4);
        for w in &mut q {
            out.extend_from_slice(&[!w[0], !w[1], !w[2], !w[3]]);
        }
        for &w in q.remainder() {
            out.push(!w);
        }
        Aob::from_raw_words(self.ways(), out)
    }

    /// `a &= b`.
    pub fn and_assign(&mut self, b: &Aob) {
        self.check_same_ways(b);
        zip2_assign(self.words_mut(), b.words(), |x, y| x & y);
    }

    /// `@a = AND(@b, @c)` — the Qat three-register form.
    pub fn and_of(b: &Aob, c: &Aob) -> Aob {
        binop_of(b, c, |x, y| x & y)
    }

    /// `a |= b`.
    pub fn or_assign(&mut self, b: &Aob) {
        self.check_same_ways(b);
        zip2_assign(self.words_mut(), b.words(), |x, y| x | y);
    }

    /// `@a = OR(@b, @c)`.
    pub fn or_of(b: &Aob, c: &Aob) -> Aob {
        binop_of(b, c, |x, y| x | y)
    }

    /// `a ^= b`.
    pub fn xor_assign(&mut self, b: &Aob) {
        self.check_same_ways(b);
        zip2_assign(self.words_mut(), b.words(), |x, y| x ^ y);
    }

    /// `@a = XOR(@b, @c)`.
    pub fn xor_of(b: &Aob, c: &Aob) -> Aob {
        binop_of(b, c, |x, y| x ^ y)
    }

    // ------------------------------------------------------------------
    // Reversible not-based instructions (§2.4)
    // ------------------------------------------------------------------

    /// Controlled NOT: `@a = XOR(@a, @b)` — flips `a`'s channels wherever
    /// the control `b` is 1. The paper notes `cnot @a,@b` is exactly
    /// `xor @a,@a,@b`.
    pub fn cnot_assign(&mut self, control: &Aob) {
        self.xor_assign(control);
    }

    /// Controlled-controlled NOT (Toffoli): `@a ^= AND(@b, @c)`.
    pub fn ccnot_assign(&mut self, b: &Aob, c: &Aob) {
        self.check_same_ways(b);
        self.check_same_ways(c);
        let mut aq = self.words_mut().chunks_exact_mut(4);
        let mut bq = b.words().chunks_exact(4);
        let mut cq = c.words().chunks_exact(4);
        for ((x, y), z) in (&mut aq).zip(&mut bq).zip(&mut cq) {
            x[0] ^= y[0] & z[0];
            x[1] ^= y[1] & z[1];
            x[2] ^= y[2] & z[2];
            x[3] ^= y[3] & z[3];
        }
        for ((x, &y), &z) in aq
            .into_remainder()
            .iter_mut()
            .zip(bq.remainder())
            .zip(cq.remainder())
        {
            *x ^= y & z;
        }
    }

    /// `ccnot` as a fused three-address kernel: `a XOR (b AND c)` in one
    /// pass, without interning or materializing the `b AND c` intermediate.
    pub fn ccnot_of(a: &Aob, b: &Aob, c: &Aob) -> Aob {
        a.check_same_ways(b);
        a.check_same_ways(c);
        let mut out = Vec::new();
        zip3_into(&mut out, a.words(), b.words(), c.words(), |x, y, z| x ^ (y & z));
        Aob::from_raw_words(a.ways(), out)
    }

    // ------------------------------------------------------------------
    // Reversible swap-based instructions (§2.5)
    // ------------------------------------------------------------------

    /// Unconditional exchange of two AoB values (`swap @a,@b`). A pure
    /// buffer exchange — no words are touched.
    pub fn swap(a: &mut Aob, b: &mut Aob) {
        a.check_same_ways(b);
        std::mem::swap(a.words_vec_mut(), b.words_vec_mut());
    }

    /// Fredkin gate: `where (@c) swap(@a, @b)` — exchange `a` and `b` only
    /// in channels where the control `c` is 1. Equivalent to a channel-wise
    /// 1-of-2 multiplexor pair, which is why the paper connects it to BDDs.
    pub fn cswap(a: &mut Aob, b: &mut Aob, c: &Aob) {
        a.check_same_ways(b);
        a.check_same_ways(c);
        // Classic masked-swap: t = (x ^ y) & m; x ^= t; y ^= t.
        let mut aq = a.words_mut().chunks_exact_mut(4);
        let mut bq = b.words_mut().chunks_exact_mut(4);
        let mut cq = c.words().chunks_exact(4);
        for ((x, y), m) in (&mut aq).zip(&mut bq).zip(&mut cq) {
            for i in 0..4 {
                let t = (x[i] ^ y[i]) & m[i];
                x[i] ^= t;
                y[i] ^= t;
            }
        }
        for ((x, y), &m) in aq
            .into_remainder()
            .iter_mut()
            .zip(bq.into_remainder().iter_mut())
            .zip(cq.remainder())
        {
            let t = (*x ^ *y) & m;
            *x ^= t;
            *y ^= t;
        }
    }

    /// Channel-wise multiplexor built from Fredkin semantics:
    /// `r[e] = if sel[e] { t[e] } else { f[e] }`. Not a Qat instruction but
    /// the §2.5 observation that cswap generalizes a 1-of-2 mux; used by the
    /// gate compiler.
    pub fn mux_of(sel: &Aob, t: &Aob, f: &Aob) -> Aob {
        sel.check_same_ways(t);
        sel.check_same_ways(f);
        let mut out = Vec::new();
        zip3_into(&mut out, sel.words(), t.words(), f.words(), |s, y, x| {
            (x & !s) | (y & s)
        });
        Aob::from_raw_words(sel.ways(), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ways: u32, seed: u64) -> Aob {
        // Small xorshift-based deterministic pattern; avoids a rand dep here.
        let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
        Aob::from_fn(ways, |_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s & 1 != 0
        })
    }

    #[test]
    fn not_is_involution_and_masks_padding() {
        for ways in [0u32, 3, 6, 9] {
            let a = sample(ways, 1);
            let mut b = a.clone();
            b.not_assign();
            assert_ne!(a, b);
            // Padding bits stay zero even after NOT:
            if ways < 6 {
                assert_eq!(b.words()[0] >> (1u64 << ways), 0);
            }
            b.not_assign();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn de_morgan() {
        let a = sample(8, 2);
        let b = sample(8, 3);
        let lhs = Aob::and_of(&a, &b).not_of();
        let rhs = Aob::or_of(&a.not_of(), &b.not_of());
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn xor_identities() {
        let a = sample(8, 4);
        let z = Aob::zeros(8);
        assert_eq!(Aob::xor_of(&a, &z), a);
        assert_eq!(Aob::xor_of(&a, &a), z);
        assert_eq!(Aob::xor_of(&a, &Aob::ones(8)), a.not_of());
    }

    #[test]
    fn cnot_is_self_inverse() {
        let a0 = sample(8, 5);
        let c = sample(8, 6);
        let mut a = a0.clone();
        a.cnot_assign(&c);
        a.cnot_assign(&c);
        assert_eq!(a, a0);
    }

    #[test]
    fn ccnot_is_self_inverse_and_matches_definition() {
        let a0 = sample(8, 7);
        let b = sample(8, 8);
        let c = sample(8, 9);
        let mut a = a0.clone();
        a.ccnot_assign(&b, &c);
        let expect = Aob::xor_of(&a0, &Aob::and_of(&b, &c));
        assert_eq!(a, expect);
        a.ccnot_assign(&b, &c);
        assert_eq!(a, a0);
    }

    #[test]
    fn swap_exchanges() {
        let a0 = sample(8, 10);
        let b0 = sample(8, 11);
        let (mut a, mut b) = (a0.clone(), b0.clone());
        Aob::swap(&mut a, &mut b);
        assert_eq!(a, b0);
        assert_eq!(b, a0);
    }

    #[test]
    fn cswap_is_self_inverse() {
        let a0 = sample(8, 12);
        let b0 = sample(8, 13);
        let c = sample(8, 14);
        let (mut a, mut b) = (a0.clone(), b0.clone());
        Aob::cswap(&mut a, &mut b, &c);
        Aob::cswap(&mut a, &mut b, &c);
        assert_eq!(a, a0);
        assert_eq!(b, b0);
    }

    #[test]
    fn cswap_channelwise_semantics() {
        let a0 = sample(6, 15);
        let b0 = sample(6, 16);
        let c = sample(6, 17);
        let (mut a, mut b) = (a0.clone(), b0.clone());
        Aob::cswap(&mut a, &mut b, &c);
        for e in 0..64u64 {
            if c.get(e) {
                assert_eq!(a.get(e), b0.get(e));
                assert_eq!(b.get(e), a0.get(e));
            } else {
                assert_eq!(a.get(e), a0.get(e));
                assert_eq!(b.get(e), b0.get(e));
            }
        }
    }

    #[test]
    fn billiard_ball_conservancy() {
        // §2.5: swap-family gates preserve the total number of 1s passing
        // through — the property enabling simple adiabatic implementation.
        let a0 = sample(10, 18);
        let b0 = sample(10, 19);
        let c = sample(10, 20);
        let before = a0.pop_all() + b0.pop_all();
        let (mut a, mut b) = (a0.clone(), b0.clone());
        Aob::cswap(&mut a, &mut b, &c);
        assert_eq!(a.pop_all() + b.pop_all(), before);
        Aob::swap(&mut a, &mut b);
        assert_eq!(a.pop_all() + b.pop_all(), before);
    }

    #[test]
    fn mux_matches_fredkin_view() {
        let sel = sample(7, 21);
        let t = sample(7, 22);
        let f = sample(7, 23);
        let m = Aob::mux_of(&sel, &t, &f);
        for e in 0..128u64 {
            assert_eq!(m.get(e), if sel.get(e) { t.get(e) } else { f.get(e) });
        }
        // cswap with control=sel routes t/f the same way.
        let (mut x, mut y) = (f.clone(), t.clone());
        Aob::cswap(&mut x, &mut y, &sel);
        assert_eq!(x, m);
    }

    #[test]
    #[should_panic(expected = "identical entanglement degree")]
    fn mismatched_ways_panics() {
        let mut a = Aob::zeros(4);
        let b = Aob::zeros(5);
        a.and_assign(&b);
    }

    /// Every word beyond `2^ways` valid bits must stay zero.
    fn assert_padded(v: &Aob, what: &str) {
        let valid = v.len();
        if valid >= 64 {
            return; // whole final word is valid
        }
        let mask = (1u64 << valid) - 1;
        assert_eq!(
            v.words().last().unwrap() & !mask,
            0,
            "{what} leaked into the padding bits (ways {})",
            v.ways()
        );
    }

    #[test]
    fn sub_word_values_keep_padding_zero_through_fused_kernels() {
        // The single-pass kernels rely on the bitvec zero-padding
        // invariant; prove that values built through every constructor
        // keep it across not chains and the fused three-operand kernels.
        for ways in 0..6u32 {
            let constructed: Vec<(&str, Aob)> = vec![
                ("zeros", Aob::zeros(ways)),
                ("ones", Aob::ones(ways)),
                ("from_fn", Aob::from_fn(ways, |e| e % 2 == 0)),
                ("from_bits", Aob::from_bits(ways, u64::MAX)),
                ("hadamard", Aob::hadamard(ways, ways.saturating_sub(1))),
            ];
            for (name, v) in &constructed {
                assert_padded(v, name);
                // not chains: the involution must mask, every time.
                let mut chained = v.clone();
                for i in 0..5 {
                    chained.not_assign();
                    assert_padded(&chained, name);
                    if i % 2 == 1 {
                        assert_eq!(&chained, v, "{name}: double-not is identity");
                    }
                }
                assert_padded(&v.not_of(), name);
            }
            // Fused kernels across constructor pairs, including the
            // all-ones/`from_bits(MAX)` worst case for padding leaks.
            for (na, a) in &constructed {
                for (nb, b) in &constructed {
                    assert_padded(&Aob::and_of(a, b), na);
                    assert_padded(&Aob::or_of(a, b), na);
                    assert_padded(&Aob::xor_of(a, b), na);
                    let nc = Aob::ccnot_of(a, b, &Aob::ones(ways));
                    assert_padded(&nc, na);
                    assert_padded(&Aob::mux_of(a, b, &nc), nb);
                    let mut x = a.clone();
                    let mut y = b.clone();
                    Aob::cswap(&mut x, &mut y, &Aob::ones(ways));
                    assert_padded(&x, na);
                    assert_padded(&y, nb);
                    let mut z = a.clone();
                    z.ccnot_assign(b, &Aob::ones(ways));
                    assert_padded(&z, na);
                }
            }
            // pop over the full vector sees no phantom ones from padding.
            let mut ones = Aob::ones(ways);
            ones.not_assign();
            assert_eq!(ones.pop_all(), 0, "ways {ways}: NOT(ones) has population 0");
        }
    }
}
