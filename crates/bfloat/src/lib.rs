#![warn(missing_docs)]
//! # tangled-bfloat — the Tangled bfloat16 arithmetic unit
//!
//! Tangled's floating-point instructions (`addf`, `mulf`, `negf`, `recip`,
//! `float`, `int` — paper Table 1) operate on **bfloat16**: 1 sign bit,
//! 8 exponent bits, 7 fraction bits — exactly the top half of an IEEE-754
//! `f32`. The paper chose bfloat16 because "values can be treated as
//! standard 32-bit float values by simply catenating a 16-bit value of 0",
//! and because single-cycle FPGA ALU implementations exist.
//!
//! This crate reproduces the course ALU library:
//!
//! * [`Bf16`] — the value type, with conversions and classification.
//! * `add`/`mul` — computed through `f32` (every bf16 embeds exactly in
//!   `f32`) and rounded back with round-to-nearest-even, the standard
//!   bfloat16 semantics.
//! * [`Bf16::neg`] — a pure sign-bit flip, as the hardware does it.
//! * [`Bf16::recip`] — the course's lookup-table reciprocal: a 128-entry
//!   fraction-reciprocal table (the paper's "VMEM file initializing a
//!   lookup table for computing fraction reciprocals") plus exponent
//!   negation, with one Newton–Raphson refinement step. Accuracy is tested
//!   exhaustively to ≤ 1 ulp against the exact reciprocal on normal inputs.
//! * [`Bf16::from_i16`] / [`Bf16::to_i16`] — the `float`/`int` conversion
//!   instructions (truncate toward zero, saturating).

mod recip_table;

pub use recip_table::RECIP_TABLE;

/// A bfloat16 value: the top 16 bits of an IEEE-754 single.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Bf16(pub u16);

impl Bf16 {
    /// Positive zero.
    pub const ZERO: Bf16 = Bf16(0x0000);
    /// One.
    pub const ONE: Bf16 = Bf16(0x3F80);
    /// Negative one.
    pub const NEG_ONE: Bf16 = Bf16(0xBF80);
    /// Positive infinity.
    pub const INFINITY: Bf16 = Bf16(0x7F80);
    /// Negative infinity.
    pub const NEG_INFINITY: Bf16 = Bf16(0xFF80);
    /// A canonical quiet NaN.
    pub const NAN: Bf16 = Bf16(0x7FC0);

    /// Reinterpret the 16-bit pattern as an `f32` by catenating 16 zero
    /// bits — the paper's observation about bfloat16's convenience.
    #[inline]
    pub fn to_f32(self) -> f32 {
        f32::from_bits((self.0 as u32) << 16)
    }

    /// Round an `f32` to bfloat16 with round-to-nearest-even.
    #[inline]
    pub fn from_f32(x: f32) -> Bf16 {
        let bits = x.to_bits();
        if x.is_nan() {
            // Preserve sign + set a quiet bit so NaN survives truncation.
            return Bf16(((bits >> 16) as u16) | 0x0040);
        }
        // Round-to-nearest-even on the discarded low half: add 0x7FFF plus
        // the current lsb of the kept half; carry propagates into the
        // exponent, correctly producing infinity on overflow.
        let lsb = (bits >> 16) & 1;
        Bf16(((bits + 0x0000_7FFF + lsb) >> 16) as u16)
    }

    /// Sign bit set?
    #[inline]
    pub fn is_sign_negative(self) -> bool {
        self.0 & 0x8000 != 0
    }

    /// Biased exponent field (8 bits).
    #[inline]
    pub fn exponent_bits(self) -> u16 {
        (self.0 >> 7) & 0xFF
    }

    /// Fraction field (7 bits).
    #[inline]
    pub fn fraction_bits(self) -> u16 {
        self.0 & 0x7F
    }

    /// NaN test.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.exponent_bits() == 0xFF && self.fraction_bits() != 0
    }

    /// Infinity test (either sign).
    #[inline]
    pub fn is_infinite(self) -> bool {
        self.exponent_bits() == 0xFF && self.fraction_bits() == 0
    }

    /// Zero test (either sign).
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 & 0x7FFF == 0
    }

    /// `addf`: bfloat16 addition with round-to-nearest-even.
    #[inline]
    // Named after the Tangled instruction it implements, not `std::ops`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Bf16) -> Bf16 {
        Bf16::from_f32(self.to_f32() + rhs.to_f32())
    }

    /// `mulf`: bfloat16 multiplication. Exact-then-round: the product of
    /// two 8-bit-significand values fits in `f32`'s 24-bit significand, so
    /// this is correctly rounded.
    #[inline]
    // Named after the Tangled instruction it implements, not `std::ops`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Bf16) -> Bf16 {
        Bf16::from_f32(self.to_f32() * rhs.to_f32())
    }

    /// `negf`: flip the sign bit. The hardware treats this as a pure
    /// bitwise operation, so `negf` of NaN flips the NaN's sign too.
    #[inline]
    // Named after the Tangled instruction it implements, not `std::ops`.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Bf16 {
        Bf16(self.0 ^ 0x8000)
    }

    /// `recip`: table-driven reciprocal, as the course ALU implements it.
    ///
    /// For a normal input `±1.f × 2^e`, the significand reciprocal is
    /// seeded from [`RECIP_TABLE`]`[f]` and refined with one Newton–Raphson
    /// step; the exponent is negated. Specials follow IEEE:
    /// `recip(±0) = ±inf`, `recip(±inf) = ±0`, `recip(NaN) = NaN`.
    /// Subnormal inputs flush to signed infinity (the course ALU flushed
    /// subnormals to zero — a common FPGA shortcut).
    pub fn recip(self) -> Bf16 {
        if self.is_nan() {
            return Bf16::NAN;
        }
        let sign = self.0 & 0x8000;
        if self.is_infinite() {
            return Bf16(sign); // signed zero
        }
        if self.exponent_bits() == 0 {
            // zero or subnormal: flush -> signed infinity
            return Bf16(sign | 0x7F80);
        }
        // Significand 1.f in [1, 2) as an exact f32.
        let x = f32::from_bits(0x3F80_0000 | ((self.fraction_bits() as u32) << 16));
        // Table seed: fraction bits of 2/(1.f) halved into [0.5, 1).
        let seed_frac = RECIP_TABLE[self.fraction_bits() as usize];
        let mut r = f32::from_bits(0x3F00_0000 | ((seed_frac as u32) << 16));
        // One Newton–Raphson refinement: r = r * (2 - x*r).
        r = r * (2.0 - x * r);
        let e = self.exponent_bits() as i32 - 127;
        let recip = r * (2.0f32).powi(-e);
        Bf16::from_f32(if sign != 0 { -recip } else { recip })
    }

    /// Subtraction composed exactly as Tangled software does it:
    /// `addf` with `negf` of the subtrahend.
    #[inline]
    // Named after the `addf`/`negf` sequence it models, not `std::ops`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Bf16) -> Bf16 {
        self.add(rhs.neg())
    }

    /// Division composed as Tangled software does it: `mulf` with `recip`
    /// of the divisor (so its accuracy inherits the table reciprocal's
    /// ≤ 1 ulp bound plus one rounding).
    #[inline]
    // Named after the `mulf`/`recip` sequence it models, not `std::ops`.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, rhs: Bf16) -> Bf16 {
        self.mul(rhs.recip())
    }

    /// IEEE-754 ordered comparison (`None` when either side is NaN) —
    /// what an `sltf` instruction would compute had the ISA included one.
    pub fn partial_cmp_ieee(self, rhs: Bf16) -> Option<std::cmp::Ordering> {
        if self.is_nan() || rhs.is_nan() {
            return None;
        }
        self.to_f32().partial_cmp(&rhs.to_f32())
    }

    /// Exact reciprocal via `f32` division — the oracle the table-based
    /// [`Bf16::recip`] is tested against.
    pub fn recip_exact(self) -> Bf16 {
        Bf16::from_f32(1.0 / self.to_f32())
    }

    /// `float $d`: convert a 16-bit two's-complement integer to bfloat16
    /// (round-to-nearest-even; integers above 256 in magnitude may round).
    pub fn from_i16(v: i16) -> Bf16 {
        Bf16::from_f32(v as f32)
    }

    /// `int $d`: convert to a 16-bit integer, truncating toward zero and
    /// saturating on overflow; NaN converts to 0.
    pub fn to_i16(self) -> i16 {
        let f = self.to_f32();
        if f.is_nan() {
            return 0;
        }
        if f >= i16::MAX as f32 {
            return i16::MAX;
        }
        if f <= i16::MIN as f32 {
            return i16::MIN;
        }
        f.trunc() as i16
    }
}

impl std::fmt::Debug for Bf16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bf16({:#06x} = {})", self.0, self.to_f32())
    }
}

impl std::fmt::Display for Bf16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl From<f32> for Bf16 {
    fn from(x: f32) -> Self {
        Bf16::from_f32(x)
    }
}

impl From<Bf16> for f32 {
    fn from(x: Bf16) -> Self {
        x.to_f32()
    }
}

/// Distance in units-in-the-last-place between two finite values (test
/// helper for the reciprocal accuracy bound). Signed patterns are mapped
/// onto a single monotone integer line so ±0 are adjacent.
pub fn ulp_distance(a: Bf16, b: Bf16) -> u32 {
    fn key(x: Bf16) -> i32 {
        let m = x.0 as i32;
        if m & 0x8000 != 0 {
            0x8000 - m
        } else {
            m
        }
    }
    key(a).abs_diff(key(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_roundtrip() {
        assert_eq!(Bf16::ZERO.to_f32(), 0.0);
        assert_eq!(Bf16::ONE.to_f32(), 1.0);
        assert_eq!(Bf16::NEG_ONE.to_f32(), -1.0);
        assert!(Bf16::INFINITY.to_f32().is_infinite());
        assert!(Bf16::NAN.is_nan());
    }

    #[test]
    fn from_f32_rounds_to_nearest_even() {
        // 1.0 + 2^-8 is exactly halfway between bf16(1.0) and the next
        // representable value; ties-to-even keeps 1.0.
        let halfway = f32::from_bits(0x3F80_8000);
        assert_eq!(Bf16::from_f32(halfway), Bf16(0x3F80));
        // Just above halfway rounds up.
        let above = f32::from_bits(0x3F80_8001);
        assert_eq!(Bf16::from_f32(above), Bf16(0x3F81));
        // Odd lsb ties round up to even.
        let halfway_odd = f32::from_bits(0x3F81_8000);
        assert_eq!(Bf16::from_f32(halfway_odd), Bf16(0x3F82));
    }

    #[test]
    fn from_f32_overflow_carries_to_infinity() {
        let just_below_inf = f32::from_bits(0x7F7F_FFFF); // f32::MAX
        assert_eq!(Bf16::from_f32(just_below_inf), Bf16::INFINITY);
        assert_eq!(Bf16::from_f32(f32::INFINITY), Bf16::INFINITY);
        assert_eq!(Bf16::from_f32(f32::NEG_INFINITY), Bf16::NEG_INFINITY);
    }

    #[test]
    fn add_basics() {
        let two = Bf16::ONE.add(Bf16::ONE);
        assert_eq!(two.to_f32(), 2.0);
        assert_eq!(Bf16::from_f32(1.5).add(Bf16::from_f32(2.25)).to_f32(), 3.75);
        assert_eq!(Bf16::ONE.add(Bf16::NEG_ONE), Bf16::ZERO);
        assert!(Bf16::INFINITY.add(Bf16::NEG_INFINITY).is_nan());
    }

    #[test]
    fn mul_basics() {
        assert_eq!(Bf16::from_f32(3.0).mul(Bf16::from_f32(5.0)).to_f32(), 15.0);
        assert_eq!(Bf16::from_f32(-2.0).mul(Bf16::from_f32(0.5)).to_f32(), -1.0);
        assert!(Bf16::ZERO.mul(Bf16::INFINITY).is_nan());
        assert_eq!(Bf16::from_f32(1e38).mul(Bf16::from_f32(10.0)), Bf16::INFINITY);
    }

    #[test]
    fn neg_is_sign_flip() {
        assert_eq!(Bf16::ONE.neg(), Bf16::NEG_ONE);
        assert_eq!(Bf16::ZERO.neg(), Bf16(0x8000)); // -0.0
        assert_eq!(Bf16::ONE.neg().neg(), Bf16::ONE);
        assert_eq!(Bf16::NAN.neg().0, Bf16::NAN.0 ^ 0x8000);
    }

    #[test]
    fn recip_specials() {
        assert_eq!(Bf16::ZERO.recip(), Bf16::INFINITY);
        assert_eq!(Bf16(0x8000).recip(), Bf16::NEG_INFINITY);
        assert_eq!(Bf16::INFINITY.recip(), Bf16::ZERO);
        assert_eq!(Bf16::NEG_INFINITY.recip(), Bf16(0x8000));
        assert!(Bf16::NAN.recip().is_nan());
        assert_eq!(Bf16::ONE.recip(), Bf16::ONE);
        assert_eq!(Bf16::from_f32(2.0).recip().to_f32(), 0.5);
        assert_eq!(Bf16::from_f32(-4.0).recip().to_f32(), -0.25);
        assert_eq!(Bf16::from_f32(8.0).recip().to_f32(), 0.125);
    }

    #[test]
    fn recip_table_accuracy_all_normals() {
        // Exhaustive over every normal bf16: table+Newton within 1 ulp of
        // the correctly-rounded reciprocal.
        let mut worst = 0u32;
        for bits in 0..=0xFFFFu16 {
            let x = Bf16(bits);
            if x.is_nan() || x.is_infinite() || x.exponent_bits() == 0 {
                continue;
            }
            let got = x.recip();
            let want = x.recip_exact();
            if got.is_infinite() || want.is_infinite() || got.is_zero() || want.is_zero() {
                assert_eq!(got, want, "special disagreement at x={x:?}");
                continue;
            }
            worst = worst.max(ulp_distance(got, want));
        }
        assert!(worst <= 1, "worst reciprocal error {worst} ulp");
    }

    #[test]
    fn int_conversions() {
        for v in [-32768i16, -1000, -1, 0, 1, 2, 127, 128, 255, 256, 1000] {
            let f = Bf16::from_i16(v);
            // bf16 has an 8-bit significand: integers up to 256 are exact.
            if v.unsigned_abs() <= 256 {
                assert_eq!(f.to_i16(), v, "v={v}");
            }
        }
        assert_eq!(Bf16::from_f32(2.75).to_i16(), 2);
        assert_eq!(Bf16::from_f32(-2.75).to_i16(), -2);
        assert_eq!(Bf16::from_f32(1e9).to_i16(), i16::MAX);
        assert_eq!(Bf16::from_f32(-1e9).to_i16(), i16::MIN);
        assert_eq!(Bf16::NAN.to_i16(), 0);
        assert_eq!(Bf16::INFINITY.to_i16(), i16::MAX);
    }

    #[test]
    fn sub_and_div_compose_correctly() {
        assert_eq!(Bf16::from_f32(7.0).sub(Bf16::from_f32(3.0)).to_f32(), 4.0);
        assert_eq!(Bf16::from_f32(-1.5).sub(Bf16::from_f32(-1.5)), Bf16::ZERO);
        assert_eq!(Bf16::from_f32(10.0).div(Bf16::from_f32(4.0)).to_f32(), 2.5);
        assert_eq!(Bf16::from_f32(1.0).div(Bf16::ZERO), Bf16::INFINITY);
        assert!(Bf16::ZERO.div(Bf16::ZERO).is_nan());
    }

    #[test]
    fn div_is_close_to_exact_division_everywhere() {
        // Exhaustive over a normal operand grid: mul-by-recip lands within
        // 2 ulps of the correctly rounded quotient.
        let mut worst = 0;
        for a in (0u16..0x7F80).step_by(97) {
            for b in (0x0080u16..0x7F80).step_by(89) {
                let (x, y) = (Bf16(a), Bf16(b));
                if x.exponent_bits() == 0 {
                    continue;
                }
                let got = x.div(y);
                let want = Bf16::from_f32(x.to_f32() / y.to_f32());
                if got.is_infinite() || got.is_zero() || want.is_infinite() || want.is_zero() {
                    continue; // overflow/underflow edges compared elsewhere
                }
                worst = worst.max(ulp_distance(got, want));
            }
        }
        assert!(worst <= 2, "worst division error {worst} ulp");
    }

    #[test]
    fn ieee_comparison() {
        use std::cmp::Ordering::*;
        assert_eq!(Bf16::ONE.partial_cmp_ieee(Bf16::from_f32(2.0)), Some(Less));
        assert_eq!(Bf16::ONE.partial_cmp_ieee(Bf16::ONE), Some(Equal));
        assert_eq!(Bf16::from_f32(-3.0).partial_cmp_ieee(Bf16::NEG_INFINITY), Some(Greater));
        assert_eq!(Bf16::ZERO.partial_cmp_ieee(Bf16(0x8000)), Some(Equal)); // +0 == -0
        assert_eq!(Bf16::NAN.partial_cmp_ieee(Bf16::ONE), None);
    }

    #[test]
    fn float_of_large_int_rounds() {
        // 32767 is not representable in bf16; nearest is 32768.
        assert_eq!(Bf16::from_i16(32767).to_f32(), 32768.0);
    }

    #[test]
    fn ulp_distance_sanity() {
        assert_eq!(ulp_distance(Bf16::ONE, Bf16::ONE), 0);
        assert_eq!(ulp_distance(Bf16(0x3F80), Bf16(0x3F81)), 1);
        assert_eq!(ulp_distance(Bf16(0x0000), Bf16(0x8000)), 0); // ±0 adjacent
    }
}
