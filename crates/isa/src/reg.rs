//! Register names for Tangled and Qat.
//!
//! Tangled has 16 conventional general-purpose registers: `$0`–`$10` for
//! general use, `$at` (11) reserved for assembler macros, and the calling-
//! convention quartet `$rv` (12), `$ra` (13), `$fp` (14), `$sp` (15).
//! "None of the Tangled registers has any special meaning relative to the
//! Qat coprocessor" — the hardware treats all 16 identically.
//!
//! Qat has 256 AoB registers `@0`–`@255` and, deliberately, no access to
//! host memory — "the lack of external storage is also why a relatively
//! large number of registers was selected".

use std::fmt;

/// A Tangled general-purpose register, `$0`–`$15`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

/// Assembler-temporary register `$at` = `$11`.
pub const AT: Reg = Reg(11);
/// Return-value register `$rv` = `$12`.
pub const RV: Reg = Reg(12);
/// Return-address register `$ra` = `$13`.
pub const RA: Reg = Reg(13);
/// Frame-pointer register `$fp` = `$14`.
pub const FP: Reg = Reg(14);
/// Stack-pointer register `$sp` = `$15`.
pub const SP: Reg = Reg(15);

impl Reg {
    /// Construct from a register number; panics if out of range.
    #[inline]
    pub fn new(n: u8) -> Reg {
        assert!(n < 16, "Tangled has 16 registers; ${n} is invalid");
        Reg(n)
    }

    /// Construct from the low 4 bits of an encoded field.
    #[inline]
    pub fn from_field(bits: u16) -> Reg {
        Reg((bits & 0xF) as u8)
    }

    /// Register number, 0–15.
    #[inline]
    pub fn num(self) -> u8 {
        self.0
    }

    /// Parse an assembler register token: `$3`, `$at`, `$sp`, …
    pub fn parse(s: &str) -> Option<Reg> {
        let body = s.strip_prefix('$')?;
        match body {
            "at" => Some(AT),
            "rv" => Some(RV),
            "ra" => Some(RA),
            "fp" => Some(FP),
            "sp" => Some(SP),
            _ => {
                let n: u8 = body.parse().ok()?;
                (n < 16).then_some(Reg(n))
            }
        }
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            AT => write!(f, "$at"),
            RV => write!(f, "$rv"),
            RA => write!(f, "$ra"),
            FP => write!(f, "$fp"),
            SP => write!(f, "$sp"),
            Reg(n) => write!(f, "${n}"),
        }
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A Qat coprocessor AoB register, `@0`–`@255`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QReg(pub u8);

impl QReg {
    /// Register number, 0–255.
    #[inline]
    pub fn num(self) -> u8 {
        self.0
    }

    /// Parse an assembler Qat register token: `@42`.
    pub fn parse(s: &str) -> Option<QReg> {
        let body = s.strip_prefix('@')?;
        body.parse::<u8>().ok().map(QReg)
    }
}

impl fmt::Display for QReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

impl fmt::Debug for QReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_numeric_and_named() {
        assert_eq!(Reg::parse("$0"), Some(Reg::new(0)));
        assert_eq!(Reg::parse("$10"), Some(Reg::new(10)));
        assert_eq!(Reg::parse("$at"), Some(AT));
        assert_eq!(Reg::parse("$rv"), Some(RV));
        assert_eq!(Reg::parse("$ra"), Some(RA));
        assert_eq!(Reg::parse("$fp"), Some(FP));
        assert_eq!(Reg::parse("$sp"), Some(SP));
        assert_eq!(Reg::parse("$16"), None);
        assert_eq!(Reg::parse("$-1"), None);
        assert_eq!(Reg::parse("x3"), None);
        assert_eq!(Reg::parse("$"), None);
    }

    #[test]
    fn display_roundtrips_through_parse() {
        for n in 0..16u8 {
            let r = Reg::new(n);
            assert_eq!(Reg::parse(&r.to_string()), Some(r));
        }
    }

    #[test]
    fn named_registers_have_paper_numbers() {
        assert_eq!(AT.num(), 11);
        assert_eq!(RV.num(), 12);
        assert_eq!(RA.num(), 13);
        assert_eq!(FP.num(), 14);
        assert_eq!(SP.num(), 15);
    }

    #[test]
    #[should_panic(expected = "16 registers")]
    fn reg_out_of_range_panics() {
        Reg::new(16);
    }

    #[test]
    fn qreg_parse_and_display() {
        assert_eq!(QReg::parse("@0"), Some(QReg(0)));
        assert_eq!(QReg::parse("@255"), Some(QReg(255)));
        assert_eq!(QReg::parse("@256"), None);
        assert_eq!(QReg::parse("$3"), None);
        for n in [0u8, 1, 80, 255] {
            assert_eq!(QReg::parse(&QReg(n).to_string()), Some(QReg(n)));
        }
    }
}
