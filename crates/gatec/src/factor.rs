//! Prime-factoring program generation (paper §4) and the verbatim
//! Figure 10 listing.

use pbp::Pbits;

use crate::builder::PintProgram;
use crate::emit::EmitResult;
use crate::regalloc::RegAllocError;
use crate::Compiler;

/// A complete, runnable factoring program.
#[derive(Debug, Clone)]
pub struct FactorProgram {
    /// Full assembly text: gate computation + read-out tail + `sys`.
    pub asm: String,
    /// Qat register holding the `e` predicate ("product equals n").
    pub e_reg: u8,
    /// Qat instructions in the gate section.
    pub qat_insns: usize,
    /// Operand width in pbits.
    pub width: usize,
}

/// Build the word-level factoring program for `n` with `width`-bit
/// operands (Figure 9 generalized): `e = (b*c == n)` with `b` on channel
/// dimensions `0..width` and `c` on `width..2*width`.
pub fn build_factoring(n: u64, width: usize, optimized: bool) -> PintProgram {
    assert!(width <= 8, "two operands need 2*width ≤ 16 dimensions");
    assert!(n < (1 << width), "n must fit the operand width");
    let mut p = if optimized { PintProgram::new() } else { PintProgram::new_unoptimized() };
    let b = p.pint_h_auto(width);
    let c = p.pint_h_auto(width);
    let Ok(d) = p.pint_mul(&b, &c);
    let target = p.pint_mk(width, n);
    let Ok(e) = p.pint_eq(&d, &target);
    p.output("e", e);
    p
}

/// Compile the complete factoring program, including the Figure-10-style
/// read-out tail:
///
/// ```text
/// li   $0,(1<<width)+n   ; the last "trivial" channel (b = n, c = 1)
/// next $0,@e             ; first non-trivial factor channel
/// copy $1,$0
/// next $1,@e             ; second non-trivial factor channel
/// li   $2,(1<<width)-1
/// and  $0,$2             ; channel % 2^width  ==  the factor (b)
/// and  $1,$2
/// sys
/// ```
///
/// After the run, `$0` and `$1` hold the two smallest non-trivial factors
/// of `n` (for 15: 5 and 3, matching the paper's `;5` / `;3` comments).
/// For prime `n` the pair is `(1, 0)`: only the `b = 1` channel remains,
/// and the second `next` finds nothing.
pub fn compile_factoring(
    n: u64,
    width: usize,
    compiler: &Compiler,
) -> Result<FactorProgram, RegAllocError> {
    let prog = build_factoring(n, width, true);
    let EmitResult { asm, output_regs, qat_insns } = compiler.compile(&prog)?;
    let e_reg = output_regs
        .iter()
        .find(|(name, _)| name == "e")
        .expect("factoring program defines `e`")
        .1;
    let mut full = asm;
    let skip = (1u64 << width) + n;
    let mask = (1u64 << width) - 1;
    full.push_str(&format!(
        "li $0,{skip}\nnext $0,@{e_reg}\ncopy $1,$0\nnext $1,@{e_reg}\n\
         li $2,{mask}\nand $0,$2\nand $1,$2\nsys\n"
    ));
    Ok(FactorProgram { asm: full, e_reg, qat_insns, width })
}

/// The paper's Figure 10, transcribed verbatim (three columns read in
/// order). Produces the prime factors of 15 in `$0` and `$1` when run on
/// a Tangled/Qat with at least 8-way entanglement.
pub const FIGURE_10: &str = "\
had @0,3
had @1,5
and @2,@0,@1
had @3,4
and @4,@0,@3
had @5,2
and @6,@5,@1
and @7,@4,@6
and @8,@5,@3
had @9,1
and @10,@9,@1
and @11,@8,@10
and @12,@9,@3
had @13,0
and @14,@13,@1
and @15,@12,@14
xor @16,@8,@10
and @17,@15,@16
or @18,@11,@17
xor @19,@4,@6
and @20,@18,@19
or @21,@7,@20
and @22,@2,@21
had @23,6
and @24,@0,@23
and @25,@22,@24
xor @26,@2,@21
and @27,@5,@23
and @28,@26,@27
xor @29,@18,@19
and @30,@9,@23
and @31,@29,@30
xor @32,@15,@16
and @33,@13,@23
and @34,@32,@33
xor @35,@29,@30
and @36,@34,@35
or @37,@31,@36
xor @38,@26,@27
and @39,@37,@38
or @40,@28,@39
xor @41,@22,@24
and @42,@40,@41
or @43,@25,@42
had @44,7
and @45,@0,@44
and @46,@43,@45
xor @47,@40,@41
and @48,@5,@44
and @49,@47,@48
xor @50,@37,@38
and @51,@9,@44
and @52,@50,@51
xor @53,@34,@35
and @54,@13,@44
and @55,@53,@54
xor @56,@50,@51
and @57,@55,@56
or @58,@52,@57
xor @59,@47,@48
and @60,@58,@59
or @61,@49,@60
xor @62,@43,@45
and @63,@61,@62
or @64,@46,@63
xor @65,@61,@62
xor @66,@58,@59
xor @67,@55,@56
xor @68,@53,@54
xor @69,@32,@33
and @70,@13,@3
xor @71,@12,@14
and @72,@70,@71
and @73,@69,@72
and @74,@68,@73
or @75,@74,@74
not @75
or @76,@67,@75
or @77,@66,@76
or @78,@65,@77
or @79,@64,@78
or @80,@79,@79
not @80
lex $0,31
next $0,@80
copy $1,$0
next $1,@80
lex $2,15
and $0,$2 ;5
and $1,$2 ;3
";

#[cfg(test)]
mod tests {
    use super::*;
    use qat_coproc::QatConfig;
    use tangled_sim::{Machine, MachineConfig};

    fn run_asm(asm: &str, ways: u32) -> Machine {
        let img = tangled_asm::assemble(asm).expect("assembles");
        let cfg = MachineConfig { qat: QatConfig::with_ways(ways), ..Default::default() };
        let mut m = Machine::with_image(cfg, &img.words);
        m.run().expect("runs to sys");
        m
    }

    #[test]
    fn compiled_factoring_of_15_yields_5_and_3() {
        let prog = compile_factoring(15, 4, &Compiler::default()).unwrap();
        let m = run_asm(&prog.asm, 8);
        assert_eq!((m.regs[0], m.regs[1]), (5, 3));
    }

    #[test]
    fn compiled_factoring_of_221_yields_13_and_17() {
        // The prototype's original target (§4.1), needing 16-way
        // entanglement (two 8-bit operands).
        let prog = compile_factoring(221, 8, &Compiler::default()).unwrap();
        let m = run_asm(&prog.asm, 16);
        // 17 pairs with the smaller cofactor (13), so it is found first.
        assert_eq!((m.regs[0], m.regs[1]), (17, 13));
    }

    #[test]
    fn prime_modulus_reports_one_zero() {
        let prog = compile_factoring(13, 4, &Compiler::default()).unwrap();
        let m = run_asm(&prog.asm, 8);
        assert_eq!((m.regs[0], m.regs[1]), (1, 0));
    }

    #[test]
    fn more_factorizations() {
        // The first factor found pairs with the smallest cofactor c ≥ 2,
        // so it is the largest non-trivial factor.
        for (n, w, lo, hi) in [(21u64, 5usize, 7u16, 3u16), (35, 6, 7, 5), (6, 3, 3, 2)] {
            let prog = compile_factoring(n, w, &Compiler::default()).unwrap();
            let m = run_asm(&prog.asm, (2 * w) as u32);
            assert_eq!((m.regs[0], m.regs[1]), (lo, hi), "n={n}");
        }
    }
}
