#![warn(missing_docs)]
//! # tangled-asm — assembler for the Tangled/Qat instruction set
//!
//! A two-pass assembler reproducing the role AIK (the Assembler Interpreter
//! from Kentucky) played in the paper's course projects: it accepts the
//! Table 1 + Table 3 mnemonics, the Table 2 pseudo-instructions, labels,
//! comments (`;` to end of line, as in the paper's Figure 10 listing), and
//! `.word` data directives, and emits a 16-bit word image.
//!
//! ## Syntax
//!
//! ```text
//! loop:   lex  $0,31        ; comments run to end of line
//!         next $0,@80
//!         brt  $0,loop      ; branch target may be a label or an offset
//!         and  @2,@0,@1     ; Qat registers use the @ sigil
//!         .word 0x1234      ; raw data
//! ```
//!
//! ## Pseudo-instructions (Table 2)
//!
//! * `br lab` — unconditional branch; Tangled has no such instruction, so
//!   it expands to the complementary pair `brf $at,lab ; brt $at,lab`
//!   (one of the two always takes, whatever `$at` holds).
//! * `jump lab` — absolute jump: `lex $at,lo8 ; lhi $at,hi8 ; jumpr $at`.
//! * `jumpf $c,lab` / `jumpt $c,lab` — a conditional skip over a `jump`.
//! * `li $d,imm16` — load 16-bit literal: `lex` alone when the value fits
//!   sign-extended 8 bits, else `lex ; lhi`.
//!
//! ## §5 reversible-gate macro mode
//!
//! With [`AsmOptions::expand_reversible`], the reversible Qat instructions
//! assemble as the macro sequences the paper's conclusions recommend
//! (using a reserved Qat temporary):
//! `cnot @a,@b` → `xor @a,@a,@b`; `ccnot` → `and @t,@b,@c ; xor @a,@a,@t`;
//! `swap` → triple-`xor`; `cswap` → `xor/and/xor/xor` masked swap.
//! `gen_results` compares both modes (E13).

mod expand;
mod parser;

pub use expand::{AsmOptions, Pending, Target};
pub use parser::{parse_line, Ast, Operand};

use std::collections::HashMap;
use tangled_isa::{encode, Insn, Reg};

/// An assembler diagnostic, carrying the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number in the source text.
    pub line: usize,
    /// Human-readable message.
    pub msg: String,
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

/// The assembled output.
#[derive(Debug, Clone, Default)]
pub struct Image {
    /// Instruction/data words, address 0 first.
    pub words: Vec<u16>,
    /// Label → word address.
    pub symbols: HashMap<String, u16>,
    /// Word address → source line (for simulator diagnostics).
    pub line_map: HashMap<u16, usize>,
}

/// Assemble with default options.
pub fn assemble(src: &str) -> Result<Image, AsmError> {
    assemble_with(src, &AsmOptions::default())
}

/// Assemble with explicit options.
pub fn assemble_with(src: &str, opts: &AsmOptions) -> Result<Image, AsmError> {
    // Parse every line into AST items.
    let mut pendings: Vec<(usize, Pending)> = Vec::new();
    let mut symbols: HashMap<String, u16> = HashMap::new();
    let mut addr: u32 = 0;

    for (idx, raw) in src.lines().enumerate() {
        let line_no = idx + 1;
        let ast = parse_line(raw).map_err(|msg| AsmError { line: line_no, msg })?;
        for label in ast.labels {
            if symbols.insert(label.clone(), addr as u16).is_some() {
                return Err(AsmError { line: line_no, msg: format!("duplicate label `{label}`") });
            }
        }
        let Some(mut stmt) = ast.stmt else { continue };

        // Assembler-level directives that manipulate the location counter
        // or symbol table directly.
        match stmt.mnemonic.as_str() {
            ".org" => {
                let err = |msg: &str| AsmError { line: line_no, msg: msg.into() };
                let [parser::Operand::Imm(v)] = stmt.operands[..] else {
                    return Err(err(".org takes one numeric address"));
                };
                let v = v as u32 & 0xFFFF;
                if v < addr {
                    return Err(err(".org cannot move the location counter backward"));
                }
                for _ in addr..v {
                    pendings.push((line_no, Pending::Word(0)));
                }
                addr = v;
                continue;
            }
            ".equ" => {
                let err = |msg: &str| AsmError { line: line_no, msg: msg.into() };
                let [parser::Operand::Ident(ref name), parser::Operand::Imm(v)] =
                    stmt.operands[..]
                else {
                    return Err(err(".equ takes a name and a numeric value"));
                };
                if symbols.insert(name.clone(), (v & 0xFFFF) as u16).is_some() {
                    return Err(err("duplicate symbol"));
                }
                continue;
            }
            ".ascii" => {
                // One word per character (Tangled is word-addressed).
                let err = |msg: &str| AsmError { line: line_no, msg: msg.into() };
                let [parser::Operand::Str(ref text)] = stmt.operands[..] else {
                    return Err(err(".ascii takes one double-quoted string"));
                };
                for ch in text.chars() {
                    pendings.push((line_no, Pending::Word(ch as u16)));
                    addr += 1;
                }
                continue;
            }
            _ => {}
        }

        // Symbol substitution: .equ names used as immediates.
        for op in &mut stmt.operands {
            if let parser::Operand::Ident(name) = op {
                if let Some(&v) = symbols.get(name.as_str()) {
                    // Only substitute for non-branch mnemonics; branch
                    // targets must stay labels so offsets resolve in pass 2
                    // (forward label references also stay).
                    if !matches!(
                        stmt.mnemonic.as_str(),
                        "brf" | "brt" | "br" | "jump" | "jumpf" | "jumpt"
                    ) {
                        *op = parser::Operand::Imm(v as i32);
                    }
                }
            }
        }

        let units = expand::expand(stmt, opts).map_err(|msg| AsmError { line: line_no, msg })?;
        for p in units {
            let sz = p.size() as u32;
            if addr + sz > 0x1_0000 {
                return Err(AsmError { line: line_no, msg: "image exceeds 64K words".into() });
            }
            pendings.push((line_no, p));
            addr += sz;
        }
    }

    // Pass 2: resolve labels and encode.
    let mut image = Image::default();
    let mut pc: u16 = 0;
    let resolve = |t: &Target, line: usize| -> Result<u16, AsmError> {
        match t {
            Target::Abs(a) => Ok(*a),
            Target::Label(name) => symbols
                .get(name)
                .copied()
                .ok_or_else(|| AsmError { line, msg: format!("undefined label `{name}`") }),
        }
    };
    for (line, p) in &pendings {
        image.line_map.insert(pc, *line);
        let words = match p {
            Pending::Concrete(insn) => encode(*insn),
            Pending::Word(w) => vec![*w],
            Pending::Branch { true_sense, c, target } => {
                let dest = resolve(target, *line)?;
                // Branch semantics: PC has advanced past the (1-word)
                // instruction, then PC += offset.
                let off = (dest as i32) - (pc as i32 + 1);
                let off: i8 = off.try_into().map_err(|_| AsmError {
                    line: *line,
                    msg: format!("branch target out of range (offset {off})"),
                })?;
                let insn = if *true_sense {
                    Insn::Brt { c: *c, off }
                } else {
                    Insn::Brf { c: *c, off }
                };
                encode(insn)
            }
            Pending::LexLow { d, target } => {
                let dest = resolve(target, *line)?;
                encode(Insn::Lex { d: *d, imm: (dest & 0xFF) as u8 as i8 })
            }
            Pending::LhiHigh { d, target } => {
                let dest = resolve(target, *line)?;
                encode(Insn::Lhi { d: *d, imm: (dest >> 8) as u8 })
            }
            Pending::AddrWord { target } => vec![resolve(target, *line)?],
        };
        pc = pc.wrapping_add(words.len() as u16);
        image.words.extend(words);
    }
    image.symbols = symbols;
    Ok(image)
}

/// Convenience: assemble and panic with the diagnostic on error (tests).
pub fn assemble_ok(src: &str) -> Image {
    match assemble(src) {
        Ok(i) => i,
        Err(e) => panic!("assembly failed: {e}"),
    }
}

/// Re-export for macro expansion defaults.
pub fn at_register() -> Reg {
    tangled_isa::reg::AT
}

#[cfg(test)]
mod tests {
    use super::*;
    use tangled_isa::{decode_stream, QReg};

    fn r(n: u8) -> Reg {
        Reg::new(n)
    }

    fn insns(img: &Image) -> Vec<Insn> {
        decode_stream(&img.words).unwrap().into_iter().map(|(_, i)| i).collect()
    }

    #[test]
    fn basic_program_assembles() {
        let img = assemble_ok(
            "\
            ; factoring preamble from Fig 10\n\
            had @0,3\n\
            had @1,5\n\
            and @2,@0,@1\n\
            lex $8,42\n\
            next $8,@123\n\
            sys\n",
        );
        assert_eq!(
            insns(&img),
            vec![
                Insn::QHad { a: QReg(0), k: 3 },
                Insn::QHad { a: QReg(1), k: 5 },
                Insn::QAnd { a: QReg(2), b: QReg(0), c: QReg(1) },
                Insn::Lex { d: r(8), imm: 42 },
                Insn::QNext { d: r(8), a: QReg(123) },
                Insn::Sys,
            ]
        );
    }

    #[test]
    fn labels_and_branches() {
        let img = assemble_ok(
            "\
            lex $1,3\n\
            loop: lex $2,-1\n\
            add $1,$2\n\
            brt $1,loop\n\
            sys\n",
        );
        // brt at word 3; loop at word 1; offset = 1 - (3+1) = -3.
        assert_eq!(insns(&img)[3], Insn::Brt { c: r(1), off: -3 });
        assert_eq!(img.symbols["loop"], 1);
    }

    #[test]
    fn forward_references_resolve() {
        let img = assemble_ok("brf $0,done\nsys\ndone: sys\n");
        assert_eq!(insns(&img)[0], Insn::Brf { c: r(0), off: 1 });
    }

    #[test]
    fn branch_across_two_word_insn_counts_words() {
        let img = assemble_ok("brt $0,over\nand @1,@2,@3\nover: sys\n");
        // and takes words 1..3; over = 3; offset = 3 - (0+1) = 2.
        assert_eq!(insns(&img)[0], Insn::Brt { c: r(0), off: 2 });
    }

    #[test]
    fn pseudo_br_is_complementary_pair() {
        let img = assemble_ok("br target\nsys\ntarget: sys\n");
        let i = insns(&img);
        // Layout: brf@0, brt@1, sys@2, target@3 — offsets 2 and 1.
        assert_eq!(i[0], Insn::Brf { c: at_register(), off: 2 });
        assert_eq!(i[1], Insn::Brt { c: at_register(), off: 1 });
    }

    #[test]
    fn pseudo_jump_uses_lex_lhi_jumpr() {
        let img = assemble_ok("jump far\nsys\nfar: sys\n");
        let i = insns(&img);
        assert_eq!(i.len(), 5);
        assert_eq!(i[0], Insn::Lex { d: at_register(), imm: 4 });
        assert_eq!(i[1], Insn::Lhi { d: at_register(), imm: 0 });
        assert_eq!(i[2], Insn::Jumpr { a: at_register() });
    }

    #[test]
    fn pseudo_jumpf_jumpt() {
        let img = assemble_ok("jumpf $3,skip\nsys\nskip: sys\n");
        let i = insns(&img);
        // brt $3,+3 (over the 3-word jump) then the jump expansion.
        assert_eq!(i[0], Insn::Brt { c: r(3), off: 3 });
        assert_eq!(i[3], Insn::Jumpr { a: at_register() });
    }

    #[test]
    fn li_short_and_long() {
        let img = assemble_ok("li $1,5\nli $2,-3\nli $3,300\nli $4,0x1234\n");
        let i = insns(&img);
        assert_eq!(i[0], Insn::Lex { d: r(1), imm: 5 });
        assert_eq!(i[1], Insn::Lex { d: r(2), imm: -3 });
        assert_eq!(i[2], Insn::Lex { d: r(3), imm: 44 }); // 300 & 0xFF = 44
        assert_eq!(i[3], Insn::Lhi { d: r(3), imm: 1 });
        assert_eq!(i[4], Insn::Lex { d: r(4), imm: 0x34 });
        assert_eq!(i[5], Insn::Lhi { d: r(4), imm: 0x12 });
    }

    #[test]
    fn word_directive_and_hex() {
        let img = assemble_ok(".word 0xBEEF\n.word 42\n.word -1\n");
        assert_eq!(img.words, vec![0xBEEF, 42, 0xFFFF]);
    }

    #[test]
    fn reversible_macro_mode_expands() {
        let opts = AsmOptions { expand_reversible: true, ..AsmOptions::default() };
        let img = assemble_with("cnot @5,@6\nswap @1,@2\n", &opts).unwrap();
        let i = insns(&img);
        assert_eq!(i[0], Insn::QXor { a: QReg(5), b: QReg(5), c: QReg(6) });
        // xor-swap triple
        assert_eq!(i[1], Insn::QXor { a: QReg(1), b: QReg(1), c: QReg(2) });
        assert_eq!(i[2], Insn::QXor { a: QReg(2), b: QReg(2), c: QReg(1) });
        assert_eq!(i[3], Insn::QXor { a: QReg(1), b: QReg(1), c: QReg(2) });
    }

    #[test]
    fn reversible_native_mode_is_default() {
        let img = assemble_ok("cnot @5,@6\nccnot @1,@2,@3\ncswap @4,@5,@6\n");
        let i = insns(&img);
        assert_eq!(i[0], Insn::QCnot { a: QReg(5), b: QReg(6) });
        assert_eq!(i[1], Insn::QCcnot { a: QReg(1), b: QReg(2), c: QReg(3) });
        assert_eq!(i[2], Insn::QCswap { a: QReg(4), b: QReg(5), c: QReg(6) });
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("add $1,$2\nbogus $1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("bogus"));

        let e = assemble("brt $1,nowhere\n").unwrap_err();
        assert!(e.msg.contains("undefined label"));

        let e = assemble("x: sys\nx: sys\n").unwrap_err();
        assert!(e.msg.contains("duplicate label"));

        let e = assemble("add $1\n").unwrap_err();
        assert!(e.msg.contains("operand"), "{}", e.msg);

        let e = assemble("had @1,16\n").unwrap_err();
        assert!(e.msg.contains("range"), "{}", e.msg);
    }

    #[test]
    fn branch_range_checked() {
        // A branch over >127 words of padding must error.
        let mut src = String::from("brt $0,far\n");
        for _ in 0..200 {
            src.push_str(".word 0\n");
        }
        src.push_str("far: sys\n");
        let e = assemble(&src).unwrap_err();
        assert!(e.msg.contains("out of range"));
    }

    #[test]
    fn mnemonic_sigil_disambiguation() {
        // `and`/`not`/`xor`/`or` exist in both ISAs; operands decide.
        let img = assemble_ok("and $1,$2\nand @1,@2,@3\nnot $4\nnot @4\n");
        let i = insns(&img);
        assert_eq!(i[0], Insn::And { d: r(1), s: r(2) });
        assert_eq!(i[1], Insn::QAnd { a: QReg(1), b: QReg(2), c: QReg(3) });
        assert_eq!(i[2], Insn::Not { d: r(4) });
        assert_eq!(i[3], Insn::QNot { a: QReg(4) });
    }

    #[test]
    fn disassembly_reassembles_identically() {
        let src = "\
            had @0,3\nhad @44,7\nand @2,@0,@1\nccnot @7,@8,@9\n\
            lex $0,31\nnext $0,@80\ncopy $1,$0\nand $0,$2\nsys\n";
        let img = assemble_ok(src);
        let mut text = String::new();
        for (_, insn) in decode_stream(&img.words).unwrap() {
            text.push_str(&tangled_isa::disassemble(insn));
            text.push('\n');
        }
        let img2 = assemble_ok(&text);
        assert_eq!(img.words, img2.words);
    }
}

#[cfg(test)]
mod directive_tests {
    use super::*;
    use tangled_isa::decode;

    #[test]
    fn org_pads_with_zero_words() {
        let img = assemble_ok("lex $1,1\n.org 8\ndata: .word 7\n");
        assert_eq!(img.words.len(), 9);
        assert_eq!(img.symbols["data"], 8);
        assert_eq!(img.words[8], 7);
        assert!(img.words[1..8].iter().all(|&w| w == 0));
    }

    #[test]
    fn org_cannot_go_backward() {
        let e = assemble(".org 4\n.org 2\n").unwrap_err();
        assert!(e.msg.contains("backward"));
    }

    #[test]
    fn equ_defines_immediates() {
        let img = assemble_ok(".equ LIMIT,42\n.equ MASK,0x0F\nlex $1,LIMIT\nli $2,MASK\n");
        let (i, _) = decode(&img.words).unwrap();
        assert_eq!(i, Insn::Lex { d: Reg::new(1), imm: 42 });
    }

    #[test]
    fn equ_duplicate_rejected() {
        let e = assemble(".equ A,1\n.equ A,2\n").unwrap_err();
        assert!(e.msg.contains("duplicate"));
    }

    #[test]
    fn ascii_emits_one_word_per_char() {
        let img = assemble_ok(".ascii \"Hi, Qat\"\n");
        let text: String = img.words.iter().map(|&w| (w as u8) as char).collect();
        assert_eq!(text, "Hi, Qat");
    }

    #[test]
    fn ascii_requires_quotes() {
        let e = assemble(".ascii hello\n").unwrap_err();
        assert!(e.msg.contains("double-quoted"));
    }

    #[test]
    fn word_of_label_builds_jump_tables() {
        let img = assemble_ok("table: .word a\n.word b\na: sys\nb: sys\n");
        assert_eq!(img.words[0], 2); // address of a
        assert_eq!(img.words[1], 3); // address of b
    }

    #[test]
    fn equ_with_memory_addressing_end_to_end() {
        // A program that uses .equ for a buffer address and loads through it.
        use qat_coproc::QatConfig;
        use tangled_sim::{Machine, MachineConfig};
        let img = assemble_ok(
            ".equ BUF,0x4000\nli $1,0xABCD\nli $2,BUF\nstore $1,$2\nload $3,$2\nsys\n",
        );
        let cfg = MachineConfig { qat: QatConfig::with_ways(8), ..Default::default() };
        let mut m = Machine::with_image(cfg, &img.words);
        m.run().unwrap();
        assert_eq!(m.regs[3], 0xABCD);
        assert_eq!(m.mem[0x4000], 0xABCD);
    }
}

#[cfg(test)]
mod image_tests {
    use super::*;

    #[test]
    fn line_map_points_at_source_lines() {
        let img = assemble_ok("lex $1,1\n\nand @1,@2,@3\nsys\n");
        // Word 0 from line 1, word 1 (two-word insn) from line 3, word 3
        // (sys) from line 4.
        assert_eq!(img.line_map[&0], 1);
        assert_eq!(img.line_map[&1], 3);
        assert_eq!(img.line_map[&3], 4);
    }

    #[test]
    fn line_map_covers_macro_expansions() {
        let img = assemble_ok("jump far\nfar: sys\n");
        // All three expansion words come from line 1.
        assert_eq!(img.line_map[&0], 1);
        assert_eq!(img.line_map[&1], 1);
        assert_eq!(img.line_map[&2], 1);
        assert_eq!(img.line_map[&3], 2);
    }

    #[test]
    fn symbols_include_labels_and_equ() {
        let img = assemble_ok(".equ K,9\nstart: lex $1,K\nend: sys\n");
        assert_eq!(img.symbols["K"], 9);
        assert_eq!(img.symbols["start"], 0);
        assert_eq!(img.symbols["end"], 1);
    }

    #[test]
    fn label_and_equ_name_collision_is_an_error() {
        let e = assemble("x: sys\n.equ x,3\n").unwrap_err();
        assert!(e.msg.contains("duplicate"));
    }
}
