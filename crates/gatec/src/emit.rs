//! Assembly emission from an allocated netlist.

use crate::netlist::{Gate, Netlist, NodeId};
use crate::regalloc::Allocation;

/// Emission options.
#[derive(Debug, Clone, Copy)]
pub struct EmitOptions {
    /// §5 constant-register mode: `@0 = 0`, `@1 = 1`, `@2+k = H(k)` are
    /// pre-initialized; leaves emit no instructions.
    pub constant_registers: bool,
    /// Entanglement degree of the target machine (bounds the reserved
    /// Hadamard bank in constant-register mode).
    pub ways: u32,
}

impl Default for EmitOptions {
    fn default() -> Self {
        EmitOptions { constant_registers: false, ways: 16 }
    }
}

/// Emission output.
#[derive(Debug, Clone)]
pub struct EmitResult {
    /// Assembly text (no trailing measurement code; see `factor`).
    pub asm: String,
    /// Output name → Qat register holding it at program end.
    pub output_regs: Vec<(String, u8)>,
    /// Qat instructions emitted.
    pub qat_insns: usize,
}

/// Emit assembly for an allocated netlist.
pub fn emit_asm(
    nl: &Netlist,
    outputs: &[(String, NodeId)],
    alloc: &Allocation,
    opts: &EmitOptions,
) -> EmitResult {
    let mut asm = String::new();
    let mut count = 0usize;
    let r = |n: NodeId| alloc.reg[n.0 as usize];
    for (i, g) in nl.nodes().iter().enumerate() {
        if alloc.is_reserved[i] {
            continue; // constant-register leaf: no code
        }
        let d = alloc.reg[i];
        match *g {
            Gate::Const(false) => {
                asm.push_str(&format!("zero @{d}\n"));
                count += 1;
            }
            Gate::Const(true) => {
                asm.push_str(&format!("one @{d}\n"));
                count += 1;
            }
            Gate::Had(k) => {
                if (k as u32) < opts.ways {
                    asm.push_str(&format!("had @{d},{k}\n"));
                } else {
                    // H(k) beyond the machine degree is all-zeros.
                    asm.push_str(&format!("zero @{d}\n"));
                }
                count += 1;
            }
            Gate::And(a, b) => {
                asm.push_str(&format!("and @{d},@{},@{}\n", r(a), r(b)));
                count += 1;
            }
            Gate::Or(a, b) => {
                asm.push_str(&format!("or @{d},@{},@{}\n", r(a), r(b)));
                count += 1;
            }
            Gate::Xor(a, b) => {
                asm.push_str(&format!("xor @{d},@{},@{}\n", r(a), r(b)));
                count += 1;
            }
            Gate::Not(a) => {
                let s = r(a);
                if s == d {
                    // Input dies here: invert in place.
                    asm.push_str(&format!("not @{d}\n"));
                    count += 1;
                } else {
                    // The paper's own copy-then-invert idiom
                    // (Figure 10: `or @80,@79,@79` then `not @80`).
                    asm.push_str(&format!("or @{d},@{s},@{s}\nnot @{d}\n"));
                    count += 2;
                }
            }
        }
    }
    let output_regs = outputs.iter().map(|(n, o)| (n.clone(), r(*o))).collect();
    EmitResult { asm, output_regs, qat_insns: count }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PintProgram;
    use crate::regalloc::{allocate, AllocStrategy};
    use pbp::Pbits;

    fn simple_program() -> PintProgram {
        let mut p = PintProgram::new();
        let a = p.pint_h(2, 0b01 | 0b10);
        let b = p.pint_mk(2, 3);
        let Ok(e) = p.pint_eq(&a, &b);
        p.output("e", e);
        p
    }

    #[test]
    fn emits_assemblable_text() {
        let p = simple_program();
        let (nl, outs) = p.optimized();
        let opts = EmitOptions::default();
        let alloc = allocate(&nl, &outs, AllocStrategy::GreedyFresh, &opts).unwrap();
        let out = emit_asm(&nl, &outs, &alloc, &opts);
        // Must assemble cleanly.
        let img = tangled_asm::assemble(&out.asm).expect("emitted asm must assemble");
        assert!(!img.words.is_empty());
        assert_eq!(out.output_regs.len(), 1);
    }

    #[test]
    fn constant_register_mode_emits_fewer_instructions() {
        let p = simple_program();
        let (nl, outs) = p.optimized();
        let base_opts = EmitOptions::default();
        let cr_opts = EmitOptions { constant_registers: true, ways: 8 };
        let a1 = allocate(&nl, &outs, AllocStrategy::LinearScanReuse, &base_opts).unwrap();
        let a2 = allocate(&nl, &outs, AllocStrategy::LinearScanReuse, &cr_opts).unwrap();
        let e1 = emit_asm(&nl, &outs, &a1, &base_opts);
        let e2 = emit_asm(&nl, &outs, &a2, &cr_opts);
        assert!(e2.qat_insns < e1.qat_insns, "{} vs {}", e2.qat_insns, e1.qat_insns);
        assert!(!e2.asm.contains("had"));
    }

    #[test]
    fn not_uses_in_place_form_when_register_reused() {
        // With linear scan, a NOT whose input dies gets the in-place form.
        let mut p = PintProgram::new();
        let a = p.pint_h(1, 0b1);
        let n = p.pint_not(&a);
        p.output("n", *n.bit(0));
        let (nl, outs) = p.optimized();
        let opts = EmitOptions::default();
        let alloc = allocate(&nl, &outs, AllocStrategy::LinearScanReuse, &opts).unwrap();
        let out = emit_asm(&nl, &outs, &alloc, &opts);
        assert!(out.asm.contains("not @"));
        assert!(!out.asm.contains("or @"), "no copy needed:\n{}", out.asm);
        // Greedy keeps the intermediate, so it must copy first.
        let g = allocate(&nl, &outs, AllocStrategy::GreedyFresh, &opts).unwrap();
        let gout = emit_asm(&nl, &outs, &g, &opts);
        assert!(gout.asm.contains("or @"), "{}", gout.asm);
    }
}
