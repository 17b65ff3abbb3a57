//! Factoring 221 — the software prototype's original problem (§4.1),
//! needing the full 16-way entanglement of the paper's hardware — end to
//! end: word-level PBP, compiled assembly on the cycle-accurate pipeline,
//! and the RE-compression numbers that make it cheap.
//!
//! Run with: `cargo run --release --example factor221`

use tangled_qat::asm::assemble;
use tangled_qat::gatec::factor::compile_factoring;
use tangled_qat::gatec::Compiler;
use tangled_qat::pbp::{Pbits, PbpContext};
use tangled_qat::qat::QatConfig;
use tangled_qat::sim::{Machine, MachineConfig, PipelineConfig, PipelinedSim};

fn main() {
    // ------------------------------------------------------------------
    // Word-level, on the RE-compressed engine.
    // ------------------------------------------------------------------
    let mut ctx = PbpContext::new(16);
    let n = ctx.pint_mk(8, 221);
    let b = ctx.pint_h_auto(8); // dims 0..8
    let c = ctx.pint_h_auto(8); // dims 8..16
    let Ok(d) = ctx.pint_mul(&b, &c);
    let Ok(e) = ctx.pint_eq(&d, &n);
    let factors = ctx.pint_measure_where(&b, &e);
    println!("== PBP word level (16-way, 65,536 channels) ==");
    print!("factors of 221: ");
    for v in &factors {
        print!("{} ", v.value);
    }
    println!("\n(221 = 13 x 17; 1 and 221 are the trivial factors)");
    println!(
        "e stored as {} runs; probability of e=1: {}/65536\n",
        e.storage_runs(),
        ctx.re_pop_all(&e)
    );

    // ------------------------------------------------------------------
    // Compiled to Tangled/Qat assembly, run on the pipelined simulator
    // with full-size 65,536-bit AoB registers.
    // ------------------------------------------------------------------
    let prog = compile_factoring(221, 8, &Compiler::default()).unwrap();
    let img = assemble(&prog.asm).unwrap();
    let cfg = MachineConfig { qat: QatConfig::paper(), ..Default::default() };
    let mut p = PipelinedSim::new(Machine::with_image(cfg, &img.words), PipelineConfig::default());
    let st = p.run().unwrap();
    println!("== compiled Tangled/Qat assembly on the 4-stage pipeline ==");
    println!("{} Qat gate instructions, e in @{}", prog.qat_insns, prog.e_reg);
    println!(
        "retired {} instructions in {} cycles (CPI {:.3})",
        st.insns, st.cycles, st.cpi()
    );
    println!(
        "non-trivial factors: $0 = {}  $1 = {}",
        p.machine.regs[0], p.machine.regs[1]
    );
    assert_eq!((p.machine.regs[0], p.machine.regs[1]), (17, 13));

    // Functional-model cross-check.
    let cfg = MachineConfig { qat: QatConfig::paper(), ..Default::default() };
    let mut m = Machine::with_image(cfg, &img.words);
    m.run().unwrap();
    assert_eq!(m.regs, p.machine.regs);
    println!("functional model agrees.");
}
