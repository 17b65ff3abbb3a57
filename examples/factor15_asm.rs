//! The paper's Figure 10 — prime factoring 15 in Tangled/Qat assembly —
//! run verbatim on all three simulators, next to the same program produced
//! by this repo's gate compiler.
//!
//! Run with: `cargo run --example factor15_asm`
//!
//! For the telemetry exports of the same program, use the CLI:
//! `tangled run examples/asm/factor15.s --ways 8 --metrics-out M --trace-out T`.

use tangled_qat::asm::assemble;
use tangled_qat::gatec::factor::{compile_factoring, FIGURE_10};
use tangled_qat::gatec::Compiler;
use tangled_qat::qat::QatConfig;
use tangled_qat::sim::{
    Machine, MachineConfig, MultiCycleSim, PipelineConfig, PipelinedSim, StageCount,
};

fn machine(words: &[u16]) -> Machine {
    let cfg = MachineConfig { qat: QatConfig::with_ways(8), ..Default::default() };
    Machine::with_image(cfg, words)
}

fn main() {
    // The paper's listing ends at the final `and`; append `sys` to halt.
    let fig10 = format!("{FIGURE_10}sys\n");
    let img = assemble(&fig10).expect("Figure 10 assembles");
    println!("Figure 10: {} instructions, {} words", fig10.lines().count(), img.words.len());

    // Functional (single-cycle) run.
    let mut m = machine(&img.words);
    m.run().unwrap();
    println!("functional:  $0 = {}  $1 = {}   (paper comments: ;5 ;3)", m.regs[0], m.regs[1]);
    assert_eq!((m.regs[0], m.regs[1]), (5, 3));

    // Multi-cycle.
    let mut mc = MultiCycleSim::new(machine(&img.words));
    let st = mc.run().unwrap();
    println!(
        "multi-cycle: $0 = {}  $1 = {}   {} cycles, CPI {:.2}",
        mc.machine.regs[0], mc.machine.regs[1], st.cycles, st.cpi()
    );

    // Pipelined, both organizations.
    for (name, stages) in [("4-stage", StageCount::Four), ("5-stage", StageCount::Five)] {
        let cfg = PipelineConfig { stages, forwarding: true, ..Default::default() };
        let mut p = PipelinedSim::new(machine(&img.words), cfg);
        let st = p.run().unwrap();
        println!(
            "{name} pipe: $0 = {}  $1 = {}   {} cycles, CPI {:.3} ({} fetch bubbles, {} data stalls, {} control stalls)",
            p.machine.regs[0], p.machine.regs[1], st.cycles, st.cpi(),
            st.fetch_extra, st.data_stalls, st.control_stalls
        );
    }

    // The @80 predicate register holds e: its 1-channels ARE the answers.
    let e = m.qat.reg(tangled_qat::isa::QReg(80));
    let ones: Vec<u64> = e.enumerate_ones().into_iter().filter(|&c| c < 256).collect();
    println!("e = @80 one-channels (mod 256): {ones:?}  -> factors {:?}",
        ones.iter().map(|c| c & 15).collect::<Vec<_>>());

    // Now the same computation, but produced by this repo's gate compiler.
    let compiled = compile_factoring(15, 4, &Compiler::default()).unwrap();
    let cimg = assemble(&compiled.asm).unwrap();
    let mut cm = machine(&cimg.words);
    cm.run().unwrap();
    println!(
        "\ngate compiler: {} Qat instructions (Figure 10 used 82), $0 = {} $1 = {}",
        compiled.qat_insns, cm.regs[0], cm.regs[1]
    );
    assert_eq!((cm.regs[0], cm.regs[1]), (5, 3));
}
