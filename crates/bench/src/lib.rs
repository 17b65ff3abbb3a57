#![warn(missing_docs)]
//! # tangled-bench — shared workloads for the evaluation tables
//!
//! The `gen_results` binary regenerates every deterministic evaluation
//! table of the paper (see DESIGN.md's experiment index and
//! EXPERIMENTS.md for the results). This library hosts the workload
//! builders it shares with the `benchmark` package, plus the `json` and
//! `diff` modules that both use.

pub mod diff;
pub mod json;

use gatec::factor::compile_factoring;
use gatec::Compiler;
use qat_coproc::QatConfig;
use tangled_sim::{Machine, MachineConfig, MultiCycleSim, PipeStats, PipelineConfig, PipelinedSim};

/// Assemble a source program.
pub fn assemble(src: &str) -> Vec<u16> {
    tangled_asm::assemble(src).expect("bench program must assemble").words
}

/// A machine with the image loaded, at the given entanglement degree.
pub fn machine(words: &[u16], ways: u32) -> Machine {
    let cfg = MachineConfig { qat: QatConfig::with_ways(ways), max_steps: 50_000_000 };
    Machine::with_image(cfg, words)
}

/// Run on the functional simulator; panics on error.
pub fn run_functional(words: &[u16], ways: u32) -> Machine {
    let mut m = machine(words, ways);
    m.run().expect("bench program must halt");
    m
}

/// Run on a pipelined simulator and return its statistics.
pub fn run_pipelined(words: &[u16], ways: u32, cfg: PipelineConfig) -> PipeStats {
    let mut p = PipelinedSim::new(machine(words, ways), cfg);
    p.run().expect("bench program must halt")
}

/// Run on the multi-cycle simulator and return (cycles, insns).
pub fn run_multicycle(words: &[u16], ways: u32) -> (u64, u64) {
    let mut s = MultiCycleSim::new(machine(words, ways));
    let st = s.run().expect("bench program must halt");
    (st.cycles, st.insns)
}

/// The compiled factoring-of-15 program (4-bit operands).
pub fn factor15_asm() -> String {
    compile_factoring(15, 4, &Compiler::default()).unwrap().asm
}

/// The compiled factoring-of-221 program (8-bit operands, 16-way).
pub fn factor221_asm() -> String {
    compile_factoring(221, 8, &Compiler::default()).unwrap().asm
}

/// The verbatim Figure 10 program with a terminating `sys` appended (the
/// paper's listing ends at the final `and`).
pub fn figure10_asm() -> String {
    format!("{}sys\n", gatec::factor::FIGURE_10)
}

/// A hazard-free straight-line kernel of `n` one-word instructions.
pub fn straightline_kernel(n: usize) -> String {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!("lex ${},{}\n", i % 8, i % 100));
    }
    src.push_str("sys\n");
    src
}

/// A dependence-chain kernel: every instruction consumes the previous
/// result (worst case for a pipeline without forwarding).
pub fn dependent_kernel(n: usize) -> String {
    let mut src = String::from("lex $1,1\n");
    for _ in 0..n {
        src.push_str("add $1,$1\n");
    }
    src.push_str("sys\n");
    src
}

/// A branch-heavy kernel: a counted loop with `iters` taken branches.
pub fn loopy_kernel(iters: u16) -> String {
    format!(
        "li $1,{iters}\nlex $2,-1\nloop: add $3,$1\nadd $1,$2\nbrt $1,loop\nsys\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tangled_sim::StageCount;

    #[test]
    fn workloads_run_and_produce_expected_results() {
        let m = run_functional(&assemble(&factor15_asm()), 8);
        assert_eq!((m.regs[0], m.regs[1]), (5, 3));
        let m = run_functional(&assemble(&figure10_asm()), 8);
        assert_eq!((m.regs[0], m.regs[1]), (5, 3));
    }

    #[test]
    fn kernels_have_expected_hazard_profiles() {
        let cfg = PipelineConfig { stages: StageCount::Four, forwarding: false, ..Default::default() };
        let straight = run_pipelined(&assemble(&straightline_kernel(100)), 8, cfg);
        let chain = run_pipelined(&assemble(&dependent_kernel(100)), 8, cfg);
        assert_eq!(straight.data_stalls, 0);
        assert!(chain.data_stalls >= 100);
        // The final iteration's branch falls through, so taken = iters - 1.
        let loopy = run_pipelined(&assemble(&loopy_kernel(50)), 8, PipelineConfig::default());
        assert_eq!(loopy.taken, 49);
    }
}
