//! E9/E10/E15: the paper's §4 prime-factoring evaluation, end to end on
//! every execution path.

use tangled_qat::asm::assemble;
use tangled_qat::gatec::factor::{build_factoring, compile_factoring, FIGURE_10};
use tangled_qat::gatec::{allocate, emit_asm, AllocStrategy, Compiler, EmitOptions};
use tangled_qat::pbp::{Pbits, PbpContext, Pint};
use tangled_qat::qat::QatConfig;
use tangled_qat::sim::{
    Machine, MachineConfig, MultiCycleSim, PipelineConfig, PipelinedSim, StageCount,
};

fn machine(words: &[u16], ways: u32) -> Machine {
    let cfg = MachineConfig { qat: QatConfig::with_ways(ways), ..Default::default() };
    Machine::with_image(cfg, words)
}

#[test]
fn fig9_word_level_factoring_prints_paper_values() {
    let mut ctx = PbpContext::new(8);
    let a = ctx.pint_mk(4, 15);
    let b = ctx.pint_h(4, 0x0f);
    let c = ctx.pint_h(4, 0xf0);
    let Ok(d) = ctx.pint_mul(&b, &c);
    let Ok(e) = ctx.pint_eq(&d, &a);
    let e_pint = Pint::from_bits(vec![e]);
    let Ok(f) = ctx.pint_mul(&e_pint, &b);
    let printed: Vec<u64> = ctx.pint_measure(&f).into_iter().map(|v| v.value).collect();
    assert_eq!(printed, vec![0, 1, 3, 5, 15]);
}

#[test]
fn fig10_verbatim_on_functional_simulator() {
    // The paper's student implementations ran at 8-way; the author's at
    // 16-way. Both must produce $0 = 5, $1 = 3.
    let src = format!("{FIGURE_10}sys\n");
    for ways in [8u32, 16] {
        let img = assemble(&src).unwrap();
        let mut m = machine(&img.words, ways);
        m.run().unwrap();
        assert_eq!((m.regs[0], m.regs[1]), (5, 3), "ways={ways}");
    }
}

#[test]
fn fig10_answer_channels_are_exactly_the_factor_pairs() {
    // e = @80 must be 1 exactly on channels c<<4|b with b*c == 15
    // (mod 256 at 8-way).
    let src = format!("{FIGURE_10}sys\n");
    let img = assemble(&src).unwrap();
    let mut m = machine(&img.words, 8);
    m.run().unwrap();
    let e = m.qat.reg(tangled_qat::isa::QReg(80));
    for ch in 0..256u64 {
        let (b, c) = (ch & 15, ch >> 4);
        assert_eq!(e.get(ch), b * c == 15, "channel {ch}");
    }
}

#[test]
fn fig10_on_all_cycle_accurate_models() {
    let src = format!("{FIGURE_10}sys\n");
    let img = assemble(&src).unwrap();

    let mut mc = MultiCycleSim::new(machine(&img.words, 8));
    mc.run().unwrap();
    assert_eq!((mc.machine.regs[0], mc.machine.regs[1]), (5, 3));

    for stages in [StageCount::Four, StageCount::Five] {
        for forwarding in [true, false] {
            let cfg = PipelineConfig { stages, forwarding, ..Default::default() };
            let mut p = PipelinedSim::new(machine(&img.words, 8), cfg);
            let st = p.run().unwrap();
            assert_eq!((p.machine.regs[0], p.machine.regs[1]), (5, 3), "{cfg:?}");
            // §3.1: the program is dominated by two-word Qat instructions,
            // so CPI sits between 1 and 2 — and every model agrees on the
            // instruction count.
            assert_eq!(st.insns, mc.machine.steps);
            assert!(st.cpi() < 2.0, "cpi {}", st.cpi());
        }
    }
}

#[test]
fn compiled_factoring_matches_figure10_results() {
    let prog = compile_factoring(15, 4, &Compiler::default()).unwrap();
    let img = assemble(&prog.asm).unwrap();
    let mut m = machine(&img.words, 8);
    m.run().unwrap();
    assert_eq!((m.regs[0], m.regs[1]), (5, 3));
    // e register agrees channel-for-channel with Figure 10's @80.
    let e = m.qat.reg(tangled_qat::isa::QReg(prog.e_reg));
    for ch in 0..256u64 {
        let (b, c) = (ch & 15, ch >> 4);
        assert_eq!(e.get(ch), b * c == 15, "channel {ch}");
    }
}

#[test]
fn factoring_221_needs_and_uses_16_way() {
    let prog = compile_factoring(221, 8, &Compiler::default()).unwrap();
    let img = assemble(&prog.asm).unwrap();
    let mut m = machine(&img.words, 16);
    m.run().unwrap();
    assert_eq!((m.regs[0], m.regs[1]), (17, 13));
}

#[test]
fn factoring_under_every_compiler_configuration() {
    for strategy in [AllocStrategy::GreedyFresh, AllocStrategy::LinearScanReuse] {
        for constant_registers in [false, true] {
            let compiler = Compiler {
                strategy,
                emit: EmitOptions { constant_registers, ways: 8 },
            };
            let prog = compile_factoring(15, 4, &compiler)
                .unwrap_or_else(|e| panic!("{strategy:?}/{constant_registers}: {e}"));
            let img = assemble(&prog.asm).unwrap();
            let cfg = MachineConfig {
                qat: QatConfig { constant_registers, ..QatConfig::with_ways(8) },
                ..Default::default()
            };
            let mut m = Machine::with_image(cfg, &img.words);
            m.run().unwrap();
            assert_eq!(
                (m.regs[0], m.regs[1]),
                (5, 3),
                "{strategy:?} constant_registers={constant_registers}"
            );
        }
    }
}

#[test]
fn compiler_ablation_counts_are_pinned() {
    // E13's ablation on factor-15, as `gen_results` prints it. The gate
    // order of the word-level algorithm fixes every count: the
    // unoptimized netlist has one node per gate call, including each
    // `constant(false)` a shifted partial product asks for.
    let (nl_o, outs_o) = build_factoring(15, 4, true).optimized();
    let (nl_u, _) = build_factoring(15, 4, false).optimized();
    assert_eq!((nl_o.len(), nl_u.len()), (83, 233));
    let base = EmitOptions::default();
    let crm = EmitOptions { constant_registers: true, ways: 16 };
    for (strategy, opts, insns, regs) in [
        (AllocStrategy::GreedyFresh, &base, 87, 83),
        (AllocStrategy::LinearScanReuse, &base, 83, 17),
        (AllocStrategy::LinearScanReuse, &crm, 75, 13),
    ] {
        let alloc = allocate(&nl_o, &outs_o, strategy, opts).unwrap();
        let em = emit_asm(&nl_o, &outs_o, &alloc, opts);
        assert_eq!((em.qat_insns, alloc.regs_used), (insns, regs), "{strategy:?} {opts:?}");
    }
    // The benchmark's factor221 program.
    let p221 = compile_factoring(221, 8, &Compiler::default()).unwrap();
    assert_eq!((p221.qat_insns, p221.e_reg), (361, 6));
}

#[test]
fn reversible_macro_mode_runs_figure10_identically() {
    // Assembling Figure 10 with the §5 macro expansions must not change
    // the computed factors (cnot/ccnot/swap/cswap don't appear in Fig 10,
    // but the mode must at minimum be transparent).
    let src = format!("{FIGURE_10}sys\n");
    let opts = tangled_qat::asm::AsmOptions { expand_reversible: true, ..Default::default() };
    let img = tangled_qat::asm::assemble_with(&src, &opts).unwrap();
    let mut m = machine(&img.words, 8);
    m.run().unwrap();
    assert_eq!((m.regs[0], m.regs[1]), (5, 3));
}

#[test]
fn pbp_and_gate_compiler_agree_on_e_for_many_moduli() {
    // Differential: the symbolic RE engine and the compiled netlist
    // produce the identical predicate for several n.
    for (n, w) in [(6u64, 3usize), (9, 4), (15, 4), (21, 5), (25, 5)] {
        let universe = (2 * w) as u32;
        // PBP path.
        let mut ctx = PbpContext::new(universe.max(6));
        let target = ctx.pint_mk(w, n);
        let b = ctx.pint_h_auto(w);
        let c = ctx.pint_h_auto(w);
        let Ok(d) = ctx.pint_mul(&b, &c);
        let Ok(e_re) = ctx.pint_eq(&d, &target);
        // Netlist path.
        let prog = tangled_qat::gatec::factor::build_factoring(n, w, true);
        let (nl, outs) = prog.optimized();
        let e_node = outs.iter().find(|(name, _)| name == "e").unwrap().1;
        let vals = nl.evaluate_aob(universe.max(6), &[e_node]);
        assert_eq!(ctx.to_aob(&e_re), vals[0], "n={n}");
    }
}

#[test]
fn fig10_transcription_instruction_mix() {
    // Static fingerprint of the verbatim Figure 10 listing: 90 lines —
    // 83 Qat gate operations (8 had, 39 Qat and, 20 xor, 14 or, 2 not)
    // plus the 7-instruction hand-written read-out tail (2 lex, 2 next,
    // 1 copy, 2 Tangled and). Guards the transcription against edits.
    let mut counts = std::collections::BTreeMap::new();
    let mut qat_and = 0;
    let mut tangled_and = 0;
    for line in FIGURE_10.lines().filter(|l| !l.trim().is_empty()) {
        let mut parts = line.split_whitespace();
        let mnemonic = parts.next().unwrap();
        *counts.entry(mnemonic).or_insert(0u32) += 1;
        if mnemonic == "and" {
            if parts.next().unwrap().starts_with('@') {
                qat_and += 1;
            } else {
                tangled_and += 1;
            }
        }
    }
    assert_eq!(counts["had"], 8);
    assert_eq!(counts["and"], 41);
    assert_eq!(qat_and, 39);
    assert_eq!(tangled_and, 2);
    assert_eq!(counts["xor"], 20);
    assert_eq!(counts["or"], 14);
    assert_eq!(counts["not"], 2);
    assert_eq!(counts["lex"], 2);
    assert_eq!(counts["next"], 2);
    assert_eq!(counts["copy"], 1);
    let total: u32 = counts.values().sum();
    assert_eq!(total, 90);
    // All 8 Hadamard dimensions H(0..8) appear exactly once.
    let hads: std::collections::BTreeSet<&str> = FIGURE_10
        .lines()
        .filter(|l| l.starts_with("had"))
        .map(|l| l.split(',').nth(1).unwrap().trim())
        .collect();
    assert_eq!(
        hads,
        ["0", "1", "2", "3", "4", "5", "6", "7"].into_iter().collect()
    );
}
