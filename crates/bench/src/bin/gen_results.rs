//! Regenerate the quantitative tables in EXPERIMENTS.md.
//!
//! Prints a Markdown report (and, with `--json`, a machine-readable dump)
//! of every deterministic evaluation quantity: per-kernel CPI across
//! pipeline organizations, factoring instruction/cycle counts, compiler
//! ablations, reversible gates native vs as §5 macros, the gate-delay
//! model, circuit-level measurements, RE compression, the PBP-vs-quantum
//! measurement comparison and state memory. Everything here is exact and
//! machine-independent; timed claims live in the `benchmark` package.

use gatec::factor::build_factoring;
use gatec::{allocate, emit_asm, AllocStrategy, EmitOptions};
use pbp::PbpContext;
use pbp_aob::Aob;
use qat_coproc::circuit::{qatnext_circuit, qathad_circuit};
use qat_coproc::cost::{gate_delay, pipeline_stages, AluOp, OrReduction};
use qsim_baseline::{expected_runs_to_collect_all, grover_optimal_iterations};
use tangled_asm::{assemble_with, AsmOptions};
use tangled_bench::json::Json;
use tangled_bench::*;
use tangled_sim::{PipelineConfig, PipelinedSim, StageCount};

struct KernelRow {
    kernel: String,
    insns: u64,
    cpi_4fw: f64,
    cpi_4nofw: f64,
    cpi_5fw: f64,
    cpi_5nofw: f64,
    cpi_multicycle: f64,
}

#[derive(Default)]
struct Report {
    kernels: Vec<KernelRow>,
    factoring: Vec<(String, u64, u64, f64)>,
    next_delay: Vec<(u32, u64, u64, u64)>,
    circuit_depth: Vec<(u32, u64, u64)>,
    re_storage: Vec<(u32, u64, usize)>,
    compiler: Vec<(String, usize)>,
    reversible: Vec<(String, u64, u64, u64, u64)>,
    quantum: Vec<(String, f64)>,
    state_memory: Vec<(u32, u64, u64, usize)>,
}

impl Report {
    /// Machine-readable dump mirroring the old serde layout: structs become
    /// objects, tuples become arrays.
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "kernels",
                Json::Arr(
                    self.kernels
                        .iter()
                        .map(|k| {
                            Json::obj([
                                ("kernel", k.kernel.as_str().into()),
                                ("insns", k.insns.into()),
                                ("cpi_4fw", k.cpi_4fw.into()),
                                ("cpi_4nofw", k.cpi_4nofw.into()),
                                ("cpi_5fw", k.cpi_5fw.into()),
                                ("cpi_5nofw", k.cpi_5nofw.into()),
                                ("cpi_multicycle", k.cpi_multicycle.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "factoring",
                Json::Arr(
                    self.factoring
                        .iter()
                        .map(|(n, i, c, cpi)| {
                            Json::Arr(vec![n.as_str().into(), (*i).into(), (*c).into(), (*cpi).into()])
                        })
                        .collect(),
                ),
            ),
            (
                "next_delay",
                Json::Arr(
                    self.next_delay
                        .iter()
                        .map(|(w, wd, td, st)| {
                            Json::Arr(vec![(*w).into(), (*wd).into(), (*td).into(), (*st).into()])
                        })
                        .collect(),
                ),
            ),
            (
                "circuit_depth",
                Json::Arr(
                    self.circuit_depth
                        .iter()
                        .map(|(w, t, d)| Json::Arr(vec![(*w).into(), (*t).into(), (*d).into()]))
                        .collect(),
                ),
            ),
            (
                "re_storage",
                Json::Arr(
                    self.re_storage
                        .iter()
                        .map(|(e, b, r)| Json::Arr(vec![(*e).into(), (*b).into(), (*r).into()]))
                        .collect(),
                ),
            ),
            (
                "compiler",
                Json::Arr(
                    self.compiler
                        .iter()
                        .map(|(n, v)| Json::Arr(vec![n.as_str().into(), (*v).into()]))
                        .collect(),
                ),
            ),
            (
                "reversible",
                Json::Arr(
                    self.reversible
                        .iter()
                        .map(|(f, i, c, r3, w2)| {
                            Json::Arr(vec![
                                f.as_str().into(),
                                (*i).into(),
                                (*c).into(),
                                (*r3).into(),
                                (*w2).into(),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "quantum",
                Json::Arr(
                    self.quantum
                        .iter()
                        .map(|(n, v)| Json::Arr(vec![n.as_str().into(), (*v).into()]))
                        .collect(),
                ),
            ),
            (
                "state_memory",
                Json::Arr(
                    self.state_memory
                        .iter()
                        .map(|(n, q, a, r)| {
                            Json::Arr(vec![(*n).into(), (*q).into(), (*a).into(), (*r).into()])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn cfg(stages: StageCount, forwarding: bool) -> PipelineConfig {
    PipelineConfig { stages, forwarding, ..Default::default() }
}

/// A reversible-gate-heavy program: a 40-gate Toffoli/Fredkin mixing
/// network over four Hadamard registers.
fn reversible_kernel() -> String {
    let mut src = String::from("had @1,0\nhad @2,1\nhad @3,2\nhad @4,3\n");
    for i in 0..40 {
        let (a, b, c) = (1 + i % 4, 1 + (i + 1) % 4, 1 + (i + 2) % 4);
        match i % 4 {
            0 => src.push_str(&format!("ccnot @{a},@{b},@{c}\n")),
            1 => src.push_str(&format!("cswap @{a},@{b},@{c}\n")),
            2 => src.push_str(&format!("cnot @{a},@{b}\n")),
            _ => src.push_str(&format!("swap @{a},@{b}\n")),
        }
    }
    src.push_str("sys\n");
    src
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let mut report = Report::default();

    // ---- E11: kernel CPI table ----
    let kernels: Vec<(&str, String, u32)> = vec![
        ("straight-line x500", straightline_kernel(500), 8),
        ("dependence chain x500", dependent_kernel(500), 8),
        ("counted loop x200", loopy_kernel(200), 8),
        ("Figure 10 factoring", figure10_asm(), 8),
        ("compiled factor-221", factor221_asm(), 16),
    ];
    for (name, src, ways) in &kernels {
        let words = assemble(src);
        let s4f = run_pipelined(&words, *ways, cfg(StageCount::Four, true));
        let s4n = run_pipelined(&words, *ways, cfg(StageCount::Four, false));
        let s5f = run_pipelined(&words, *ways, cfg(StageCount::Five, true));
        let s5n = run_pipelined(&words, *ways, cfg(StageCount::Five, false));
        let (mc_cycles, mc_insns) = run_multicycle(&words, *ways);
        report.kernels.push(KernelRow {
            kernel: name.to_string(),
            insns: s4f.insns,
            cpi_4fw: s4f.cpi(),
            cpi_4nofw: s4n.cpi(),
            cpi_5fw: s5f.cpi(),
            cpi_5nofw: s5n.cpi(),
            cpi_multicycle: mc_cycles as f64 / mc_insns as f64,
        });
    }

    // ---- E10/E15: factoring programs ----
    for (name, asm, ways) in [
        ("Figure 10 verbatim (n=15)", figure10_asm(), 8u32),
        ("compiled n=15", factor15_asm(), 8),
        ("compiled n=221", factor221_asm(), 16),
    ] {
        let st = run_pipelined(&assemble(&asm), ways, PipelineConfig::default());
        report.factoring.push((name.to_string(), st.insns, st.cycles, st.cpi()));
    }

    // ---- E7: next gate-delay model (§3.3) ----
    for ways in [4u32, 8, 12, 16] {
        report.next_delay.push((
            ways,
            gate_delay(AluOp::Next, ways, OrReduction::WideOr),
            gate_delay(AluOp::Next, ways, OrReduction::TreeOr),
            pipeline_stages(AluOp::Next, ways, OrReduction::TreeOr, 40),
        ));
    }

    // ---- E6/E7: structural circuit measurements ----
    for ways in [4u32, 6, 8, 10] {
        let a = Aob::hadamard(ways, ways - 1);
        let (_, tree) = qatnext_circuit(&a, 3, OrReduction::TreeOr);
        let (_, wide) = qatnext_circuit(&a, 3, OrReduction::WideOr);
        report.circuit_depth.push((ways, tree.depth, wide.depth));
    }

    // ---- E12: RE compression ----
    for e in [8u32, 16, 24, 32, 40] {
        let mut ctx = PbpContext::new(e);
        let a = ctx.hadamard(2);
        let b = ctx.hadamard(e - 1);
        let ab = ctx.and(&a, &b);
        let c = ctx.hadamard(e.saturating_sub(2));
        let v = ctx.xor(&ab, &c);
        report.re_storage.push((e, (1u64 << e) / 8, v.storage_runs()));
    }

    // ---- E13: compiler ablations on factor-15 ----
    let opt = build_factoring(15, 4, true);
    let unopt = build_factoring(15, 4, false);
    let (nl_o, outs_o) = opt.optimized();
    let (nl_u, _) = unopt.optimized();
    report.compiler.push(("netlist gates (optimized)".into(), nl_o.len()));
    report.compiler.push(("netlist gates (unoptimized)".into(), nl_u.len()));
    let base = EmitOptions::default();
    let crm = EmitOptions { constant_registers: true, ways: 16 };
    for (label, strategy, opts) in [
        ("insns greedy", AllocStrategy::GreedyFresh, &base),
        ("insns linear-scan", AllocStrategy::LinearScanReuse, &base),
        ("insns linear-scan + const-regs", AllocStrategy::LinearScanReuse, &crm),
    ] {
        let alloc = allocate(&nl_o, &outs_o, strategy, opts).unwrap();
        let em = emit_asm(&nl_o, &outs_o, &alloc, opts);
        report.compiler.push((format!("{label} (regs {})", alloc.regs_used), em.qat_insns));
    }
    let fig10_insns = figure10_asm().lines().filter(|l| !l.trim().is_empty()).count() - 10; // minus tail+sys
    report.compiler.push(("Figure 10 gate instructions (paper)".into(), fig10_insns));

    // ---- E13: reversible gates as native instructions vs §5 macros ----
    let kernel = reversible_kernel();
    for (form, expand_reversible) in [("native", false), ("macros", true)] {
        let opts = AsmOptions { expand_reversible, ..Default::default() };
        let words = assemble_with(&kernel, &opts).expect("kernel assembles").words;
        let mut p = PipelinedSim::new(machine(&words, 8), PipelineConfig::default());
        let st = p.run().expect("kernel halts");
        let ports = &p.machine.qat.ports;
        report.reversible.push((
            form.into(),
            st.insns,
            st.cycles,
            ports.triple_read_insns,
            ports.dual_write_insns,
        ));
    }

    // ---- E14: quantum comparison ----
    report.quantum.push(("PBP passes to read all 4 factors".into(), 1.0));
    report
        .quantum
        .push(("quantum expected runs (coupon collector)".into(), expected_runs_to_collect_all(4)));
    report.quantum.push((
        "Grover iterations before EACH quantum sample (8-qubit oracle, k=4)".into(),
        grover_optimal_iterations(8, 4) as f64,
    ));

    // ---- E14: state memory; sizes are computed, never allocated ----
    for n in [8u32, 16, 20, 24] {
        let mut ctx = PbpContext::new(n);
        let h = ctx.hadamard(n - 1);
        let l = ctx.hadamard(2);
        let v = ctx.and(&h, &l);
        report.state_memory.push((n, 16u64 << n, (1u64 << n) / 8, v.storage_runs()));
    }

    // ---- E6 gate counts for had ----
    let (_, had8) = qathad_circuit(8, 3);
    report.compiler.push(("had generator gates (8-way mux tree)".into(), had8.gates as usize));

    if json {
        println!("{}", report.to_json());
        return;
    }

    println!("## Kernel CPI by pipeline organization (E11)\n");
    println!("| kernel | insns | 4-stage fw | 4-stage nofw | 5-stage fw | 5-stage nofw | multi-cycle |");
    println!("|---|---|---|---|---|---|---|");
    for k in &report.kernels {
        println!(
            "| {} | {} | {:.3} | {:.3} | {:.3} | {:.3} | {:.3} |",
            k.kernel, k.insns, k.cpi_4fw, k.cpi_4nofw, k.cpi_5fw, k.cpi_5nofw, k.cpi_multicycle
        );
    }
    println!("\n## Factoring programs (E10/E15)\n");
    println!("| program | instructions | cycles | CPI |");
    println!("|---|---|---|---|");
    for (n, i, c, cpi) in &report.factoring {
        println!("| {n} | {i} | {c} | {cpi:.3} |");
    }
    println!("\n## `next` gate-delay model (E7, §3.3)\n");
    println!("| WAYS | wide-OR delay | tree-OR delay | stages @ 40 levels |");
    println!("|---|---|---|---|");
    for (w, wd, td, st) in &report.next_delay {
        println!("| {w} | {wd} | {td} | {st} |");
    }
    println!("\n## Structural circuit depth, Figure 8 wiring (E7)\n");
    println!("| WAYS | tree-OR depth | wide-OR depth |");
    println!("|---|---|---|");
    for (w, t, d) in &report.circuit_depth {
        println!("| {w} | {t} | {d} |");
    }
    println!("\n## RE compression (E12)\n");
    println!("| E | explicit AoB bytes | RE runs |");
    println!("|---|---|---|");
    for (e, bytes, runs) in &report.re_storage {
        println!("| {e} | {bytes} | {runs} |");
    }
    println!("\n## Compiler / §5 ablations (E13)\n");
    println!("| quantity | value |");
    println!("|---|---|");
    for (n, v) in &report.compiler {
        println!("| {n} | {v} |");
    }
    println!("\n## Reversible gates, native vs §5 macros (E13)\n");
    println!("40-gate Toffoli/Fredkin kernel, 8 ways, 4-stage pipeline with forwarding.\n");
    println!("| form | insns | cycles | 3-read insns | 2-write insns |");
    println!("|---|---|---|---|---|");
    for (f, i, c, r3, w2) in &report.reversible {
        println!("| {f} | {i} | {c} | {r3} | {w2} |");
    }
    println!("\n## Measurement semantics (E14)\n");
    println!("| quantity | value |");
    println!("|---|---|");
    for (n, v) in &report.quantum {
        println!("| {n} | {v:.3} |");
    }
    println!("\n## State memory (E14)\n");
    println!("| n | qsim bytes (16 B/amplitude) | AoB bytes (1 bit/channel) | RE runs of H(n-1) & H(2) |");
    println!("|---|---|---|---|");
    for (n, q, a, r) in &report.state_memory {
        println!("| {n} | {q} | {a} | {r} |");
    }
}
