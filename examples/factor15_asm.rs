//! The paper's Figure 10 — prime factoring 15 in Tangled/Qat assembly —
//! run verbatim on all three simulators, next to the same program produced
//! by this repo's gate compiler.
//!
//! Run with: `cargo run --example factor15_asm`
//!
//! With `--metrics-out FILE` and/or `--trace-out FILE` the run also
//! emits the telemetry exports: a `tangled-metrics/v2` counter snapshot
//! covering every simulator invocation, and a Chrome `trace_event` JSON
//! of the 4-stage pipelined run (load it in https://ui.perfetto.dev).
//!
//! `--qat-backend eager|interned|sparse-re|adaptive` selects the Qat
//! register-file storage backend, `QatConfig::paper()`'s by default
//! (with sparse-re the same program also runs at 20-way
//! entanglement — the §3.3 beyond-WAYS scaling, registers never
//! materialized).

use tangled_qat::asm::assemble;
use tangled_qat::gatec::factor::{compile_factoring, FIGURE_10};
use tangled_qat::gatec::Compiler;
use tangled_qat::qat::{QatConfig, StorageBackend};
use tangled_qat::sim::{
    Machine, MachineConfig, MultiCycleSim, PipelineConfig, PipelinedSim, StageCount,
};
use tangled_qat::telemetry::{self, export};

/// Telemetry runs also meter switching energy so `energy.*` totals land
/// in the metrics file.
static METER_ENERGY: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Backend selected by `--qat-backend` (raw `u8` of the enum), or
/// `u8::MAX` for `QatConfig::paper()`'s.
static BACKEND: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(u8::MAX);

fn backend() -> StorageBackend {
    let i = BACKEND.load(std::sync::atomic::Ordering::Relaxed) as usize;
    StorageBackend::ALL.get(i).copied().unwrap_or(QatConfig::paper().backend)
}

fn machine_at(words: &[u16], ways: u32) -> Machine {
    let qat = QatConfig {
        meter_energy: METER_ENERGY.load(std::sync::atomic::Ordering::Relaxed),
        ..QatConfig::with_backend(backend(), ways)
    };
    let cfg = MachineConfig { qat, ..Default::default() };
    Machine::with_image(cfg, words)
}

fn machine(words: &[u16]) -> Machine {
    machine_at(words, 8)
}

fn parse_out_args() -> (Option<String>, Option<String>) {
    let (mut metrics_out, mut trace_out) = (None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--metrics-out" => metrics_out = Some(it.next().expect("--metrics-out needs a path")),
            "--trace-out" => trace_out = Some(it.next().expect("--trace-out needs a path")),
            "--qat-backend" => {
                let b = it.next().expect("--qat-backend needs a value");
                let b = StorageBackend::parse(&b)
                    .unwrap_or_else(|| panic!("unknown Qat backend `{b}`"));
                let idx = StorageBackend::ALL.iter().position(|&x| x == b).unwrap();
                BACKEND.store(idx as u8, std::sync::atomic::Ordering::Relaxed);
            }
            other => panic!(
                "unknown argument `{other}` (takes --metrics-out/--trace-out/--qat-backend)"
            ),
        }
    }
    (metrics_out, trace_out)
}

fn main() {
    let (metrics_out, trace_out) = parse_out_args();
    let mode = if trace_out.is_some() {
        telemetry::Mode::Trace
    } else if metrics_out.is_some() {
        telemetry::Mode::Counters
    } else {
        telemetry::Mode::Off
    };
    telemetry::set_mode(mode);
    METER_ENERGY.store(mode != telemetry::Mode::Off, std::sync::atomic::Ordering::Relaxed);
    let telemetry_base = telemetry::Snapshot::take();

    // The paper's listing ends at the final `and`; append `sys` to halt.
    let fig10 = format!("{FIGURE_10}sys\n");
    let img = assemble(&fig10).expect("Figure 10 assembles");
    println!("Figure 10: {} instructions, {} words", fig10.lines().count(), img.words.len());

    // Functional (single-cycle) run.
    let mut m = machine(&img.words);
    m.run().unwrap();
    println!("functional:  $0 = {}  $1 = {}   (paper comments: ;5 ;3)", m.regs[0], m.regs[1]);
    assert_eq!((m.regs[0], m.regs[1]), (5, 3));

    // The RE-compressed backend scales past the 16-way AoB limit: rerun
    // the same program at 20-way entanglement without ever materializing
    // a 2^20-bit vector.
    if backend() == StorageBackend::SparseRe {
        let mut wide = machine_at(&img.words, 20);
        wide.run().unwrap();
        println!(
            "sparse-re @ 20 ways: $0 = {}  $1 = {}   ({} materializations)",
            wide.regs[0],
            wide.regs[1],
            wide.qat.materializations()
        );
        assert_eq!((wide.regs[0], wide.regs[1]), (m.regs[0], m.regs[1]));
        assert_eq!(wide.qat.materializations(), 0);
    }

    // Multi-cycle.
    let mut mc = MultiCycleSim::new(machine(&img.words));
    let st = mc.run().unwrap();
    println!(
        "multi-cycle: $0 = {}  $1 = {}   {} cycles, CPI {:.2}",
        mc.machine.regs[0], mc.machine.regs[1], st.cycles, st.cpi()
    );

    // Pipelined, both organizations. The Chrome trace exports the 4-stage
    // run only: each simulator restarts its cycle clock at 0, so mixing
    // runs on one timeline would interleave unrelated spans.
    let mut trace_log = telemetry::TraceLog::default();
    for (name, stages) in [("4-stage", StageCount::Four), ("5-stage", StageCount::Five)] {
        let cfg = PipelineConfig { stages, forwarding: true, ..Default::default() };
        let _ = telemetry::take_trace(); // isolate this run's span events
        let mut p = PipelinedSim::new(machine(&img.words), cfg);
        let st = p.run().unwrap();
        if stages == StageCount::Four {
            trace_log = telemetry::take_trace();
        }
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

    if mode != telemetry::Mode::Off {
        let snap = telemetry::Snapshot::take().delta(&telemetry_base);
        let _ = telemetry::take_trace(); // discard events from later runs
        if let Some(path) = &metrics_out {
            let doc = export::MetricsDoc {
                snapshot: &snap,
                mode,
                trace_events: trace_log.events.len() as u64,
                trace_dropped: trace_log.dropped,
            };
            std::fs::write(path, export::metrics_json(&doc)).expect("write metrics");
            println!("wrote {path}");
        }
        if let Some(path) = &trace_out {
            let threads = [(0, "IF"), (1, "ID"), (2, "EX"), (4, "WB")];
            std::fs::write(path, export::chrome_trace(&trace_log, &threads)).expect("write trace");
            println!("wrote {path}");
        }
    }
}
