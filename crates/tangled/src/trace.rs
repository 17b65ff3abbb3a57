//! Pipeline-trace and coprocessor-statistics rendering.
//!
//! Pipeline traces: the classic stage-occupancy diagram.
//!
//! Given the [`InsnTiming`] records collected
//! by [`PipelinedSim::with_trace`](crate::pipeline::PipelinedSim::with_trace),
//! [`render`] draws the textbook pipeline chart — one row per instruction,
//! one column per clock cycle — which makes interlocks, squashes, and the
//! two-word fetch bubbles visible at a glance:
//!
//! ```text
//! cycle            0  1  2  3  4  5  6  7
//! 0000 lex $1,1    F  D  X  W
//! 0001 and @1,@2,@3   F  F  D  X  W
//! 0003 add $1,$1         .  F  D  X  W
//! ```

use crate::pipeline::{InsnTiming, PipelineConfig, StageCount};
use tangled_isa::disassemble;

pub use tangled_telemetry::export::render_summary as render_counters;

/// Render a stage-occupancy chart for the given timing records.
///
/// `max_cycles` bounds the chart width (long traces truncate with `…`).
pub fn render(trace: &[InsnTiming], config: PipelineConfig, max_cycles: u64) -> String {
    let five = config.stages == StageCount::Five;
    let mut out = String::new();
    let end = trace.iter().map(|t| t.wb + 1).max().unwrap_or(0);
    let width = end.min(max_cycles);

    out.push_str(&format!("{:<26}", "cycle"));
    for c in 0..width {
        out.push_str(&format!("{:>3}", c % 100));
    }
    if end > width {
        out.push('…');
    }
    out.push('\n');

    for t in trace {
        let label = format!("{:04x} {}", t.pc, disassemble(t.insn));
        out.push_str(&format!("{:<26}", truncate(&label, 25)));
        for c in 0..width {
            let mark = if c >= t.if_start && c <= t.if_end {
                " F "
            } else if c == t.id {
                " D "
            } else if c == t.ex {
                " X "
            } else if five && c == t.mem && t.mem != t.ex {
                " M "
            } else if c == t.wb {
                " W "
            } else if c > t.if_end && c < t.wb {
                " - " // in flight but stalled between stages
            } else {
                " . "
            };
            out.push_str(mark);
        }
        if t.wb >= width {
            out.push('…');
        }
        out.push('\n');
    }
    out
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachineConfig};
    use crate::pipeline::PipelinedSim;
    use tangled_asm::assemble_ok;

    fn traced(src: &str, config: PipelineConfig) -> PipelinedSim {
        let img = assemble_ok(src);
        let mut p =
            PipelinedSim::with_trace(Machine::with_image(MachineConfig::default(), &img.words), config);
        p.run().unwrap();
        p
    }

    #[test]
    fn trace_records_every_instruction_in_order() {
        let p = traced("lex $1,1\nadd $1,$1\nand @1,@2,@3\nsys\n", PipelineConfig::default());
        let t = p.trace.as_ref().unwrap();
        assert_eq!(t.len(), 4);
        // Monotone retirement.
        assert!(t.windows(2).all(|w| w[0].wb < w[1].wb));
        // The two-word Qat instruction occupies IF for two cycles.
        assert_eq!(t[2].if_end - t[2].if_start, 1);
        // PCs follow the variable-length layout.
        assert_eq!(t[0].pc, 0);
        assert_eq!(t[1].pc, 1);
        assert_eq!(t[2].pc, 2);
        assert_eq!(t[3].pc, 4);
    }

    #[test]
    fn ideal_pipeline_is_a_diagonal() {
        let p = traced("lex $1,1\nlex $2,2\nlex $3,3\nsys\n", PipelineConfig::default());
        let t = p.trace.as_ref().unwrap();
        for (i, rec) in t.iter().enumerate() {
            let i = i as u64;
            assert_eq!(rec.if_start, i);
            assert_eq!(rec.id, i + 1);
            assert_eq!(rec.ex, i + 2);
            assert_eq!(rec.wb, i + 3);
        }
    }

    #[test]
    fn render_shows_stage_letters() {
        let p = traced("lex $1,1\nadd $1,$1\nsys\n", PipelineConfig::default());
        let chart = render(p.trace.as_ref().unwrap(), p.config(), 40);
        assert!(chart.contains(" F "));
        assert!(chart.contains(" D "));
        assert!(chart.contains(" X "));
        assert!(chart.contains(" W "));
        assert!(chart.contains("lex $1,1"));
        assert!(chart.contains("0000"));
    }

    #[test]
    fn render_marks_mem_stage_for_five_stage() {
        let cfg = PipelineConfig { stages: StageCount::Five, forwarding: true, ..Default::default() };
        let p = traced("li $2,0x4000\nstore $1,$2\nload $3,$2\nsys\n", cfg);
        let chart = render(p.trace.as_ref().unwrap(), cfg, 60);
        assert!(chart.contains(" M "), "{chart}");
    }

    #[test]
    fn render_truncates_long_traces() {
        let mut src = String::new();
        for _ in 0..100 {
            src.push_str("lex $1,1\n");
        }
        src.push_str("sys\n");
        let p = traced(&src, PipelineConfig::default());
        let chart = render(p.trace.as_ref().unwrap(), p.config(), 10);
        assert!(chart.contains('…'));
    }

    #[test]
    fn counter_summary_renders_from_a_real_run() {
        use tangled_telemetry as telemetry;
        // The chunk-store counters now live in the telemetry registry; the
        // summary table replaces the old ad-hoc intern-stats line. A
        // program with a repeated gate: the second xor is a pure cache hit.
        telemetry::set_mode(telemetry::Mode::Counters);
        let base = telemetry::Snapshot::take();
        let img = assemble_ok("had @1,0\nhad @2,1\nxor @3,@1,@2\nxor @4,@1,@2\nsys\n");
        let mut cfg = MachineConfig::default();
        cfg.qat.backend = qat_coproc::StorageBackend::Interned;
        let mut m = Machine::with_image(cfg, &img.words);
        m.run().unwrap();
        let snap = telemetry::Snapshot::take().delta(&base);
        telemetry::set_mode(telemetry::Mode::Off);
        // Registry agrees with the store's own (still public) stats.
        let stats = m.qat.intern_stats().expect("the interned backend interns");
        assert!(stats.hits >= 1, "{stats:?}");
        assert!(snap.get("intern.hits") >= stats.hits);
        assert_eq!(snap.get("tangled.retire.qxor"), 2);
        let table = render_counters(&snap);
        assert!(table.starts_with("telemetry counters"), "{table}");
        assert!(table.contains("intern.hits"), "{table}");
        assert!(table.contains("hit rate"), "{table}");
    }

    #[test]
    fn untraced_sim_has_no_trace() {
        let img = assemble_ok("sys\n");
        let mut p = PipelinedSim::new(
            Machine::with_image(MachineConfig::default(), &img.words),
            PipelineConfig::default(),
        );
        p.run().unwrap();
        assert!(p.trace.is_none());
    }
}
