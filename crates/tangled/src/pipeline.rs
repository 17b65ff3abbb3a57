//! Cycle-accurate timing model of the pipelined Tangled/Qat designs (§3.1).
//!
//! Six of the eight student teams built 4-stage pipelines (IF, ID, EX, WB,
//! with memory access folded into EX); two built 5-stage (IF, ID, EX, MEM,
//! WB). All could sustain one instruction per clock absent interlocks.
//! Both organizations are modelled here, with or without forwarding.
//!
//! ## How the model works
//!
//! Architectural execution is delegated to [`Machine::step`] (the
//! functional oracle), so the pipeline *cannot* change results — it is a
//! pure timing model driven by the dynamic instruction stream. For each
//! retired instruction the model solves the classic stage-occupancy
//! recurrences:
//!
//! ```text
//! IF[i]  = max(IF free slot, branch redirect)   (two-word insns occupy IF twice)
//! ID[i]  = max(IF_end[i]+1, ID[i-1]+1, regfile-read interlocks)
//! EX[i]  = max(ID[i]+1,     EX[i-1]+1, forwarding interlocks)
//! MEM[i] = max(EX[i]+1,     MEM[i-1]+1)         (5-stage only)
//! WB[i]  = max(prev[i]+1,   WB[i-1]+1)
//! ```
//!
//! * **With forwarding**: an ALU/Qat result feeds a consumer's EX one cycle
//!   after the producer's EX; a 5-stage `load` result only after MEM —
//!   the classic one-bubble load-use hazard. (In the 4-stage designs the
//!   memory access happens in EX, so loads forward like ALU ops.)
//! * **Without forwarding**: consumers read the register file in ID and
//!   must wait for the producer's WB (same-cycle write-then-read allowed,
//!   as the student register files did).
//! * **Branches** resolve in EX with predict-not-taken: a taken branch
//!   (or `jumpr`) restarts IF the cycle after EX — the standard two-bubble
//!   penalty.
//! * **Variable-length fetch**: each extra instruction word occupies IF
//!   for one more cycle — exactly the cost the paper's two-word Qat
//!   instructions impose.
//! * Qat data dependences *through AoB registers* never stall: the Qat
//!   ALU reads and writes its register file within EX, and EX is in-order.
//!   The coprocessor interlocks the paper mentions arise at the
//!   `meas`/`next`/`pop` boundary, where results enter Tangled registers —
//!   handled by the ordinary forwarding rules above.

use crate::machine::{Machine, SimError, StepEvent};
use tangled_isa::Insn;

/// Pipeline depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageCount {
    /// IF, ID, EX (with memory access), WB — six of eight student teams.
    Four,
    /// IF, ID, EX, MEM, WB — the remaining two teams.
    Five,
}

/// Pipeline organization knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// 4-stage or 5-stage.
    pub stages: StageCount,
    /// EX→EX (and MEM→EX) result bypassing.
    pub forwarding: bool,
    /// EX cycles for the integer multiplier. The paper notes `mul` is
    /// "the only operation for which purely combinatorial execution might
    /// be problematic"; setting this above 1 models an iterative
    /// multiplier occupying EX for several cycles.
    pub mul_ex_cycles: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { stages: StageCount::Four, forwarding: true, mul_ex_cycles: 1 }
    }
}

/// Timing statistics for a pipelined run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PipeStats {
    /// Total cycles: retirement cycle of the last instruction + 1.
    pub cycles: u64,
    /// Instructions retired.
    pub insns: u64,
    /// Extra IF cycles for second instruction words.
    pub fetch_extra: u64,
    /// Cycles lost to data-hazard interlocks.
    pub data_stalls: u64,
    /// Cycles lost to control-flow redirects (taken branches, jumps).
    pub control_stalls: u64,
    /// Qat instructions retired.
    pub qat_insns: u64,
    /// Two-word instructions retired.
    pub two_word_insns: u64,
    /// Taken branches / jumps.
    pub taken: u64,
}

impl PipeStats {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        self.cycles as f64 / self.insns.max(1) as f64
    }
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.insns as f64 / self.cycles.max(1) as f64
    }
}

/// Per-instruction stage-occupancy record (tracing mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsnTiming {
    /// Instruction address.
    pub pc: u16,
    /// The instruction.
    pub insn: Insn,
    /// First IF cycle.
    pub if_start: u64,
    /// Last IF cycle (two-word instructions occupy IF twice).
    pub if_end: u64,
    /// ID cycle.
    pub id: u64,
    /// EX cycle.
    pub ex: u64,
    /// MEM cycle (equals `ex` in the 4-stage organization).
    pub mem: u64,
    /// WB (retire) cycle.
    pub wb: u64,
}

/// The pipelined simulator: functional execution + timing scoreboard.
#[derive(Debug, Clone)]
pub struct PipelinedSim {
    /// The architectural machine.
    pub machine: Machine,
    /// Accumulated statistics.
    pub stats: PipeStats,
    /// Stage-occupancy trace (populated when constructed via
    /// [`PipelinedSim::with_trace`]).
    pub trace: Option<Vec<InsnTiming>>,
    config: PipelineConfig,
    // Scoreboard state (times are 0-based cycle indices; i64 so "-1" can
    // encode "ready since before the program started").
    if_free: i64,
    redirect: i64,
    prev_id: i64,
    prev_ex: i64,
    prev_mem: i64,
    prev_wb: i64,
    /// Earliest EX start that may consume each Tangled register
    /// (forwarding constraint).
    ex_ready: [i64; 16],
    /// Earliest ID time that may read each register (no-forwarding
    /// constraint).
    id_ready: [i64; 16],
}

impl PipelinedSim {
    /// Wrap a machine with the given pipeline organization.
    pub fn new(machine: Machine, config: PipelineConfig) -> Self {
        PipelinedSim {
            machine,
            stats: PipeStats::default(),
            trace: None,
            config,
            if_free: 0,
            redirect: 0,
            prev_id: -1,
            prev_ex: -1,
            prev_mem: -1,
            prev_wb: -1,
            ex_ready: [-1; 16],
            id_ready: [-1; 16],
        }
    }

    /// Like [`PipelinedSim::new`], but recording an [`InsnTiming`] per
    /// retired instruction (see [`crate::trace`] for rendering).
    pub fn with_trace(machine: Machine, config: PipelineConfig) -> Self {
        let mut s = Self::new(machine, config);
        s.trace = Some(Vec::new());
        s
    }

    /// The pipeline organization.
    pub fn config(&self) -> PipelineConfig {
        self.config
    }

    /// Execute and time one instruction.
    pub fn step(&mut self) -> Result<StepEvent, SimError> {
        let ev = self.machine.step()?;
        self.account(ev);
        Ok(ev)
    }

    fn account(&mut self, ev: StepEvent) {
        use crate::telem;
        let insn = ev.insn;
        let words = insn.words() as i64;
        let five = self.config.stages == StageCount::Five;

        // ---- IF ----
        let if_start = self.if_free.max(self.redirect);
        let control_stall = (self.redirect - self.if_free).max(0) as u64;
        let if_end = if_start + words - 1;
        self.if_free = if_end + 1;

        // ---- ID ----
        let id_natural = (if_end + 1).max(self.prev_id + 1);
        let mut id = id_natural;
        if !self.config.forwarding {
            for r in insn.reads() {
                id = id.max(self.id_ready[r.num() as usize]);
            }
        }

        // ---- EX ----
        // prev_ex holds the last cycle EX was occupied (multi-cycle mul
        // keeps it busy longer).
        let ex_natural = (id + 1).max(self.prev_ex + 1);
        let mut ex = ex_natural;
        if self.config.forwarding {
            for r in insn.reads() {
                ex = ex.max(self.ex_ready[r.num() as usize]);
            }
        }
        let data_stall = ((id - id_natural) + (ex - ex_natural)).max(0) as u64;
        let ex_dur = if matches!(insn, Insn::Mul { .. }) {
            self.config.mul_ex_cycles.max(1) as i64
        } else {
            1
        };
        let ex_end = ex + ex_dur - 1;

        // ---- MEM / WB ----
        let (mem, wb) = if five {
            let mem = (ex_end + 1).max(self.prev_mem + 1);
            (mem, (mem + 1).max(self.prev_wb + 1))
        } else {
            (ex_end, (ex_end + 1).max(self.prev_wb + 1))
        };

        // ---- producer bookkeeping ----
        if let Some(d) = insn.writes() {
            let is_load = matches!(insn, Insn::Load { .. });
            // With forwarding: ALU/Qat results bypass from end of EX; a
            // 5-stage load bypasses from end of MEM.
            self.ex_ready[d.num() as usize] =
                if five && is_load { mem + 1 } else { ex_end + 1 };
            // Without forwarding: readable in the producer's WB cycle
            // (write-first register file).
            self.id_ready[d.num() as usize] = wb;
        }

        // ---- control flow ----
        if ev.taken {
            // IF restarts after the branch's EX resolves.
            self.redirect = ex_end + 1;
            self.stats.taken += 1;
        }

        if let Some(trace) = &mut self.trace {
            trace.push(InsnTiming {
                pc: ev.pc,
                insn,
                if_start: if_start as u64,
                if_end: if_end as u64,
                id: id as u64,
                ex: ex as u64,
                mem: mem as u64,
                wb: wb as u64,
            });
        }

        self.prev_id = id;
        self.prev_ex = ex_end;
        self.prev_mem = mem;
        self.prev_wb = wb;

        // ---- stats ----
        self.stats.insns += 1;
        let prev_cycles = self.stats.cycles;
        self.stats.cycles = (wb + 1) as u64;
        self.stats.fetch_extra += (words - 1) as u64;
        self.stats.data_stalls += data_stall;
        self.stats.control_stalls += control_stall;
        if insn.is_qat() {
            self.stats.qat_insns += 1;
        }
        if words == 2 {
            self.stats.two_word_insns += 1;
        }

        // ---- telemetry ----
        telem::PIPE_INSNS.inc();
        telem::PIPE_CYCLES.add(self.stats.cycles - prev_cycles);
        telem::PIPE_DATA_STALLS.add(data_stall);
        telem::PIPE_CONTROL_STALLS.add(control_stall);
        telem::PIPE_FETCH_EXTRA.add((words - 1) as u64);
        telem::PIPE_FLUSHES.add(ev.taken as u64);
        telem::PIPE_MISPREDICTS.add(ev.taken as u64);
        if tangled_telemetry::trace_on() {
            let (name, cat) = (insn.mnemonic(), telem::cat(insn));
            tangled_telemetry::trace_complete(name, cat, telem::track::IF, if_start as u64, words as u64);
            tangled_telemetry::trace_complete(name, cat, telem::track::ID, id as u64, 1);
            tangled_telemetry::trace_complete(name, cat, telem::track::EX, ex as u64, ex_dur as u64);
            if five {
                tangled_telemetry::trace_complete(name, cat, telem::track::MEM, mem as u64, 1);
            }
            tangled_telemetry::trace_complete(name, cat, telem::track::WB, wb as u64, 1);
            if ev.taken {
                // Squash point: fetch restarts from the branch target in
                // the cycle after EX resolves the branch.
                tangled_telemetry::trace_instant("flush", "pipe", telem::track::IF, ex_end as u64);
            }
        }
    }

    /// Run to halt, returning the final statistics.
    pub fn run(&mut self) -> Result<PipeStats, SimError> {
        while !self.machine.halted {
            self.step()?;
        }
        Ok(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use tangled_asm::assemble_ok;

    fn sim(src: &str, config: PipelineConfig) -> PipelinedSim {
        let img = assemble_ok(src);
        PipelinedSim::new(Machine::with_image(MachineConfig::default(), &img.words), config)
    }

    fn four_fw() -> PipelineConfig {
        PipelineConfig { stages: StageCount::Four, forwarding: true, ..Default::default() }
    }

    fn five_fw() -> PipelineConfig {
        PipelineConfig { stages: StageCount::Five, forwarding: true, ..Default::default() }
    }

    #[test]
    fn sustains_one_instruction_per_cycle() {
        // §3.1: "capable of sustaining completion of one instruction every
        // clock cycle, provided there were no pipeline interlocks."
        // 40 independent one-word instructions + sys.
        let mut src = String::new();
        for i in 0..40 {
            src.push_str(&format!("lex ${},1\n", i % 8));
        }
        src.push_str("sys\n");
        let st = sim(&src, four_fw()).run().unwrap();
        // 41 instructions retire in pipeline-depth + 40 cycles.
        assert_eq!(st.insns, 41);
        assert_eq!(st.cycles, 4 + 40);
        assert_eq!(st.data_stalls, 0);
        assert_eq!(st.control_stalls, 0);
        assert!(st.cpi() < 1.1);

        let st5 = sim(&src, five_fw()).run().unwrap();
        assert_eq!(st5.cycles, 5 + 40);
    }

    #[test]
    fn forwarding_hides_alu_dependences() {
        let src = "lex $1,1\nadd $1,$1\nadd $1,$1\nadd $1,$1\nsys\n";
        let fw = sim(src, four_fw()).run().unwrap();
        assert_eq!(fw.data_stalls, 0);
        // Without forwarding every dependent instruction waits for WB.
        let nofw = sim(src, PipelineConfig { stages: StageCount::Four, forwarding: false, ..Default::default() })
            .run()
            .unwrap();
        assert!(nofw.data_stalls > 0);
        assert!(nofw.cycles > fw.cycles);
    }

    #[test]
    fn five_stage_load_use_bubble() {
        let src = "li $2,0x4000\nli $1,7\nstore $1,$2\nload $3,$2\nadd $3,$3\nsys\n";
        let st4 = sim(src, four_fw()).run().unwrap();
        let st5 = sim(src, five_fw()).run().unwrap();
        // 4-stage: memory in EX, load forwards like an ALU op — no bubble.
        assert_eq!(st4.data_stalls, 0);
        // 5-stage: the consumer of the load eats exactly one bubble.
        assert_eq!(st5.data_stalls, 1);
    }

    #[test]
    fn taken_branch_costs_two_bubbles() {
        let taken = "lex $1,1\nbrt $1,over\nlex $2,9\nover: sys\n";
        let st = sim(taken, four_fw()).run().unwrap();
        assert_eq!(st.taken, 1);
        assert_eq!(st.control_stalls, 2);

        let not_taken = "lex $1,0\nbrt $1,over\nlex $2,9\nover: sys\n";
        let st = sim(not_taken, four_fw()).run().unwrap();
        assert_eq!(st.taken, 0);
        assert_eq!(st.control_stalls, 0);
    }

    #[test]
    fn two_word_qat_instructions_cost_one_fetch_bubble() {
        let one_word = "zero @1\nzero @2\nzero @3\nsys\n";
        let two_word = "and @1,@2,@3\nand @2,@3,@4\nand @3,@4,@5\nsys\n";
        let a = sim(one_word, four_fw()).run().unwrap();
        let b = sim(two_word, four_fw()).run().unwrap();
        assert_eq!(a.insns, b.insns);
        assert_eq!(b.fetch_extra, 3);
        assert_eq!(b.cycles, a.cycles + 3);
        assert_eq!(b.two_word_insns, 3);
    }

    #[test]
    fn meas_result_forwards_into_dependent_alu() {
        // had -> meas -> add chain: the coprocessor-to-host datapath obeys
        // the same forwarding rules; with forwarding there is no stall.
        let src = "had @5,0\nlex $1,3\nmeas $1,@5\nadd $1,$1\nsys\n";
        let fw = sim(src, four_fw()).run().unwrap();
        assert_eq!(fw.data_stalls, 0);
        let nofw = sim(src, PipelineConfig { stages: StageCount::Four, forwarding: false, ..Default::default() })
            .run()
            .unwrap();
        assert!(nofw.data_stalls > 0);
        // Architectural result identical either way.
        assert_eq!(fw.insns, nofw.insns);
    }

    #[test]
    fn qat_register_dependences_do_not_stall() {
        // Chained Qat ops (dependence through @regs) run back-to-back: the
        // only extra cycles are the second fetch words.
        let src = "had @1,0\nnot @1\nnot @1\nnot @1\nsys\n";
        let st = sim(src, four_fw()).run().unwrap();
        assert_eq!(st.data_stalls, 0);
        assert_eq!(st.cycles, 4 + st.insns - 1);
    }

    #[test]
    fn pipeline_matches_functional_architecturally() {
        let src = "\
            lex $1,5\nlex $2,-1\nlex $3,0\n\
            loop: add $3,$1\nadd $1,$2\nbrt $1,loop\n\
            had @7,2\nlex $4,0\nnext $4,@7\nsys\n";
        let img = assemble_ok(src);
        let mut oracle = Machine::with_image(MachineConfig::default(), &img.words);
        oracle.run().unwrap();
        for cfg in [
            four_fw(),
            five_fw(),
            PipelineConfig { stages: StageCount::Four, forwarding: false, ..Default::default() },
            PipelineConfig { stages: StageCount::Five, forwarding: false, ..Default::default() },
        ] {
            let mut p = sim(src, cfg);
            p.run().unwrap();
            assert_eq!(p.machine.regs, oracle.regs, "{cfg:?}");
            assert_eq!(p.machine.pc, oracle.pc);
        }
    }

    #[test]
    fn multicycle_mul_occupies_ex() {
        // §3: "The only operation for which purely combinatorial execution
        // might be problematic is mul." A 4-cycle iterative multiplier
        // slows a mul-heavy kernel by ~3 cycles per mul.
        let src = "lex $1,3\nlex $2,5\nmul $1,$2\nmul $2,$1\nmul $1,$2\nsys\n";
        let fast = sim(src, four_fw()).run().unwrap();
        let mut slow_cfg = four_fw();
        slow_cfg.mul_ex_cycles = 4;
        let slow = sim(src, slow_cfg).run().unwrap();
        assert_eq!(slow.cycles, fast.cycles + 3 * 3);
        // Architectural results unchanged.
        let mut a = sim(src, four_fw());
        a.run().unwrap();
        let mut b = sim(src, slow_cfg);
        b.run().unwrap();
        assert_eq!(a.machine.regs, b.machine.regs);
    }

    #[test]
    fn multicycle_mul_delays_dependents_only_as_needed() {
        // Independent instructions after a long mul still flow; a
        // dependent consumer waits for the multiplier to finish.
        let mut cfg = four_fw();
        cfg.mul_ex_cycles = 6;
        let dependent = sim("lex $1,3\nmul $1,$1\nadd $1,$1\nsys\n", cfg).run().unwrap();
        let independent = sim("lex $1,3\nmul $1,$1\nadd $2,$3\nsys\n", cfg).run().unwrap();
        assert!(dependent.cycles >= independent.cycles);
    }

    #[test]
    fn stats_cpi_ipc_consistent() {
        let st = sim("lex $1,1\nsys\n", four_fw()).run().unwrap();
        assert!((st.cpi() * st.ipc() - 1.0).abs() < 1e-9);
    }
}
