//! Architectural state and the functional (single-cycle) executor.

use qat_coproc::{QatConfig, QatCoprocessor, QatError};
use tangled_bfloat::Bf16;
use tangled_isa::{decode, DecodeError, Insn, Reg};

/// Machine-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// Qat coprocessor configuration (entanglement degree etc.).
    pub qat: QatConfig,
    /// Hard cap on executed instructions (runaway-loop guard for tests).
    pub max_steps: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig { qat: QatConfig::paper(), max_steps: 10_000_000 }
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The word at `pc` did not decode.
    Decode {
        /// Faulting address.
        pc: u16,
        /// Underlying decoder error.
        err: DecodeError,
    },
    /// A Qat architectural error (e.g. constant-register write).
    Qat {
        /// Faulting address.
        pc: u16,
        /// Underlying coprocessor error.
        err: QatError,
    },
    /// `max_steps` exceeded.
    StepLimit,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Decode { pc, err } => write!(f, "at {pc:#06x}: {err}"),
            SimError::Qat { pc, err } => write!(f, "at {pc:#06x}: {err}"),
            SimError::StepLimit => write!(f, "instruction step limit exceeded"),
        }
    }
}

impl std::error::Error for SimError {}

/// What one functional step did (consumed by the timing models).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepEvent {
    /// Address of the executed instruction.
    pub pc: u16,
    /// The instruction.
    pub insn: Insn,
    /// Whether a branch/jump redirected the PC.
    pub taken: bool,
    /// PC after this instruction.
    pub next_pc: u16,
    /// Did this instruction halt the machine (`sys`)?
    pub halted: bool,
}

/// One record emitted by a non-halting `sys` service call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SysOutput {
    /// Service 1: `$0` as a signed integer.
    Int(i16),
    /// Service 2: `$0` as a bfloat16 value.
    Float(Bf16),
    /// Service 3: `$0` as a character.
    Char(char),
}

impl std::fmt::Display for SysOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SysOutput::Int(v) => write!(f, "{v}"),
            SysOutput::Float(v) => write!(f, "{v}"),
            SysOutput::Char(c) => write!(f, "{c}"),
        }
    }
}

/// The Tangled architectural state: 16 registers, PC, a unified 64K×16
/// word memory, and the attached Qat coprocessor.
#[derive(Debug, Clone)]
pub struct Machine {
    /// General-purpose registers `$0`–`$15`.
    pub regs: [u16; 16],
    /// Program counter (word address).
    pub pc: u16,
    /// Unified instruction/data memory, 64K 16-bit words.
    pub mem: Vec<u16>,
    /// The Qat coprocessor.
    pub qat: QatCoprocessor,
    /// Set by `sys` (service 0 or unknown).
    pub halted: bool,
    /// Output records from `sys` print services (this repo's sys ABI).
    pub output: Vec<SysOutput>,
    /// Instructions executed so far.
    pub steps: u64,
    config: MachineConfig,
    /// Retired gates not yet handed to the coprocessor: the first
    /// `pending_len` entries; see [`Machine::settle`].
    pending: [Insn; FUSE_WINDOW],
    pending_len: usize,
}

/// Longest run of consecutive gates the machine hands to the coprocessor
/// in one `execute_run` call.
const FUSE_WINDOW: usize = 32;

impl Machine {
    /// Fresh machine with zeroed state.
    pub fn new(config: MachineConfig) -> Self {
        Machine {
            regs: [0; 16],
            pc: 0,
            mem: vec![0; 0x1_0000],
            qat: QatCoprocessor::new(config.qat),
            halted: false,
            output: Vec::new(),
            steps: 0,
            config,
            pending: [Insn::Sys; FUSE_WINDOW],
            pending_len: 0,
        }
    }

    /// Machine with a program image loaded at address 0.
    pub fn with_image(config: MachineConfig, words: &[u16]) -> Self {
        let mut m = Machine::new(config);
        m.load(0, words);
        m
    }

    /// Copy words into memory at `base`.
    pub fn load(&mut self, base: u16, words: &[u16]) {
        for (i, &w) in words.iter().enumerate() {
            self.mem[base.wrapping_add(i as u16) as usize] = w;
        }
    }

    /// Read a register.
    #[inline]
    pub fn reg(&self, r: Reg) -> u16 {
        self.regs[r.num() as usize]
    }

    /// Write a register.
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u16) {
        self.regs[r.num() as usize] = v;
    }

    /// The active configuration.
    pub fn config(&self) -> MachineConfig {
        self.config
    }

    /// Fetch + decode the instruction at the current PC without executing.
    pub fn peek(&self) -> Result<(Insn, u16), SimError> {
        let pc = self.pc as usize;
        let hi = (pc + 2).min(self.mem.len());
        decode(&self.mem[pc..hi]).map_err(|err| SimError::Decode { pc: self.pc, err })
    }

    /// Hand the pending gate run to the coprocessor (`execute_run`, or
    /// `execute` for a run of one); a no-op when nothing is pending.
    /// `step` settles wherever a run ends, so only a caller that reads Qat
    /// state between two gates of one run, such as a debugger stopped
    /// mid-run, needs to call this.
    pub fn settle(&mut self) {
        let run = &self.pending[..self.pending_len];
        self.pending_len = 0;
        let done = match run {
            [] => return,
            [insn] => self.qat.execute(*insn, 0).map(drop),
            _ => self.qat.execute_run(run),
        };
        done.expect("pending gates were checked writable as they retired");
    }

    /// Execute one instruction (the Figure 6 single-cycle semantics).
    ///
    /// With a fusing register file ([`QatCoprocessor::fusion_active`]) a
    /// retiring gate joins a pending run, which `step` settles at the next
    /// non-gate instruction, at 32 gates, before a gate that would write a
    /// reserved constant register and before returning any error. Host
    /// state and step events are exact after every step; the Qat register
    /// file lags only inside a pending run.
    pub fn step(&mut self) -> Result<StepEvent, SimError> {
        if self.steps >= self.config.max_steps {
            self.settle();
            return Err(SimError::StepLimit);
        }
        let (insn, words) = self.peek().inspect_err(|_| self.settle())?;
        let pc = self.pc;
        let fallthrough = pc.wrapping_add(words);
        let mut next_pc = fallthrough;
        let mut taken = false;
        let mut halted = false;

        if insn.is_qat() {
            // A gate that would write a reserved constant register runs
            // alone, so it faults at its own PC with every earlier gate
            // applied.
            let reserved = self.config.qat.reserved_regs();
            let fusible = qat_coproc::gate_action(&insn).is_some_and(|act| {
                let (dests, nd) = act.dests();
                dests[..nd].iter().all(|&d| d >= reserved)
            });
            if fusible && self.qat.fusion_active() {
                self.pending[self.pending_len] = insn;
                self.pending_len += 1;
                if self.pending_len == FUSE_WINDOW {
                    self.settle();
                }
            } else {
                self.settle();
                // Tight coupling: meas/next/pop carry a Tangled register
                // value into the coprocessor and a result back.
                let d_in = match insn {
                    Insn::QMeas { d, .. } | Insn::QNext { d, .. } | Insn::QPop { d, .. } => {
                        self.reg(d)
                    }
                    _ => 0,
                };
                let out = self
                    .qat
                    .execute(insn, d_in)
                    .map_err(|err| SimError::Qat { pc, err })?;
                if let (Some(v), Some(d)) = (out, insn.writes()) {
                    self.set_reg(d, v);
                }
            }
        } else {
            if self.pending_len > 0 {
                self.settle();
            }
            match insn {
                Insn::Add { d, s } => {
                    let v = self.reg(d).wrapping_add(self.reg(s));
                    self.set_reg(d, v);
                }
                Insn::Addf { d, s } => {
                    let v = Bf16(self.reg(d)).add(Bf16(self.reg(s)));
                    self.set_reg(d, v.0);
                }
                Insn::And { d, s } => {
                    let v = self.reg(d) & self.reg(s);
                    self.set_reg(d, v);
                }
                Insn::Brf { c, off } => {
                    if self.reg(c) == 0 {
                        next_pc = fallthrough.wrapping_add(off as i16 as u16);
                        taken = true;
                    }
                }
                Insn::Brt { c, off } => {
                    if self.reg(c) != 0 {
                        next_pc = fallthrough.wrapping_add(off as i16 as u16);
                        taken = true;
                    }
                }
                Insn::Copy { d, s } => {
                    let v = self.reg(s);
                    self.set_reg(d, v);
                }
                Insn::Float { d } => {
                    let v = Bf16::from_i16(self.reg(d) as i16);
                    self.set_reg(d, v.0);
                }
                Insn::Int { d } => {
                    let v = Bf16(self.reg(d)).to_i16();
                    self.set_reg(d, v as u16);
                }
                Insn::Jumpr { a } => {
                    next_pc = self.reg(a);
                    taken = true;
                }
                Insn::Lex { d, imm } => {
                    self.set_reg(d, imm as i16 as u16);
                }
                Insn::Lhi { d, imm } => {
                    let v = (self.reg(d) & 0x00FF) | ((imm as u16) << 8);
                    self.set_reg(d, v);
                }
                Insn::Load { d, s } => {
                    let v = self.mem[self.reg(s) as usize];
                    self.set_reg(d, v);
                }
                Insn::Mul { d, s } => {
                    let v = self.reg(d).wrapping_mul(self.reg(s));
                    self.set_reg(d, v);
                }
                Insn::Mulf { d, s } => {
                    let v = Bf16(self.reg(d)).mul(Bf16(self.reg(s)));
                    self.set_reg(d, v.0);
                }
                Insn::Neg { d } => {
                    let v = (self.reg(d) as i16).wrapping_neg() as u16;
                    self.set_reg(d, v);
                }
                Insn::Negf { d } => {
                    let v = Bf16(self.reg(d)).neg();
                    self.set_reg(d, v.0);
                }
                Insn::Not { d } => {
                    let v = !self.reg(d);
                    self.set_reg(d, v);
                }
                Insn::Or { d, s } => {
                    let v = self.reg(d) | self.reg(s);
                    self.set_reg(d, v);
                }
                Insn::Recip { d } => {
                    let v = Bf16(self.reg(d)).recip();
                    self.set_reg(d, v.0);
                }
                Insn::Shift { d, s } => {
                    // Positive $s shifts left (logical); negative shifts
                    // right (arithmetic, preserving two's-complement sign).
                    let amt = self.reg(s) as i16;
                    let v = self.reg(d);
                    let out = if amt >= 0 {
                        if amt >= 16 { 0 } else { v << amt }
                    } else {
                        let a = (-(amt as i32)).min(16) as u32;
                        (((v as i16) as i32) >> a) as u16
                    };
                    self.set_reg(d, out);
                }
                Insn::Slt { d, s } => {
                    let v = ((self.reg(d) as i16) < (self.reg(s) as i16)) as u16;
                    self.set_reg(d, v);
                }
                Insn::Store { d, s } => {
                    let addr = self.reg(s) as usize;
                    self.mem[addr] = self.reg(d);
                }
                Insn::Sys => {
                    // The paper leaves `sys` semantics open; this repo
                    // defines a small service ABI selected by $rv:
                    //   0 = halt, 1 = print $0 as signed int,
                    //   2 = print $0 as bfloat16, 3 = print $0 as a char.
                    // Unknown services halt (so fall-off-into-zeros still
                    // stops at the first stray `sys`-like trap).
                    match self.reg(tangled_isa::reg::RV) {
                        1 => self.output.push(SysOutput::Int(self.reg(Reg::new(0)) as i16)),
                        2 => self.output.push(SysOutput::Float(Bf16(self.reg(Reg::new(0))))),
                        3 => self
                            .output
                            .push(SysOutput::Char((self.reg(Reg::new(0)) & 0xFF) as u8 as char)),
                        _ => {
                            self.halted = true;
                            halted = true;
                        }
                    }
                }
                Insn::Xor { d, s } => {
                    let v = self.reg(d) ^ self.reg(s);
                    self.set_reg(d, v);
                }
                _ => unreachable!("Qat instructions handled above"),
            }
        }

        self.pc = next_pc;
        self.steps += 1;
        crate::telem::RETIRED.add(insn.kind(), 1);
        crate::telem::INSNS.inc();
        if taken {
            crate::telem::BRANCH_TAKEN.inc();
        }
        Ok(StepEvent { pc, insn, taken, next_pc, halted })
    }

    /// Run until `sys` halts the machine (or an error/step limit).
    pub fn run(&mut self) -> Result<(), SimError> {
        while !self.halted {
            self.step()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qat_coproc::{QatConfig, StorageBackend};
    use tangled_asm::assemble_ok;

    fn run(src: &str) -> Machine {
        run_ways(src, 8)
    }

    fn run_ways(src: &str, ways: u32) -> Machine {
        let img = assemble_ok(src);
        let cfg = MachineConfig { qat: QatConfig::with_ways(ways), ..Default::default() };
        let mut m = Machine::with_image(cfg, &img.words);
        m.run().expect("program failed");
        m
    }

    #[test]
    fn table1_add_mul_neg() {
        let m = run("lex $1,7\nlex $2,5\nadd $1,$2\nmul $2,$2\nneg $2\nsys\n");
        assert_eq!(m.regs[1], 12);
        assert_eq!(m.regs[2] as i16, -25);
    }

    #[test]
    fn table1_bitwise() {
        let m = run("li $1,0x0FF0\nli $2,0x00FF\nand $1,$2\nli $3,0x0FF0\nor $3,$2\nli $4,0x0FF0\nxor $4,$2\nnot $2\nsys\n");
        assert_eq!(m.regs[1], 0x00F0);
        assert_eq!(m.regs[3], 0x0FFF);
        assert_eq!(m.regs[4], 0x0F0F);
        assert_eq!(m.regs[2], 0xFF00);
    }

    #[test]
    fn table1_lex_lhi() {
        let m = run("lex $1,-1\nlhi $1,0x12\nlex $2,5\nsys\n");
        assert_eq!(m.regs[1], 0x12FF);
        assert_eq!(m.regs[2], 5);
    }

    #[test]
    fn table1_shift_both_directions() {
        let m = run(
            "li $1,0x0001\nlex $2,4\nshift $1,$2\n\
             li $3,0x8000\nlex $4,-3\nshift $3,$4\n\
             li $5,0x00F0\nlex $6,-4\nshift $5,$6\nsys\n",
        );
        assert_eq!(m.regs[1], 0x0010);
        // Arithmetic right shift of 0x8000 by 3: sign-fill.
        assert_eq!(m.regs[3], 0xF000);
        assert_eq!(m.regs[5], 0x000F);
    }

    #[test]
    fn shift_saturates_at_16() {
        let m = run("li $1,0x00FF\nlex $2,16\nshift $1,$2\nli $3,0x8001\nlex $4,-16\nshift $3,$4\nsys\n");
        assert_eq!(m.regs[1], 0);
        assert_eq!(m.regs[3], 0xFFFF); // sign fill
    }

    #[test]
    fn table1_slt_signed() {
        let m = run("lex $1,-5\nlex $2,3\nslt $1,$2\nlex $3,9\nlex $4,2\nslt $3,$4\nsys\n");
        assert_eq!(m.regs[1], 1); // -5 < 3
        assert_eq!(m.regs[3], 0); // 9 < 2 is false
    }

    #[test]
    fn table1_load_store() {
        let m = run("li $1,0xBEEF\nli $2,0x4000\nstore $1,$2\nload $3,$2\nsys\n");
        assert_eq!(m.mem[0x4000], 0xBEEF);
        assert_eq!(m.regs[3], 0xBEEF);
    }

    #[test]
    fn table1_float_ops() {
        // 3.0 + 5.0 = 8.0; 8 * 0.5 via recip of 2.
        let m = run(
            "lex $1,3\nfloat $1\nlex $2,5\nfloat $2\naddf $1,$2\n\
             lex $3,2\nfloat $3\nrecip $3\nmulf $1,$3\nint $1\n\
             lex $4,7\nfloat $4\nnegf $4\nint $4\nsys\n",
        );
        assert_eq!(m.regs[1], 4); // (3+5)/2
        assert_eq!(m.regs[4] as i16, -7);
    }

    #[test]
    fn branches_and_jumps() {
        // Count down from 5; loop via brt.
        let m = run("lex $1,5\nlex $2,-1\nlex $3,0\nloop: add $3,$1\nadd $1,$2\nbrt $1,loop\nsys\n");
        assert_eq!(m.regs[3], 15); // 5+4+3+2+1
        assert_eq!(m.regs[1], 0);
    }

    #[test]
    fn jumpr_goes_absolute() {
        let m = run("li $1,target\njumpr $1\nsys\nsys\ntarget: lex $2,9\nsys\n");
        assert_eq!(m.regs[2], 9);
    }

    #[test]
    fn brf_taken_when_zero() {
        let m = run("lex $1,0\nbrf $1,skip\nlex $2,1\nskip: sys\n");
        assert_eq!(m.regs[2], 0);
    }

    #[test]
    fn qat_integration_paper_example() {
        // The §2.7 worked example at full 16-way size.
        let m = run_ways("had @123,4\nlex $8,42\nnext $8,@123\nsys\n", 16);
        assert_eq!(m.regs[8], 48);
    }

    #[test]
    fn qat_meas_feeds_tangled() {
        // meas reads channel $d; result lands in $d and is usable.
        let m = run("had @5,0\nlex $1,3\nmeas $1,@5\nlex $2,6\nmeas $2,@5\nsys\n");
        assert_eq!(m.regs[1], 1); // channel 3 of H(0) is 1
        assert_eq!(m.regs[2], 0); // channel 6 is 0
    }

    #[test]
    fn fused_gate_runs_match_per_gate_execution() {
        // Gate-heavy loop body: on the default backend the peephole hands
        // each iteration's straight-line gate run to the coprocessor in
        // one call; architectural state and the step-event stream must be
        // identical to per-gate dispatch on the eager backend, which never
        // fuses.
        let src = "had @20,2\nlex $1,4\nlex $2,-1\n\
                   loop: had @10,0\nhad @11,1\nand @12,@10,@11\nxor @13,@10,@11\n\
                   cnot @11,@10\nccnot @13,@11,@12\nnot @12\nswap @10,@11\n\
                   cswap @12,@10,@13\n\
                   add $1,$2\nbrt $1,loop\n\
                   lex $8,0\npop $8,@12\nsys\n";
        let img = assemble_ok(src);
        let run_with = |backend: StorageBackend| {
            let cfg = MachineConfig {
                qat: QatConfig::with_backend(backend, 8),
                ..Default::default()
            };
            let mut m = Machine::with_image(cfg, &img.words);
            let mut events = Vec::new();
            while !m.halted {
                events.push(m.step().expect("program failed"));
            }
            (m, events)
        };
        let (fused, fused_events) = run_with(QatConfig::paper().backend);
        let (plain, plain_events) = run_with(StorageBackend::Eager);
        assert!(fused.qat.fusion_active() && !plain.qat.fusion_active());
        assert_eq!(fused_events, plain_events);
        assert_eq!(fused.regs, plain.regs);
        assert_eq!(fused.steps, plain.steps);
        for r in 0..=255u8 {
            let q = tangled_isa::QReg(r);
            assert_eq!(fused.qat.reg(q), plain.qat.reg(q), "qat register @{r}");
        }
    }

    #[test]
    fn fused_fault_reports_gate_pc_and_preserves_state() {
        // A pending run ends before any gate that would write a reserved
        // constant register, so the faulting gate runs on the per-gate
        // path: same faulting PC and same pre-fault state as the eager
        // backend, which never fuses.
        let src = "had @100,0\nnot @100\ncnot @100,@1\nzero @2\nsys\n";
        let img = assemble_ok(src);
        let run_with = |backend: StorageBackend| {
            let cfg = MachineConfig {
                qat: QatConfig {
                    constant_registers: true,
                    ..QatConfig::with_backend(backend, 8)
                },
                ..Default::default()
            };
            let mut m = Machine::with_image(cfg, &img.words);
            let e = m.run().unwrap_err();
            (m, e)
        };
        let (fused, fused_err) = run_with(QatConfig::paper().backend);
        let (plain, plain_err) = run_with(StorageBackend::Eager);
        assert!(fused.qat.fusion_active() && !plain.qat.fusion_active());
        assert!(matches!(fused_err, SimError::Qat { .. }));
        assert_eq!(fused_err, plain_err);
        assert_eq!(fused.steps, plain.steps);
        let q = tangled_isa::QReg(100);
        assert_eq!(fused.qat.reg(q), plain.qat.reg(q));
    }

    #[test]
    fn qat_error_surfaces_with_pc() {
        let img = assemble_ok("zero @1\nsys\n");
        let cfg = MachineConfig {
            qat: QatConfig { constant_registers: true, ..QatConfig::with_ways(8) },
            ..Default::default()
        };
        let mut m = Machine::with_image(cfg, &img.words);
        let e = m.run().unwrap_err();
        assert!(matches!(e, SimError::Qat { pc: 0, .. }));
    }

    #[test]
    fn decode_error_surfaces() {
        let mut m = Machine::with_image(MachineConfig::default(), &[0xF000]);
        assert!(matches!(m.step(), Err(SimError::Decode { pc: 0, .. })));
    }

    #[test]
    fn step_limit_guards_infinite_loops() {
        let img = assemble_ok("loop: br loop\n");
        let cfg = MachineConfig { max_steps: 1000, ..Default::default() };
        let mut m = Machine::with_image(cfg, &img.words);
        assert_eq!(m.run(), Err(SimError::StepLimit));
    }

    #[test]
    fn step_events_report_control_flow() {
        let img = assemble_ok("lex $1,1\nbrt $1,over\nsys\nover: sys\n");
        let mut m = Machine::with_image(MachineConfig::default(), &img.words);
        let e1 = m.step().unwrap();
        assert!(!e1.taken);
        let e2 = m.step().unwrap();
        assert!(e2.taken);
        assert_eq!(e2.next_pc, 3);
        let e3 = m.step().unwrap();
        assert!(e3.halted);
    }
}

#[cfg(test)]
mod sys_tests {
    use super::*;
    use tangled_asm::assemble_ok;

    fn run(src: &str) -> Machine {
        let img = assemble_ok(src);
        let mut m = Machine::with_image(MachineConfig::default(), &img.words);
        m.run().unwrap();
        m
    }

    #[test]
    fn sys_service_zero_halts() {
        let m = run("lex $1,5\nsys\nlex $1,9\nsys\n");
        assert_eq!(m.regs[1], 5);
        assert!(m.output.is_empty());
    }

    #[test]
    fn sys_print_int_service() {
        // $rv = 1 selects print-int; the program keeps running.
        let m = run("lex $rv,1\nlex $0,-42\nsys\nlex $0,7\nsys\nlex $rv,0\nsys\n");
        assert_eq!(m.output, vec![SysOutput::Int(-42), SysOutput::Int(7)]);
        assert!(m.halted);
    }

    #[test]
    fn sys_print_float_service() {
        let m = run("lex $rv,2\nlex $0,3\nfloat $0\nsys\nlex $rv,0\nsys\n");
        assert_eq!(m.output.len(), 1);
        assert_eq!(m.output[0].to_string(), "3");
    }

    #[test]
    fn sys_print_char_service() {
        let m = run("lex $rv,3\nlex $0,72\nsys\nlex $0,105\nsys\nlex $rv,0\nsys\n");
        let s: String = m.output.iter().map(|o| o.to_string()).collect();
        assert_eq!(s, "Hi");
    }

    #[test]
    fn unknown_service_halts() {
        let m = run("lex $rv,99\nlex $1,1\nsys\nlex $1,2\nsys\n");
        assert_eq!(m.regs[1], 1);
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;

    #[test]
    fn sys_output_display_forms() {
        assert_eq!(SysOutput::Int(-5).to_string(), "-5");
        assert_eq!(SysOutput::Char('Q').to_string(), "Q");
        assert_eq!(SysOutput::Float(Bf16::from_f32(2.5)).to_string(), "2.5");
    }

    #[test]
    fn sim_error_display_forms() {
        let e = SimError::Decode {
            pc: 0x1234,
            err: tangled_isa::DecodeError::Empty,
        };
        assert!(e.to_string().contains("0x1234"));
        assert!(SimError::StepLimit.to_string().contains("limit"));
        let q = SimError::Qat {
            pc: 2,
            err: qat_coproc::QatError::NotAQatInstruction,
        };
        assert!(q.to_string().contains("0x0002"));
    }
}
