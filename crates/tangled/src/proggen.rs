//! Random-program generation for differential testing.
//!
//! Generates arbitrary-but-valid Tangled/Qat programs that are guaranteed
//! to halt: ALU/Qat work, memory traffic confined to a data page, forward
//! branches, bounded countdown loops, forward indirect jumps, and `sys`
//! service calls, terminated by a halting `sys`. The same program is then
//! run on the functional, multi-cycle, and pipelined simulators and the
//! architectural states compared (see [`crate::difftest`]) — the strongest
//! correctness evidence the paper's student projects aimed at with "100%
//! line coverage" testing.
//!
//! Register conventions inside generated programs:
//!
//! * `$0..$5` — general work registers.
//! * `$5` doubles as the loop counter inside countdown-loop templates.
//! * `$6` — data-page pointer; only the memory template writes it, so all
//!   load/store traffic stays on page `0x40xx`.
//! * `$7` — template scratch (shift amounts, loop decrement, jump target).
//! * `$rv` — written only inside `sys` service windows, restored to zero
//!   before the window ends, so the terminating `sys` always halts.
//!
//! A tiny xorshift PRNG keeps this module dependency-free and the streams
//! reproducible from a seed.

use tangled_isa::{reg, Insn, QReg, Reg};

/// Deterministic xorshift64* PRNG.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    /// Seeded generator (seed 0 is remapped).
    pub fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Instruction-mix profile: a weight table over the generator's op classes.
///
/// Profiles bias the fuzzer toward different hazard populations — ALU-heavy
/// streams stress forwarding, Qat-heavy streams stress the coprocessor
/// interface, branch-heavy streams stress redirect/flush logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Profile {
    /// Roughly the seed generator's historical mix.
    #[default]
    Balanced,
    /// Mostly integer ALU and immediate traffic (forwarding stress).
    AluHeavy,
    /// Mostly Qat gate/measurement traffic (coprocessor stress).
    QatHeavy,
    /// Dense branches, loops, and indirect jumps (redirect stress).
    BranchHeavy,
    /// Dense load/store traffic (MEM-stage stress).
    MemHeavy,
}

/// Op-class indices into a profile's weight table.
mod class {
    pub const IMM: usize = 0;
    pub const ALU: usize = 1;
    pub const FLOAT: usize = 2;
    pub const MEM: usize = 3;
    pub const QINIT: usize = 4;
    pub const QGATE: usize = 5;
    pub const QMEAS: usize = 6;
    pub const BRANCH: usize = 7;
    pub const LOOP: usize = 8;
    pub const JUMP: usize = 9;
    pub const SYS: usize = 10;
    pub const COUNT: usize = 11;
}

impl Profile {
    /// Relative class weights `[imm, alu, float, mem, qinit, qgate, qmeas,
    /// branch, loop, jump, sys]`.
    pub fn weights(self) -> [u32; class::COUNT] {
        match self {
            Profile::Balanced => [12, 22, 6, 6, 12, 17, 10, 6, 3, 2, 4],
            Profile::AluHeavy => [20, 50, 8, 4, 4, 4, 2, 4, 2, 1, 1],
            Profile::QatHeavy => [8, 6, 1, 2, 24, 34, 18, 3, 2, 1, 1],
            Profile::BranchHeavy => [12, 20, 2, 4, 6, 6, 6, 26, 10, 6, 2],
            Profile::MemHeavy => [14, 20, 2, 40, 4, 6, 6, 4, 2, 1, 1],
        }
    }

    /// Parse a CLI spelling (`balanced`, `alu`, `qat`, `branch`, `mem`).
    pub fn parse(name: &str) -> Option<Profile> {
        match name {
            "balanced" => Some(Profile::Balanced),
            "alu" | "alu-heavy" => Some(Profile::AluHeavy),
            "qat" | "qat-heavy" => Some(Profile::QatHeavy),
            "branch" | "branch-heavy" => Some(Profile::BranchHeavy),
            "mem" | "mem-heavy" => Some(Profile::MemHeavy),
            _ => None,
        }
    }

    /// All profiles, for round-robin fuzzing.
    pub fn all() -> [Profile; 5] {
        [
            Profile::Balanced,
            Profile::AluHeavy,
            Profile::QatHeavy,
            Profile::BranchHeavy,
            Profile::MemHeavy,
        ]
    }
}

/// Knobs for the generator.
#[derive(Debug, Clone, Copy)]
pub struct ProgGenOptions {
    /// Number of body instructions (before the final `sys`).
    pub len: usize,
    /// Entanglement degree the target machine supports (bounds `had` k).
    pub ways: u32,
    /// Instruction-mix profile (class weight table).
    pub profile: Profile,
    /// All Qat register operands are drawn from `qreg_floor..qreg_floor+16`.
    /// Set this to `QatConfig::reserved_regs()` when fuzzing a machine with
    /// the constant-register file enabled and faults are unwanted.
    pub qreg_floor: u8,
    /// Occasionally emit a Qat *write* to a register below `qreg_floor` —
    /// fault-adjacent encodings that trip `ConstantRegisterWrite` on
    /// constant-register machines (the oracle then compares fault identity
    /// and PC instead of final state).
    pub allow_qat_faults: bool,
    /// Bias Qat traffic toward the interned register file's hot paths:
    /// aliased gate operands (`cnot @a,@a`, repeated sources) that hit the
    /// store's algebraic shortcuts, and a narrow `had k` constant pool so
    /// the same chunk ids recur and the op cache gets warm.
    pub intern_stress: bool,
}

impl Default for ProgGenOptions {
    fn default() -> Self {
        ProgGenOptions {
            len: 60,
            ways: 8,
            profile: Profile::Balanced,
            qreg_floor: 0,
            allow_qat_faults: false,
            intern_stress: false,
        }
    }
}

/// Generator state threaded through the op-class emitters.
struct Emitter<'a> {
    rng: XorShift,
    opts: &'a ProgGenOptions,
    body: Vec<Insn>,
    /// `protected[i]` — index `i` must not become a branch/jump landing
    /// site (mid-template instruction whose register setup must run).
    protected: Vec<bool>,
    /// `(lex_index, skip)` — forward indirect jumps whose `lex`/`lhi` pair
    /// is patched with the target's absolute address after layout.
    jump_fixups: Vec<(usize, usize)>,
}

impl Emitter<'_> {
    fn push(&mut self, i: Insn) {
        self.body.push(i);
        self.protected.push(false);
    }

    /// Push a template-interior instruction (not a valid landing site).
    fn push_protected(&mut self, i: Insn) {
        self.body.push(i);
        self.protected.push(true);
    }

    fn reg(&mut self) -> Reg {
        Reg::new(self.rng.below(6) as u8)
    }

    fn qreg(&mut self) -> QReg {
        QReg(self.opts.qreg_floor.saturating_add(self.rng.below(16) as u8))
    }

    /// Destination Qat register; with `allow_qat_faults`, sometimes a
    /// register below the floor (a constant register on constant machines).
    fn qdest(&mut self) -> QReg {
        if self.opts.allow_qat_faults && self.opts.qreg_floor > 0 && self.rng.below(12) == 0 {
            QReg(self.rng.below(self.opts.qreg_floor as u64) as u8)
        } else {
            self.qreg()
        }
    }

    fn emit_imm(&mut self) {
        let d = self.reg();
        if self.rng.below(3) == 0 {
            let imm = self.rng.next_u64() as u8;
            self.push(Insn::Lhi { d, imm });
        } else {
            let imm = self.rng.next_u64() as i8;
            self.push(Insn::Lex { d, imm });
        }
    }

    fn emit_alu(&mut self) {
        let d = self.reg();
        let s = self.reg();
        match self.rng.below(12) {
            0 | 1 => self.push(Insn::Add { d, s }),
            2 => self.push(Insn::Mul { d, s }),
            3 => self.push(Insn::And { d, s }),
            4 => self.push(Insn::Or { d, s }),
            5 => self.push(Insn::Xor { d, s }),
            6 => self.push(Insn::Not { d }),
            7 => self.push(Insn::Neg { d }),
            8 => self.push(Insn::Slt { d, s }),
            9 | 10 => self.push(Insn::Copy { d, s }),
            _ => {
                // Bounded shift amount in -4..=4 to keep values lively.
                let amt = (self.rng.below(9) as i8) - 4;
                self.push(Insn::Lex { d: Reg::new(7), imm: amt });
                self.push(Insn::Shift { d, s: Reg::new(7) });
            }
        }
    }

    fn emit_float(&mut self) {
        let d = self.reg();
        let s = self.reg();
        match self.rng.below(6) {
            0 => self.push(Insn::Float { d }),
            1 => self.push(Insn::Int { d }),
            2 => self.push(Insn::Addf { d, s }),
            3 => self.push(Insn::Mulf { d, s }),
            4 => self.push(Insn::Negf { d }),
            _ => self.push(Insn::Recip { d }),
        }
    }

    fn emit_mem(&mut self) {
        // $6 = 0x40xx — all traffic stays in the data page, away from the
        // code, so the pipeline's fetch-ahead can never observe
        // self-modifying code. The interior is protected: a branch may land
        // on the template start but never between the pointer setup and the
        // access.
        let d = self.reg();
        let lo = self.rng.next_u64() as i8;
        self.push(Insn::Lex { d: Reg::new(6), imm: lo });
        self.push_protected(Insn::Lhi { d: Reg::new(6), imm: 0x40 });
        if self.rng.below(2) == 0 {
            self.push_protected(Insn::Store { d, s: Reg::new(6) });
        } else {
            self.push_protected(Insn::Load { d, s: Reg::new(6) });
        }
    }

    fn emit_qinit(&mut self) {
        let a = self.qdest();
        // Under intern stress the Hadamard pool narrows to two lanes so the
        // same constant chunks recur across the program. The `had`
        // immediate is 4 bits, so lanes 16.. (reachable only through the §5
        // constant bank) are never emitted even when ways > 16.
        let k_pool = if self.opts.intern_stress { 2 } else { self.opts.ways.min(16) as u64 };
        match self.rng.below(4) {
            0 | 1 => {
                let k = self.rng.below(k_pool) as u8;
                self.push(Insn::QHad { a, k });
            }
            2 => self.push(Insn::QZero { a }),
            _ => self.push(Insn::QOne { a }),
        }
    }

    fn emit_qgate(&mut self) {
        let a = self.qdest();
        let mut b = self.qreg();
        let mut c = self.qreg();
        if self.opts.intern_stress {
            // Aliased operands: `cnot @a,@a`, repeated sources, and fully
            // collapsed triples exercise the store's x&x / x^x shortcuts
            // and the self-operand paths of the copy-on-write file.
            match self.rng.below(4) {
                0 => b = a,
                1 => c = b,
                2 => {
                    b = a;
                    c = a;
                }
                _ => {}
            }
        }
        match self.rng.below(10) {
            0 | 1 => self.push(Insn::QNot { a }),
            2 => self.push(Insn::QAnd { a, b, c }),
            3 => self.push(Insn::QOr { a, b, c }),
            4 | 5 => self.push(Insn::QXor { a, b, c }),
            6 => self.push(Insn::QCnot { a, b }),
            7 => self.push(Insn::QCcnot { a, b, c }),
            8 => self.push(Insn::QSwap { a, b }),
            _ => self.push(Insn::QCswap { a, b, c }),
        }
    }

    fn emit_qmeas(&mut self) {
        let d = self.reg();
        let a = self.qreg();
        match self.rng.below(5) {
            0 | 1 => self.push(Insn::QMeas { d, a }),
            2 | 3 => self.push(Insn::QNext { d, a }),
            _ => self.push(Insn::QPop { d, a }),
        }
    }

    fn emit_branch(&mut self) {
        // Forward branch over 1..=4 instructions. The offset field holds an
        // instruction-count placeholder until the fixup pass converts it to
        // a word offset.
        let c = self.reg();
        let skip = 1 + self.rng.below(4) as i8;
        if self.rng.below(2) == 0 {
            self.push(Insn::Brt { c, off: skip });
        } else {
            self.push(Insn::Brf { c, off: skip });
        }
    }

    fn emit_loop(&mut self) {
        // Bounded countdown loop: $5 counts down from 2..=5; the body is
        // branch-free, so termination is structural. Registers $5 and $7
        // are reserved for the loop machinery.
        let k = 2 + self.rng.below(4) as i8;
        self.push(Insn::Lex { d: Reg::new(5), imm: k });
        let loop_top = self.body.len();
        for _ in 0..=self.rng.below(2) {
            let d = Reg::new(self.rng.below(5) as u8);
            let s = Reg::new(self.rng.below(5) as u8);
            let a = self.qreg();
            match self.rng.below(4) {
                0 => self.push(Insn::Add { d, s }),
                1 => self.push(Insn::QNot { a }),
                2 => self.push(Insn::QMeas { d, a }),
                _ => self.push(Insn::Xor { d, s }),
            }
        }
        self.push(Insn::Lex { d: Reg::new(7), imm: -1 });
        self.push(Insn::Add { d: Reg::new(5), s: Reg::new(7) });
        // Mask the counter to 3 bits so even a forward branch that lands
        // inside the template (skipping the initializer) loops at most 7
        // times.
        self.push(Insn::Lex { d: Reg::new(7), imm: 7 });
        self.push(Insn::And { d: Reg::new(5), s: Reg::new(7) });
        // Backward branch, resolved by the fixup pass using the
        // instruction-index delta encoded in the offset.
        let back = (self.body.len() - loop_top) as i8;
        self.push(Insn::Brt { c: Reg::new(5), off: -back });
    }

    fn emit_jump(&mut self) {
        // Forward indirect jump: $7 = absolute address of an instruction
        // 1..=6 ahead, then `jumpr $7`. The lex/lhi pair is patched after
        // layout; `lhi` overwrites the sign-extended high byte, so the pair
        // reconstructs any 16-bit address exactly. The interior is
        // protected — a branch landing directly on `jumpr` would read an
        // arbitrary $7.
        let skip = 1 + self.rng.below(6) as usize;
        self.jump_fixups.push((self.body.len(), skip));
        self.push(Insn::Lex { d: Reg::new(7), imm: 0 });
        self.push_protected(Insn::Lhi { d: Reg::new(7), imm: 0 });
        self.push_protected(Insn::Jumpr { a: Reg::new(7) });
    }

    fn emit_sys_service(&mut self) {
        // A non-halting system call: $rv selects print-int (1), print-float
        // (2), or print-char (3), then $rv is restored to zero so the
        // terminating `sys` still halts. The `sys` itself is protected so a
        // branch cannot land on it with a live (non-zero) $rv — though in
        // fact $rv is zero everywhere outside these windows.
        let svc = 1 + self.rng.below(3) as i8;
        self.push(Insn::Lex { d: reg::RV, imm: svc });
        self.push_protected(Insn::Sys);
        self.push_protected(Insn::Lex { d: reg::RV, imm: 0 });
    }
}

/// Generate a random halting program as an instruction list.
pub fn random_program(seed: u64, opts: &ProgGenOptions) -> Vec<Insn> {
    let mut em = Emitter {
        rng: XorShift::new(seed),
        opts,
        body: Vec::with_capacity(opts.len + 4),
        protected: Vec::new(),
        jump_fixups: Vec::new(),
    };

    let weights = opts.profile.weights();
    let total: u32 = weights.iter().sum();

    while em.body.len() < opts.len {
        let mut roll = em.rng.below(total as u64) as u32;
        let mut cls = 0;
        for (i, &w) in weights.iter().enumerate() {
            if roll < w {
                cls = i;
                break;
            }
            roll -= w;
        }
        match cls {
            class::IMM => em.emit_imm(),
            class::ALU => em.emit_alu(),
            class::FLOAT => em.emit_float(),
            class::MEM => em.emit_mem(),
            class::QINIT => em.emit_qinit(),
            class::QGATE => em.emit_qgate(),
            class::QMEAS => em.emit_qmeas(),
            class::BRANCH => em.emit_branch(),
            class::LOOP => em.emit_loop(),
            class::JUMP => em.emit_jump(),
            class::SYS => em.emit_sys_service(),
            _ => unreachable!(),
        }
    }
    em.push(Insn::Sys);

    let Emitter { mut body, protected, jump_fixups, .. } = em;

    // Layout: word address of each instruction (plus the end address).
    let mut addr = Vec::with_capacity(body.len() + 1);
    let mut pc = 0u16;
    for i in &body {
        addr.push(pc);
        pc += i.words();
    }
    addr.push(pc);
    let last = body.len() - 1; // the terminating sys — never protected

    // A landing site must not be a protected template interior; slide
    // forward to the next legal instruction (the final sys qualifies).
    let land = |mut idx: usize| -> usize {
        idx = idx.min(last);
        while idx < last && protected[idx] {
            idx += 1;
        }
        idx
    };

    // Fix up branch offsets: the placeholder counts *instructions*; convert
    // to a word offset relative to the following instruction.
    for idx in 0..body.len() {
        let fix = |skip: i8, sense: bool, c: Reg| -> Insn {
            // Positive skip: forward over `skip` instructions; negative:
            // backward to `|skip|` instructions before this one (loop tops
            // are never protected). Never target past the final `sys`.
            let target_idx = if skip >= 0 {
                land(idx + 1 + skip as usize)
            } else {
                idx.saturating_sub((-skip) as usize)
            };
            let off32 = addr[target_idx] as i32 - (addr[idx] as i32 + 1);
            match i8::try_from(off32) {
                Ok(off) if sense => Insn::Brt { c, off },
                Ok(off) => Insn::Brf { c, off },
                Err(_) => Insn::Copy { d: c, s: c }, // out of range: drop it
            }
        };
        match body[idx] {
            Insn::Brt { c, off } => body[idx] = fix(off, true, c),
            Insn::Brf { c, off } => body[idx] = fix(off, false, c),
            _ => {}
        }
    }

    // Patch indirect-jump address pairs with the laid-out target address.
    for (lex_idx, skip) in jump_fixups {
        let target = addr[land(lex_idx + 3 + skip)];
        body[lex_idx] = Insn::Lex { d: Reg::new(7), imm: (target & 0xFF) as u8 as i8 };
        body[lex_idx + 1] = Insn::Lhi { d: Reg::new(7), imm: (target >> 8) as u8 };
    }
    body
}

/// Generate a Qat-only program (gates, `meas`/`next`/`pop` with `lex`-set
/// channel arguments, final `sys`) for word-level cross-checking against
/// the PBP RE layer. Straight-line, so it trivially halts.
///
/// `nregs` Qat registers starting at `@0` are used; channel arguments stay
/// below `min(2^ways, 64)` so they fit a `lex` immediate.
pub fn random_qat_only_program(seed: u64, len: usize, ways: u32, nregs: u8) -> Vec<Insn> {
    let mut rng = XorShift::new(seed);
    let mut body = Vec::with_capacity(len + 1);
    let chan_limit = (1u64 << ways.min(6)).min(64);
    let qr = |rng: &mut XorShift| QReg(rng.below(nregs.max(1) as u64) as u8);
    while body.len() < len {
        let a = qr(&mut rng);
        let mut b = qr(&mut rng);
        let c = qr(&mut rng);
        // One draw in eight aliases a source onto the destination
        // (`cnot @a,@a` and friends), so the interned register file's
        // self-operand shortcuts are exercised by every long program.
        if rng.below(8) == 0 {
            b = a;
        }
        let d = Reg::new(rng.below(4) as u8);
        match rng.below(14) {
            0 => body.push(Insn::QZero { a }),
            1 => body.push(Insn::QOne { a }),
            2 | 3 => body.push(Insn::QHad { a, k: rng.below(ways.min(16) as u64) as u8 }),
            4 => body.push(Insn::QNot { a }),
            5 => body.push(Insn::QAnd { a, b, c }),
            6 => body.push(Insn::QOr { a, b, c }),
            7 => body.push(Insn::QXor { a, b, c }),
            8 => body.push(Insn::QCnot { a, b }),
            9 => body.push(Insn::QCcnot { a, b, c }),
            10 => body.push(Insn::QSwap { a, b }),
            11 => body.push(Insn::QCswap { a, b, c }),
            _ => {
                // Channel argument in $d, then a measurement-family op.
                body.push(Insn::Lex { d, imm: rng.below(chan_limit) as i8 });
                match rng.below(3) {
                    0 => body.push(Insn::QMeas { d, a }),
                    1 => body.push(Insn::QNext { d, a }),
                    _ => body.push(Insn::QPop { d, a }),
                }
            }
        }
    }
    body.push(Insn::Sys);
    body
}

/// Generate a reversible-only Qat program: an initialization prologue
/// (`zero`/`one`/`had k`, one per register) followed by a body of purely
/// reversible gates (`not`/`cnot`/`ccnot`/`swap`/`cswap` with distinct
/// operands), terminated by `sys`.
///
/// Such programs map directly onto unitary circuits, so the AoB register
/// file can be cross-checked channel-by-channel against the `qsim`
/// state-vector baseline (each channel is one basis-state evolution).
pub fn random_reversible_qat_program(seed: u64, ways: u32, nregs: u8, len: usize) -> Vec<Insn> {
    let mut rng = XorShift::new(seed);
    let n = nregs.max(2);
    let mut body = Vec::with_capacity(n as usize + len + 1);
    for q in 0..n {
        let a = QReg(q);
        match rng.below(4) {
            0 => body.push(Insn::QZero { a }),
            1 => body.push(Insn::QOne { a }),
            _ => body.push(Insn::QHad { a, k: rng.below(ways.min(16) as u64) as u8 }),
        }
    }
    let distinct2 = |rng: &mut XorShift| {
        let a = rng.below(n as u64) as u8;
        let b = (a + 1 + rng.below(n as u64 - 1) as u8) % n;
        (QReg(a), QReg(b))
    };
    for _ in 0..len {
        match rng.below(5) {
            0 => {
                let a = QReg(rng.below(n as u64) as u8);
                body.push(Insn::QNot { a });
            }
            1 => {
                let (a, b) = distinct2(&mut rng);
                body.push(Insn::QCnot { a, b });
            }
            2 if n >= 3 => {
                let (a, b) = distinct2(&mut rng);
                let mut c = QReg(rng.below(n as u64) as u8);
                while c == a || c == b {
                    c = QReg((c.0 + 1) % n);
                }
                body.push(Insn::QCcnot { a, b, c });
            }
            3 => {
                let (a, b) = distinct2(&mut rng);
                body.push(Insn::QSwap { a, b });
            }
            _ if n >= 3 => {
                let (a, b) = distinct2(&mut rng);
                let mut c = QReg(rng.below(n as u64) as u8);
                while c == a || c == b {
                    c = QReg((c.0 + 1) % n);
                }
                body.push(Insn::QCswap { a, b, c });
            }
            _ => {
                let (a, b) = distinct2(&mut rng);
                body.push(Insn::QCnot { a, b });
            }
        }
    }
    body.push(Insn::Sys);
    body
}

/// Encode a program to a memory image.
pub fn encode_program(insns: &[Insn]) -> Vec<u16> {
    let mut out = Vec::with_capacity(insns.len());
    for &i in insns {
        out.extend(tangled_isa::encode(i));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachineConfig};
    use qat_coproc::QatConfig;

    fn machine_for(words: &[u16], ways: u32) -> Machine {
        let cfg = MachineConfig { qat: QatConfig::with_ways(ways), max_steps: 200_000 };
        Machine::with_image(cfg, words)
    }

    #[test]
    fn generated_programs_decode_and_halt() {
        for profile in Profile::all() {
            for seed in 1..=25u64 {
                let opts = ProgGenOptions { profile, ..Default::default() };
                let prog = random_program(seed, &opts);
                let words = encode_program(&prog);
                // Whole image decodes back to the same instruction list.
                let decoded: Vec<_> = tangled_isa::decode_stream(&words)
                    .unwrap()
                    .into_iter()
                    .map(|(_, i)| i)
                    .collect();
                assert_eq!(decoded, prog, "seed {seed} {profile:?}");
                // And the program halts (forward-only control flow plus
                // bounded loops guarantees it).
                let mut m = machine_for(&words, 8);
                m.run().unwrap_or_else(|e| panic!("seed {seed} {profile:?}: {e}"));
                assert!(m.halted);
                // Bounded loops may re-execute instructions, but only a
                // small constant factor beyond the static length.
                assert!(
                    m.steps <= 40 * prog.len() as u64,
                    "seed {seed} {profile:?}: {} steps",
                    m.steps
                );
            }
        }
    }

    #[test]
    fn memory_traffic_stays_in_data_page() {
        for seed in 1..=10u64 {
            let prog = random_program(seed, &ProgGenOptions::default());
            let words = encode_program(&prog);
            let mut m = machine_for(&words, 8);
            m.run().unwrap();
            // Code region unchanged: no self-modification possible.
            assert_eq!(&m.mem[..words.len()], &words[..], "seed {seed}");
        }
    }

    #[test]
    fn qreg_floor_confines_qat_operands() {
        let opts = ProgGenOptions { qreg_floor: 10, ..Default::default() };
        for seed in 1..=10u64 {
            for i in random_program(seed, &opts) {
                for q in i.qreads().into_iter().chain(i.qwrites()) {
                    assert!(q.0 >= 10, "seed {seed}: {i:?} uses @{}", q.0);
                }
            }
        }
    }

    #[test]
    fn fault_adjacent_mode_emits_low_register_writes() {
        let opts = ProgGenOptions {
            qreg_floor: 10,
            allow_qat_faults: true,
            len: 400,
            ..Default::default()
        };
        let mut hit = false;
        for seed in 1..=10u64 {
            for i in random_program(seed, &opts) {
                hit |= i.qwrites().iter().any(|q| q.0 < 10);
            }
        }
        assert!(hit, "no fault-adjacent write in 10 seeds x 400 insns");
    }

    #[test]
    fn profiles_bias_the_mix() {
        let count = |profile: Profile, pred: &dyn Fn(&Insn) -> bool| -> usize {
            let opts = ProgGenOptions { len: 400, profile, ..Default::default() };
            (1..=5u64)
                .flat_map(|s| random_program(s, &opts))
                .filter(|i| pred(i))
                .count()
        };
        let qat = |i: &Insn| i.is_qat();
        let mem = |i: &Insn| i.is_mem();
        let ctl = |i: &Insn| matches!(i, Insn::Brf { .. } | Insn::Brt { .. } | Insn::Jumpr { .. });
        assert!(count(Profile::QatHeavy, &qat) > 2 * count(Profile::AluHeavy, &qat));
        assert!(count(Profile::MemHeavy, &mem) > 2 * count(Profile::QatHeavy, &mem));
        assert!(count(Profile::BranchHeavy, &ctl) > 2 * count(Profile::AluHeavy, &ctl));
    }

    #[test]
    fn qat_only_programs_halt_and_stay_qat(){
        for seed in 1..=10u64 {
            let prog = random_qat_only_program(seed, 40, 6, 8);
            for i in &prog {
                assert!(
                    i.is_qat() || matches!(i, Insn::Lex { .. } | Insn::Sys),
                    "seed {seed}: {i:?}"
                );
            }
            let words = encode_program(&prog);
            let mut m = machine_for(&words, 6);
            m.run().unwrap();
            assert!(m.halted);
        }
    }

    #[test]
    fn reversible_programs_use_only_reversible_gates() {
        for seed in 1..=10u64 {
            let prog = random_reversible_qat_program(seed, 4, 6, 30);
            let (prologue, rest) = prog.split_at(6);
            for i in prologue {
                assert!(matches!(
                    i,
                    Insn::QZero { .. } | Insn::QOne { .. } | Insn::QHad { .. }
                ));
            }
            for i in rest {
                assert!(
                    matches!(
                        i,
                        Insn::QNot { .. }
                            | Insn::QCnot { .. }
                            | Insn::QCcnot { .. }
                            | Insn::QSwap { .. }
                            | Insn::QCswap { .. }
                            | Insn::Sys
                    ),
                    "seed {seed}: {i:?}"
                );
            }
            // Operands of the controlled gates are pairwise distinct.
            for i in rest {
                match i {
                    Insn::QCnot { a, b } | Insn::QSwap { a, b } => assert_ne!(a, b),
                    Insn::QCcnot { a, b, c } | Insn::QCswap { a, b, c } => {
                        assert!(a != b && b != c && a != c);
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn intern_stress_biases_toward_aliases_and_repeated_constants() {
        let opts = ProgGenOptions {
            profile: Profile::QatHeavy,
            intern_stress: true,
            len: 300,
            ..Default::default()
        };
        let mut aliased = 0usize;
        let mut had_ks = std::collections::HashSet::new();
        for seed in 1..=5u64 {
            for i in random_program(seed, &opts) {
                if let Insn::QHad { k, .. } = i {
                    had_ks.insert(k);
                }
                // A duplicated operand (`cnot @a,@a`, `and @d,@b,@b`, ...)
                // is the aliasing the stress mode is meant to produce.
                let reads = i.qreads();
                if reads.iter().enumerate().any(|(n, q)| reads[..n].contains(q)) {
                    aliased += 1;
                }
            }
        }
        assert!(aliased >= 20, "only {aliased} aliased Qat insns in 5x300");
        // Narrow constant pool: every had draws from 2 lanes.
        assert!(had_ks.iter().all(|&k| k < 2), "{had_ks:?}");
        assert!(!had_ks.is_empty());
        // The stressed programs still run and hit the op cache hard.
        let prog = random_program(1, &opts);
        let mut m = machine_for(&encode_program(&prog), 8);
        m.run().unwrap();
        let stats = m.qat.intern_stats().expect("default config interns");
        assert!(stats.hits > 0, "{stats:?}");
    }

    #[test]
    fn prng_is_deterministic() {
        let a = random_program(42, &ProgGenOptions::default());
        let b = random_program(42, &ProgGenOptions::default());
        assert_eq!(a, b);
        let c = random_program(43, &ProgGenOptions::default());
        assert_ne!(a, c);
    }
}
