#![warn(missing_docs)]
//! # qat-coproc — the Qat quantum-inspired coprocessor
//!
//! Qat ("Quantum-like Accelerator for Tangled") is the paper's attached
//! processor: 256 AoB registers (`@0`–`@255`), no access to host memory,
//! and an ALU executing the Table 3 instruction set on `2^WAYS`-bit values.
//!
//! This crate models:
//!
//! * [`QatCoprocessor`] — the architectural register file + ALU dispatch,
//!   with exact Table 3 semantics (including register aliasing such as
//!   `and @2,@2,@3`).
//! * [`QatConfig::backend`] — the register file's *value representation*,
//!   one of the [`AobStorage`] implementations enumerated by
//!   [`backend_registry`]:
//!   [`eager`](pbp_aob::EagerFile) explicit bit-vectors,
//!   [`interned`](pbp_aob::InternedFile) hash-consed chunk ids with
//!   memoized gate kernels (the PBP redundancy argument of §2.2), the
//!   [`sparse-re`](pbp::SparseReFile) run-length-compressed file that
//!   executes gates by RE rewriting and so supports `ways` up to 32 on
//!   structured states (§3.3's scaling story moved inside the
//!   coprocessor), and the default, [`adaptive`](pbp_aob::AdaptiveFile),
//!   which runs eager and promotes to interned when values repeat (and
//!   wraps sparse-re past 16 ways). All four are architecturally
//!   bit-identical where their `ways` ranges overlap, and the
//!   differential fuzzer runs them as oracle pairs.
//! * [`PortStats`] — read/write-port usage accounting. The paper's §5
//!   conclusions hinge on which instructions need a third read port
//!   (`ccnot`, `cswap`) or a second write port (`swap`, `cswap`); the
//!   stats let `gen_results`' E13 rows quantify that.
//! * [`cost`] — the gate-count / gate-delay model for the Figure 7
//!   (`had`) and Figure 8 (`next`) circuits, with both OR-reduction
//!   variants §3.3 discusses (O(WAYS) wide-OR vs O(WAYS²) 2-input tree).
//! * [`QatConfig::constant_registers`] — the §5 simplification where
//!   `@0 = 0`, `@1 = 1`, `@2..=@(WAYS+1)` hold `H(0)..H(WAYS-1)` as
//!   pre-initialized constants instead of using `zero`/`one`/`had`
//!   instructions.
//! * Energy metering via `pbp_aob::EnergyMeter`, for the adiabatic-logic
//!   power argument. The [`AobStorage`] backends report per-write
//!   [`pbp_aob::WriteDelta`]s, so metering works identically across
//!   representations.

pub mod circuit;
pub mod cost;

use pbp_aob::storage::{AobStorage, ConstKind, GateAction};
use pbp_aob::{
    AdaptiveFile, AdaptiveStats, Aob, ChunkStore, EagerFile, EnergyMeter, GateOp, InternStats,
    InternedFile, PackedStats, WaysError,
};
use tangled_isa::{Insn, QReg};

pub use pbp_aob::StorageBackend;

/// Global telemetry handles for gate dispatch and port activity (the
/// `energy.*` counters are `pbp_aob::EnergyMeter`'s own). The
/// `qat.backend.*` namespace attributes Qat instructions to the storage
/// backend that ran them (the sparse backend's `.materialize` counter
/// lives with its implementation in the `pbp` crate, hence the
/// `sparse_re` spelling).
mod telem {
    use pbp_aob::StorageBackend;
    use tangled_isa::{Insn, KIND_COUNT};
    use tangled_telemetry::{Counter, CounterBank};

    pub static GATES: CounterBank<KIND_COUNT> = CounterBank::new("qat.gate", Insn::kind_name);
    /// `qat.backend.<backend>.gates`, indexed by `StorageBackend as usize`.
    pub static BACKEND_GATES: CounterBank<{ StorageBackend::ALL.len() }> =
        CounterBank::new("qat.backend", backend_gates_label);
    pub static FUSED_RUNS: Counter = Counter::new("qat.fused.runs");
    pub static FUSED_GATES: Counter = Counter::new("qat.fused.gates");
    pub static PORT_READS: Counter = Counter::new("qat.ports.reads");
    pub static PORT_WRITES: Counter = Counter::new("qat.ports.writes");

    fn backend_gates_label(i: usize) -> &'static str {
        ["eager.gates", "interned.gates", "sparse_re.gates", "adaptive.gates"][i]
    }
}

/// Static configuration of a Qat instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QatConfig {
    /// Entanglement degree: AoB values are `2^ways` bits. The paper's
    /// hardware uses 16; student projects used 8 (and were permitted 256-bit
    /// AoB = 8-way "to speed-up simulation"). The `sparse-re` backend
    /// extends this to 32 in software.
    pub ways: u32,
    /// §5 mode: registers `@0`,`@1` hold the constants 0 and 1 and
    /// `@2..@(2+ways)` hold `H(0)..H(ways-1)`; writes to those registers
    /// are architectural errors.
    pub constant_registers: bool,
    /// Record before/after toggle counts for every register write
    /// (costs a snapshot per op; off by default).
    pub meter_energy: bool,
    /// Register-file value representation; see [`backend_registry`] for
    /// each backend's capabilities. The default is [`QatConfig::paper`]'s;
    /// the CLIs and the differential oracle's `DiffConfig` copy it.
    pub backend: StorageBackend,
    /// Warm ChunkStore snapshot to attach the register file to (see
    /// [`pbp_aob::warm`]): the interned file, and the adaptive file when it
    /// promotes, start from the snapshot's chunks and memoized op cache
    /// when its degree matches `ways`. `None` is a cold start. Semantically
    /// invisible either way — a warm cache changes what is *recomputed*,
    /// never what a gate produces.
    pub warm: Option<pbp_aob::WarmStoreId>,
}

impl QatConfig {
    /// The paper's full-size configuration: 16-way, instruction-based
    /// initialization, no metering, adaptive register file (explicit
    /// vectors like the hardware's, interned once values repeat).
    pub fn paper() -> Self {
        QatConfig {
            ways: 16,
            constant_registers: false,
            meter_energy: false,
            backend: StorageBackend::Adaptive,
            warm: None,
        }
    }

    /// The student-project configuration: 8-way entanglement.
    pub fn student() -> Self {
        QatConfig { ways: 8, ..Self::paper() }
    }

    /// With the given entanglement degree.
    pub fn with_ways(ways: u32) -> Self {
        QatConfig { ways, ..Self::paper() }
    }

    /// With the given backend and entanglement degree.
    pub fn with_backend(backend: StorageBackend, ways: u32) -> Self {
        QatConfig { backend, ..Self::with_ways(ways) }
    }

    /// Number of reserved constant registers in `constant_registers` mode.
    pub fn reserved_regs(&self) -> u8 {
        if self.constant_registers {
            (2 + self.ways) as u8
        } else {
            0
        }
    }
}

// ---------------------------------------------------------------------------
// Backend registry.
// ---------------------------------------------------------------------------

/// Capability entry for one register-file backend: the single table the
/// CLI, the fuzzer, and the differential oracle enumerate instead of
/// hard-coding backend matrices.
pub struct BackendEntry {
    /// Which backend this entry describes.
    pub backend: StorageBackend,
    /// One-line description for `tangled backends`.
    pub description: &'static str,
    /// Smallest supported entanglement degree.
    pub min_ways: u32,
    /// Largest supported entanglement degree.
    pub max_ways: u32,
    /// Name the differential oracle reports divergences under when this
    /// backend is cross-checked against the reference run.
    pub oracle_name: &'static str,
    build: fn(&QatConfig) -> Box<dyn AobStorage>,
}

impl BackendEntry {
    /// Does this backend support the given entanglement degree?
    pub fn supports_ways(&self, ways: u32) -> bool {
        (self.min_ways..=self.max_ways).contains(&ways)
    }

    /// Build a fresh register file for `cfg`, or a typed [`WaysError`]
    /// outside the supported `ways` range.
    pub fn try_build(&self, cfg: &QatConfig) -> Result<Box<dyn AobStorage>, WaysError> {
        WaysError::check(cfg.ways, self.min_ways, self.max_ways)?;
        Ok((self.build)(cfg))
    }

    /// Build a fresh register file for `cfg` (panics outside the
    /// supported `ways` range).
    pub fn build(&self, cfg: &QatConfig) -> Box<dyn AobStorage> {
        self.try_build(cfg).unwrap_or_else(|_| {
            panic!(
                "backend `{}` supports ways {}..={}, got {}",
                self.backend, self.min_ways, self.max_ways, cfg.ways
            )
        })
    }
}

impl std::fmt::Debug for BackendEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendEntry")
            .field("backend", &self.backend)
            .field("min_ways", &self.min_ways)
            .field("max_ways", &self.max_ways)
            .finish()
    }
}

// Every ways bound below derives from the backend types' own capability
// constants (`EagerFile::MIN_WAYS`..., `SparseReFile::MAX_WAYS`...), so
// raising a backend's range is a one-constant change and the registry,
// the difftest oracle selection, and the adaptive pinning pivot can
// never drift apart.
static BACKENDS: [BackendEntry; 4] = [
    BackendEntry {
        backend: StorageBackend::Eager,
        description: "explicit 2^WAYS-bit vectors, word-loop gate kernels",
        min_ways: EagerFile::MIN_WAYS,
        max_ways: EagerFile::MAX_WAYS,
        oracle_name: "qat-eager",
        build: |cfg| Box::new(EagerFile::new(cfg.ways, cfg.constant_registers)),
    },
    BackendEntry {
        backend: StorageBackend::Interned,
        description: "hash-consed chunk ids, memoized gates, copy-on-write",
        min_ways: InternedFile::MIN_WAYS,
        max_ways: InternedFile::MAX_WAYS,
        oracle_name: "qat-interned",
        build: |cfg| Box::new(InternedFile::warmed(cfg.ways, cfg.constant_registers, cfg.warm)),
    },
    BackendEntry {
        backend: StorageBackend::SparseRe,
        description: "packed-RLE RE symbols; structured states beyond 16 ways",
        min_ways: pbp::SparseReFile::MIN_WAYS,
        max_ways: pbp::SparseReFile::MAX_WAYS,
        oracle_name: "qat-sparse-re",
        build: |cfg| Box::new(sparse_re(cfg)),
    },
    BackendEntry {
        backend: StorageBackend::Adaptive,
        description: "starts eager, promotes to interned when dedup telemetry pays",
        min_ways: EagerFile::MIN_WAYS,
        max_ways: pbp::SparseReFile::MAX_WAYS,
        oracle_name: "qat-adaptive",
        // Up to the hardware's HW_MAX_WAYS the file starts eager and
        // promotes to interned on its own telemetry; past that explicit
        // vectors are the wrong floor, so the adaptive wrapper pins the
        // sparse-re representation instead.
        build: |cfg| {
            if cfg.ways <= pbp_aob::HW_MAX_WAYS {
                Box::new(AdaptiveFile::with_warm(cfg.ways, cfg.constant_registers, cfg.warm))
            } else {
                Box::new(AdaptiveFile::pinned(Box::new(sparse_re(cfg))))
            }
        },
    },
];

/// A sparse-re file for `cfg`, whose ways `try_build` has already checked.
fn sparse_re(cfg: &QatConfig) -> pbp::SparseReFile {
    pbp::SparseReFile::try_new(cfg.ways, cfg.constant_registers)
        .expect("try_build checks the ways range first")
}

/// Every register-file backend, in canonical order.
pub fn backend_registry() -> &'static [BackendEntry] {
    &BACKENDS
}

/// Look up one backend's registry entry.
pub fn backend_entry(backend: StorageBackend) -> &'static BackendEntry {
    BACKENDS
        .iter()
        .find(|e| e.backend == backend)
        .expect("every StorageBackend has a registry entry")
}

/// Register-file port usage accounting (per-instruction peaks and totals).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PortStats {
    /// Total AoB register reads performed.
    pub reads: u64,
    /// Total AoB register writes performed.
    pub writes: u64,
    /// Instructions that needed three read ports in one cycle.
    pub triple_read_insns: u64,
    /// Instructions that needed two write ports in one cycle.
    pub dual_write_insns: u64,
    /// Qat instructions executed.
    pub insns: u64,
}

/// Architectural error raised by the coprocessor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QatError {
    /// Write to a reserved constant register in `constant_registers` mode.
    ConstantRegisterWrite {
        /// The register the program attempted to overwrite.
        reg: QReg,
    },
    /// A non-Qat instruction was dispatched to the coprocessor.
    NotAQatInstruction,
}

impl std::fmt::Display for QatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QatError::ConstantRegisterWrite { reg } => {
                write!(f, "write to reserved constant register {reg}")
            }
            QatError::NotAQatInstruction => write!(f, "not a Qat instruction"),
        }
    }
}

impl std::error::Error for QatError {}

/// The Qat coprocessor: 256 AoB registers plus execution machinery.
#[derive(Debug)]
pub struct QatCoprocessor {
    config: QatConfig,
    file: Box<dyn AobStorage>,
    /// Port-usage statistics (reset with [`QatCoprocessor::reset_stats`]).
    pub ports: PortStats,
    /// Switching-energy meter (active when `config.meter_energy`).
    /// Imbalance is accounted **per instruction**, so the conservative
    /// swap family nets zero adiabatic cost (§5's billiard-ball argument).
    pub meter: EnergyMeter,
}

impl Clone for QatCoprocessor {
    fn clone(&self) -> Self {
        QatCoprocessor {
            config: self.config,
            file: self.file.clone_box(),
            ports: self.ports.clone(),
            meter: self.meter.clone(),
        }
    }
}

impl QatCoprocessor {
    /// Fresh coprocessor; all registers zero, or preloaded with the
    /// constant bank when `config.constant_registers` is set. The register
    /// file is built through [`backend_registry`]; panics if `config.ways`
    /// is outside the chosen backend's supported range.
    pub fn new(config: QatConfig) -> Self {
        let file = backend_entry(config.backend).build(&config);
        QatCoprocessor {
            config,
            file,
            ports: PortStats::default(),
            meter: EnergyMeter::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> QatConfig {
        self.config
    }

    /// The active storage backend.
    pub fn backend(&self) -> StorageBackend {
        self.file.backend()
    }

    /// Read a register, materialized as an explicit bit-vector
    /// (architectural, not port-counted). On the compressed backend this
    /// allocates the full `2^ways`-bit value — debugging/capture only; the
    /// measurement family goes through [`QatCoprocessor::execute`] and
    /// never materializes.
    pub fn reg(&self, r: QReg) -> Aob {
        self.file.read(r.num() as usize)
    }

    /// Direct access to the register-file storage backend.
    pub fn storage(&self) -> &dyn AobStorage {
        self.file.as_ref()
    }

    /// Directly set a register (test/loader backdoor; bypasses the
    /// constant-register protection and port accounting).
    pub fn set_reg(&mut self, r: QReg, v: Aob) {
        assert_eq!(v.ways(), self.config.ways, "register value has wrong entanglement degree");
        self.file.set(r.num() as usize, &v);
    }

    /// The shared chunk store backing the register file (`None` unless
    /// the file interns: the `interned` backend, or an `adaptive` file
    /// that promoted).
    pub fn store(&self) -> Option<&ChunkStore> {
        self.file.chunk_store()
    }

    /// Cache hit/miss/eviction counters of the register file (`None` on
    /// backends that do not intern values).
    pub fn intern_stats(&self) -> Option<InternStats> {
        self.file.intern_stats()
    }

    /// Packed-period footprint of the register file, if the backend
    /// stores packed-RLE registers (`sparse-re`, or `adaptive` pinned
    /// past [`pbp_aob::HW_MAX_WAYS`]).
    pub fn packed_stats(&self) -> Option<PackedStats> {
        self.file.packed_stats()
    }

    /// Full-vector materializations the backend performed (non-zero only
    /// when something read registers architecturally; the `sparse-re`
    /// gate/measurement path keeps this at 0).
    pub fn materializations(&self) -> u64 {
        self.file.materializations()
    }

    /// Zero all statistics (ports, energy, and backend-internal counters).
    pub fn reset_stats(&mut self) {
        self.ports = PortStats::default();
        self.meter = EnergyMeter::new();
        self.file.reset_stats();
    }

    fn check_writable(&self, r: QReg) -> Result<(), QatError> {
        if self.config.constant_registers && r.num() < self.config.reserved_regs() {
            Err(QatError::ConstantRegisterWrite { reg: r })
        } else {
            Ok(())
        }
    }

    /// Charge one instruction's register writes to the energy meter.
    /// Imbalance is the net population change of the whole delta, so an
    /// instruction that merely re-routes charge between its destinations
    /// (swap/cswap) nets zero adiabatic imbalance even when the individual
    /// registers change population.
    fn meter_write(&mut self, d: pbp_aob::WriteDelta) {
        if self.config.meter_energy {
            self.meter.add(d);
        }
    }

    /// Port and dispatch accounting for dispatched Qat instructions, each
    /// given as its [`Insn::kind`] plus its [`gate_action`] (`None` for
    /// the measurement family, which reads one register and writes none).
    /// The one place `execute` and `execute_run` count `qat.gate.*`,
    /// `qat.ports.*`, `qat.backend.<backend>.gates` and [`PortStats`].
    fn account(&mut self, insns: impl Iterator<Item = (usize, Option<GateAction>)>) {
        let (mut n, mut reads, mut writes) = (0u64, 0u64, 0u64);
        for (kind, act) in insns {
            let (nreads, nwrites) = act.map_or((1, 0), |a| (a.srcs().1, a.dests().1));
            if nreads == 3 {
                self.ports.triple_read_insns += 1;
            }
            if nwrites == 2 {
                self.ports.dual_write_insns += 1;
            }
            telem::GATES.add(kind, 1);
            n += 1;
            reads += nreads as u64;
            writes += nwrites as u64;
        }
        self.ports.insns += n;
        self.ports.reads += reads;
        self.ports.writes += writes;
        telem::PORT_READS.add(reads);
        telem::PORT_WRITES.add(writes);
        telem::BACKEND_GATES.add(self.file.backend() as usize, n);
    }

    /// Execute one Qat instruction.
    ///
    /// `d_in` supplies the value of the Tangled `$d` register for the
    /// `meas`/`next`/`pop` family; the return value is the new `$d`
    /// (`Some`) for that family and `None` otherwise. This mirrors the
    /// paper's tight coupling: these are the only datapaths between the
    /// two processors.
    pub fn execute(&mut self, insn: Insn, d_in: u16) -> Result<Option<u16>, QatError> {
        if !insn.is_qat() {
            return Err(QatError::NotAQatInstruction);
        }
        let act = gate_action(&insn);
        self.account(std::iter::once((insn.kind(), act)));
        let Some(act) = act else {
            let d = d_in as u64;
            return Ok(Some(match insn {
                Insn::QMeas { a, .. } => self.file.meas(a.0 as usize, d) as u16,
                // The ISA's in-band `0` sentinel is applied here, at the
                // GPR boundary: storage reports "no next 1" as a typed
                // `None`, and only the 16-bit architectural result folds
                // that into 0 (channel 0 is never a legal `next` result,
                // so the encoding is unambiguous).
                Insn::QNext { a, .. } => self.file.next(a.0 as usize, d).map_or(0, |e| e as u16),
                Insn::QPop { a, .. } => (self.file.pop_after(a.0 as usize, d) & 0xFFFF) as u16,
                _ => unreachable!("is_qat() guarantees a Qat variant"),
            }));
        };
        let (dests, nd) = act.dests();
        for &r in &dests[..nd] {
            self.check_writable(QReg(r))?;
        }
        let d = self.file.apply_action(act, self.config.meter_energy);
        self.meter_write(d);
        Ok(None)
    }

    /// Whether the register file gains from fused gate runs
    /// ([`pbp_aob::storage::AobStorage::wants_fusion`]). A machine that
    /// fuses collects the gates it retires into a pending run and hands it
    /// to [`QatCoprocessor::execute_run`] when the run ends, so the register
    /// file lags the retired gates only while a run is pending.
    pub fn fusion_active(&self) -> bool {
        self.file.wants_fusion()
    }

    /// Promotion and probe counters of the register file (`None` unless
    /// the backend is `adaptive`).
    pub fn adaptive_stats(&self) -> Option<AdaptiveStats> {
        self.file.adaptive_stats()
    }

    /// Execute a straight-line run of register-file gate instructions as
    /// one storage-layer call ([`AobStorage::gate_run`]).
    ///
    /// Architecturally identical to calling [`QatCoprocessor::execute`] on
    /// each instruction in order, including the port/telemetry accounting
    /// and, with `meter_energy`, the energy meter: a metered run hands the
    /// file one gate at a time, so imbalance stays per instruction. The
    /// machine calls this when a pending run ends (its `settle`), so its
    /// Qat state lags the retired gates only inside a pending run. The
    /// caller must pre-check writability: every instruction in the run is
    /// validated *before* any gate executes, and a fault leaves the file
    /// untouched, so runs must end before the first would-faulting insn to
    /// preserve partial-state fault semantics.
    pub fn execute_run(&mut self, insns: &[Insn]) -> Result<(), QatError> {
        let mut actions = Vec::with_capacity(insns.len());
        for insn in insns {
            let act = gate_action(insn).ok_or(QatError::NotAQatInstruction)?;
            let (dests, nd) = act.dests();
            for &d in &dests[..nd] {
                self.check_writable(QReg(d))?;
            }
            actions.push(act);
        }
        self.account(insns.iter().zip(&actions).map(|(i, &a)| (i.kind(), Some(a))));
        telem::FUSED_RUNS.inc();
        telem::FUSED_GATES.add(actions.len() as u64);
        if self.config.meter_energy {
            for &act in &actions {
                self.meter.add(self.file.apply_action(act, true));
            }
        } else {
            self.file.gate_run(&actions, false);
        }
        Ok(())
    }
}

/// The storage-layer [`GateAction`] for a register-file gate instruction,
/// or `None` for anything else (the measurement family reads `$d` and
/// returns a scalar, so it can never be part of a fused run).
pub fn gate_action(insn: &Insn) -> Option<GateAction> {
    Some(match *insn {
        Insn::QZero { a } => GateAction::Const(a.0, ConstKind::Zeros),
        Insn::QOne { a } => GateAction::Const(a.0, ConstKind::Ones),
        Insn::QHad { a, k } => GateAction::Const(a.0, ConstKind::Hadamard(k as u32)),
        Insn::QNot { a } => GateAction::Not(a.0),
        Insn::QAnd { a, b, c } => GateAction::Bin(GateOp::And, a.0, b.0, c.0),
        Insn::QOr { a, b, c } => GateAction::Bin(GateOp::Or, a.0, b.0, c.0),
        Insn::QXor { a, b, c } => GateAction::Bin(GateOp::Xor, a.0, b.0, c.0),
        // §5: cnot @a,@b == xor @a,@a,@b.
        Insn::QCnot { a, b } => GateAction::Bin(GateOp::Xor, a.0, a.0, b.0),
        Insn::QCcnot { a, b, c } => GateAction::Ccnot(a.0, b.0, c.0),
        Insn::QSwap { a, b } => GateAction::Swap(a.0, b.0),
        Insn::QCswap { a, b, c } => GateAction::Cswap(a.0, b.0, c.0),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tangled_isa::Reg;

    fn q(n: u8) -> QReg {
        QReg(n)
    }

    fn coproc(ways: u32) -> QatCoprocessor {
        QatCoprocessor::new(QatConfig::with_ways(ways))
    }

    #[test]
    fn initializers() {
        let mut c = coproc(8);
        c.execute(Insn::QOne { a: q(5) }, 0).unwrap();
        assert_eq!(c.reg(q(5)), Aob::ones(8));
        c.execute(Insn::QZero { a: q(5) }, 0).unwrap();
        assert_eq!(c.reg(q(5)), Aob::zeros(8));
        c.execute(Insn::QHad { a: q(7), k: 3 }, 0).unwrap();
        assert_eq!(c.reg(q(7)), Aob::hadamard(8, 3));
    }

    #[test]
    fn paper_next_example_end_to_end() {
        // had @123,4 ; lex $8,42 ; next $8,@123  =>  $8 = 48  (§2.7)
        let mut c = coproc(16);
        c.execute(Insn::QHad { a: q(123), k: 4 }, 0).unwrap();
        let d = c
            .execute(Insn::QNext { d: Reg::new(8), a: q(123) }, 42)
            .unwrap();
        assert_eq!(d, Some(48));
    }

    #[test]
    fn gate_ops_and_aliasing() {
        let mut c = coproc(8);
        c.execute(Insn::QHad { a: q(0), k: 2 }, 0).unwrap();
        c.execute(Insn::QHad { a: q(1), k: 5 }, 0).unwrap();
        c.execute(Insn::QAnd { a: q(2), b: q(0), c: q(1) }, 0).unwrap();
        assert_eq!(
            c.reg(q(2)),
            Aob::and_of(&Aob::hadamard(8, 2), &Aob::hadamard(8, 5))
        );
        // Aliased destination: and @0,@0,@1
        c.execute(Insn::QAnd { a: q(0), b: q(0), c: q(1) }, 0).unwrap();
        assert_eq!(c.reg(q(0)), c.reg(q(2)));
        // Fully aliased: or @3,@3,@3 is a copy of itself (paper uses
        // `or @80,@79,@79` as a copy idiom).
        c.execute(Insn::QOr { a: q(3), b: q(2), c: q(2) }, 0).unwrap();
        assert_eq!(c.reg(q(3)), c.reg(q(2)));
    }

    #[test]
    fn cnot_equals_xor_with_self() {
        // §5: "cnot @a,@b is actually equivalent to xor @a,@a,@b".
        let mut c1 = coproc(8);
        let mut c2 = coproc(8);
        for c in [&mut c1, &mut c2] {
            c.execute(Insn::QHad { a: q(0), k: 1 }, 0).unwrap();
            c.execute(Insn::QHad { a: q(1), k: 4 }, 0).unwrap();
        }
        c1.execute(Insn::QCnot { a: q(0), b: q(1) }, 0).unwrap();
        c2.execute(Insn::QXor { a: q(0), b: q(0), c: q(1) }, 0).unwrap();
        assert_eq!(c1.reg(q(0)), c2.reg(q(0)));
    }

    #[test]
    fn swap_and_cswap() {
        let mut c = coproc(8);
        c.execute(Insn::QHad { a: q(0), k: 0 }, 0).unwrap();
        c.execute(Insn::QOne { a: q(1) }, 0).unwrap();
        c.execute(Insn::QSwap { a: q(0), b: q(1) }, 0).unwrap();
        assert_eq!(c.reg(q(0)), Aob::ones(8));
        assert_eq!(c.reg(q(1)), Aob::hadamard(8, 0));
        // cswap with control H(1): exchanged only in odd channel-pairs.
        c.execute(Insn::QHad { a: q(2), k: 1 }, 0).unwrap();
        c.execute(Insn::QCswap { a: q(0), b: q(1), c: q(2) }, 0).unwrap();
        let h1 = Aob::hadamard(8, 1);
        for e in 0..256u64 {
            if h1.get(e) {
                assert_eq!(c.reg(q(0)).get(e), Aob::hadamard(8, 0).get(e));
            } else {
                assert!(c.reg(q(0)).get(e)); // untouched ones()
            }
        }
    }

    #[test]
    fn meas_pop_family() {
        let mut c = coproc(8);
        c.execute(Insn::QHad { a: q(9), k: 0 }, 0).unwrap();
        let d = Reg::new(3);
        assert_eq!(c.execute(Insn::QMeas { d, a: q(9) }, 7).unwrap(), Some(1));
        assert_eq!(c.execute(Insn::QMeas { d, a: q(9) }, 8).unwrap(), Some(0));
        // pop after channel 0 of H(0) on 8-way: 128 ones, channel 0 is 0,
        // so pop_after(0) = 128.
        assert_eq!(c.execute(Insn::QPop { d, a: q(9) }, 0).unwrap(), Some(128));
    }

    #[test]
    fn port_statistics_track_section5_hardware_costs() {
        let mut c = coproc(8);
        c.execute(Insn::QCcnot { a: q(1), b: q(2), c: q(3) }, 0).unwrap();
        c.execute(Insn::QCswap { a: q(1), b: q(2), c: q(3) }, 0).unwrap();
        c.execute(Insn::QSwap { a: q(1), b: q(2) }, 0).unwrap();
        c.execute(Insn::QAnd { a: q(1), b: q(2), c: q(3) }, 0).unwrap();
        assert_eq!(c.ports.insns, 4);
        assert_eq!(c.ports.triple_read_insns, 2); // ccnot + cswap
        assert_eq!(c.ports.dual_write_insns, 2); // cswap + swap
        assert_eq!(c.ports.reads, 3 + 3 + 2 + 2);
        assert_eq!(c.ports.writes, 1 + 2 + 2 + 1);
    }

    #[test]
    fn constant_register_mode_on_every_backend() {
        for entry in backend_registry() {
            let ways = 8.max(entry.min_ways);
            let cfg = QatConfig {
                constant_registers: true,
                ..QatConfig::with_backend(entry.backend, ways)
            };
            let mut c = QatCoprocessor::new(cfg);
            // @0 = 0, @1 = 1, @2.. = H(0)..
            assert_eq!(c.reg(q(0)), Aob::zeros(ways), "{}", entry.backend);
            assert_eq!(c.reg(q(1)), Aob::ones(ways));
            for k in 0..ways as u8 {
                assert_eq!(c.reg(q(2 + k)), Aob::hadamard(ways, k as u32));
            }
            // Writing a reserved register is an error; the general ones are
            // fine.
            assert_eq!(
                c.execute(Insn::QZero { a: q(1) }, 0),
                Err(QatError::ConstantRegisterWrite { reg: q(1) })
            );
            assert!(c.execute(Insn::QZero { a: q(100) }, 0).is_ok());
            // Reading constants works through normal operand fields:
            c.execute(Insn::QXor { a: q(200), b: q(2), c: q(1) }, 0).unwrap();
            assert_eq!(c.reg(q(200)), Aob::hadamard(ways, 0).not_of());
        }
    }

    #[test]
    fn energy_metering_when_enabled_on_every_backend() {
        for entry in backend_registry() {
            let cfg = QatConfig {
                meter_energy: true,
                ..QatConfig::with_backend(entry.backend, 8)
            };
            let mut c = QatCoprocessor::new(cfg);
            c.execute(Insn::QOne { a: q(0) }, 0).unwrap(); // 0 -> 256 ones
            assert_eq!(c.meter.toggles, 256, "backend={}", entry.backend);
            assert_eq!(c.meter.imbalance, 256);
            c.execute(Insn::QNot { a: q(0) }, 0).unwrap(); // all flip back
            assert_eq!(c.meter.toggles, 512);
            assert_eq!(c.meter.imbalance, 512);
        }
    }

    #[test]
    fn rejects_non_qat_instructions() {
        let mut c = coproc(8);
        let r = c.execute(Insn::Add { d: Reg::new(0), s: Reg::new(1) }, 0);
        assert_eq!(r, Err(QatError::NotAQatInstruction));
    }

    #[test]
    fn swap_self_is_identity() {
        let mut c = coproc(8);
        c.execute(Insn::QHad { a: q(4), k: 2 }, 0).unwrap();
        c.execute(Insn::QSwap { a: q(4), b: q(4) }, 0).unwrap();
        assert_eq!(c.reg(q(4)), Aob::hadamard(8, 2));
    }

    /// Every Table-3 op, including self-operand forms, agrees across every
    /// registered backend.
    #[test]
    fn backends_match_across_gate_mix() {
        let prog: Vec<Insn> = vec![
            Insn::QHad { a: q(0), k: 0 },
            Insn::QHad { a: q(1), k: 3 },
            Insn::QHad { a: q(2), k: 7 },
            Insn::QOne { a: q(3) },
            Insn::QAnd { a: q(4), b: q(0), c: q(1) },
            Insn::QOr { a: q(5), b: q(4), c: q(2) },
            Insn::QXor { a: q(6), b: q(5), c: q(0) },
            Insn::QNot { a: q(6) },
            Insn::QCnot { a: q(4), b: q(5) },
            Insn::QCnot { a: q(4), b: q(4) }, // self-operand: clears
            Insn::QCcnot { a: q(5), b: q(6), c: q(0) },
            Insn::QCcnot { a: q(5), b: q(5), c: q(5) }, // fully aliased
            Insn::QSwap { a: q(4), b: q(5) },
            Insn::QCswap { a: q(5), b: q(6), c: q(1) },
            Insn::QCswap { a: q(2), b: q(2), c: q(0) }, // aliased pair
            Insn::QZero { a: q(3) },
            Insn::QHad { a: q(3), k: 200 }, // out-of-range k: zeros
        ];
        let mut reference =
            QatCoprocessor::new(QatConfig::with_backend(StorageBackend::Eager, 8));
        for insn in &prog {
            reference.execute(*insn, 0).unwrap();
        }
        assert!(reference.intern_stats().is_none());
        for entry in backend_registry().iter().filter(|e| e.backend != StorageBackend::Eager) {
            let mut c = QatCoprocessor::new(QatConfig::with_backend(entry.backend, 8));
            for insn in &prog {
                c.execute(*insn, 0).unwrap();
            }
            for r in 0..=255u8 {
                assert_eq!(reference.reg(q(r)), c.reg(q(r)), "{} @{r}", entry.backend);
            }
        }
    }

    /// Replaying an already-seen gate sequence is pure cache hits.
    #[test]
    fn second_pass_is_all_hits() {
        let mut c = QatCoprocessor::new(QatConfig::with_backend(StorageBackend::Interned, 8));
        let pass = [
            Insn::QHad { a: q(0), k: 1 },
            Insn::QHad { a: q(1), k: 6 },
            Insn::QAnd { a: q(2), b: q(0), c: q(1) },
            Insn::QXor { a: q(3), b: q(2), c: q(1) },
            Insn::QCcnot { a: q(4), b: q(3), c: q(0) },
        ];
        for insn in &pass {
            c.execute(*insn, 0).unwrap();
        }
        let after_first = c.intern_stats().unwrap();
        for insn in &pass {
            c.execute(*insn, 0).unwrap();
        }
        let after_second = c.intern_stats().unwrap();
        assert_eq!(
            after_second.misses, after_first.misses,
            "warm replay must not recompute any gate"
        );
        assert!(after_second.hits > after_first.hits);
    }

    fn fusible_prog() -> Vec<Insn> {
        vec![
            Insn::QHad { a: q(10), k: 0 },
            Insn::QHad { a: q(11), k: 3 },
            Insn::QAnd { a: q(12), b: q(10), c: q(11) },
            Insn::QXor { a: q(13), b: q(12), c: q(11) },
            Insn::QCnot { a: q(13), b: q(10) },
            Insn::QCcnot { a: q(12), b: q(13), c: q(10) },
            Insn::QNot { a: q(12) },
            Insn::QSwap { a: q(12), b: q(13) },
            Insn::QCswap { a: q(12), b: q(13), c: q(10) },
        ]
    }

    /// `execute_run` is architecturally identical to stepping, on every
    /// backend, including the port accounting, the op-cache stats, the
    /// `qat.gate.*` / `qat.ports.*` / `qat.backend.*` / `intern.*` /
    /// `energy.*` counters and, when metered, the energy meter's
    /// per-instruction totals.
    #[test]
    fn execute_run_matches_stepped_execution() {
        use tangled_telemetry::{scoped, set_mode, Mode, Snapshot};
        set_mode(Mode::Counters);
        let accounting = |snap: &Snapshot| -> Vec<(String, u64)> {
            snap.iter()
                .filter(|(k, _)| {
                    ["qat.gate.", "qat.ports.", "qat.backend.", "intern.", "energy."]
                        .iter()
                        .any(|p| k.starts_with(p))
                })
                .map(|(k, v)| (k.to_string(), v))
                .collect()
        };
        for (entry, meter_energy) in
            backend_registry().iter().flat_map(|e| [(e, false), (e, true)])
        {
            let ways = 8.max(entry.min_ways);
            let cfg = QatConfig { meter_energy, ..QatConfig::with_backend(entry.backend, ways) };
            let mut stepped = QatCoprocessor::new(cfg);
            let mut fused = stepped.clone();
            // Two identical passes: the second answers every interned gate
            // from the op cache.
            let ((), stepped_snap) = scoped(|| {
                for insn in fusible_prog().iter().chain(&fusible_prog()) {
                    stepped.execute(*insn, 0).unwrap();
                }
            });
            let ((), fused_snap) = scoped(|| {
                fused.execute_run(&fusible_prog()).unwrap();
                fused.execute_run(&fusible_prog()).unwrap();
            });
            for r in 0..=255u8 {
                assert_eq!(stepped.reg(q(r)), fused.reg(q(r)), "{} @{r}", entry.backend);
            }
            assert_eq!(stepped.ports, fused.ports, "{}", entry.backend);
            assert_eq!(stepped.meter, fused.meter, "{} metered {meter_energy}", entry.backend);
            assert_eq!(stepped.meter.writes > 0, meter_energy, "{}", entry.backend);
            assert_eq!(stepped.intern_stats(), fused.intern_stats(), "{}", entry.backend);
            assert_eq!(accounting(&stepped_snap), accounting(&fused_snap), "{}", entry.backend);
            let key = format!("qat.backend.{}.gates", entry.backend.name().replace('-', "_"));
            assert_eq!(stepped_snap.get(&key), 2 * fusible_prog().len() as u64, "{key}");
        }
    }

    /// A run containing a constant-register fault executes nothing.
    #[test]
    fn execute_run_faults_atomically() {
        let cfg = QatConfig {
            constant_registers: true,
            ..QatConfig::with_backend(StorageBackend::Interned, 8)
        };
        let mut c = QatCoprocessor::new(cfg);
        let before = c.reg(q(100));
        let run = [
            Insn::QOne { a: q(100) },
            Insn::QZero { a: q(1) }, // faults: @1 is the constant 1
        ];
        assert_eq!(
            c.execute_run(&run),
            Err(QatError::ConstantRegisterWrite { reg: q(1) })
        );
        assert_eq!(c.reg(q(100)), before, "faulting run must not partially execute");
    }

    #[test]
    fn fusion_active_gating() {
        let interned = QatCoprocessor::new(QatConfig::with_backend(StorageBackend::Interned, 8));
        assert!(interned.fusion_active(), "interned wants fusion by default");
        let eager = QatCoprocessor::new(QatConfig::with_backend(StorageBackend::Eager, 8));
        assert!(!eager.fusion_active(), "eager stays unfused: qat-eager is the stepped reference");
        let metered = QatCoprocessor::new(QatConfig {
            meter_energy: true,
            ..QatConfig::with_backend(StorageBackend::Interned, 8)
        });
        assert!(
            metered.fusion_active(),
            "metering does not change how runs form: execute_run meters per instruction"
        );
    }

    /// The adaptive backend exposes its promotion counters and behaves
    /// eager-equivalently at both sides of the 16-way pivot.
    #[test]
    fn adaptive_backend_registry_pivot() {
        let small = QatCoprocessor::new(QatConfig::with_backend(StorageBackend::Adaptive, 8));
        assert_eq!(small.backend(), StorageBackend::Adaptive);
        assert_eq!(small.adaptive_stats().unwrap().promotions, 0);
        assert!(small.intern_stats().is_none(), "starts eager");
        let big = QatCoprocessor::new(QatConfig::with_backend(StorageBackend::Adaptive, 20));
        assert_eq!(big.backend(), StorageBackend::Adaptive);
        assert!(
            big.intern_stats().is_some(),
            "past 16 ways the adaptive wrapper pins the sparse-re file"
        );
    }

    #[test]
    fn registry_covers_every_backend_and_enforces_ways() {
        assert_eq!(backend_registry().len(), StorageBackend::ALL.len());
        for b in StorageBackend::ALL {
            assert_eq!(backend_entry(b).backend, b);
        }
        // Every bound is derived from the backend types' own capability
        // constants — spot-check the table against them.
        assert_eq!(backend_entry(StorageBackend::Eager).max_ways, pbp_aob::HW_MAX_WAYS);
        assert_eq!(
            backend_entry(StorageBackend::SparseRe).max_ways,
            pbp::SparseReFile::MAX_WAYS
        );
        assert_eq!(
            backend_entry(StorageBackend::Adaptive).max_ways,
            pbp::SparseReFile::MAX_WAYS
        );
        assert!(backend_entry(StorageBackend::SparseRe).supports_ways(20));
        assert!(backend_entry(StorageBackend::SparseRe).supports_ways(32));
        assert!(!backend_entry(StorageBackend::SparseRe).supports_ways(33));
        assert!(!backend_entry(StorageBackend::Eager).supports_ways(20));
        // Packed-RLE periods run on a padding-masked sub-chunk store, so
        // small degrees are in range too.
        assert!(backend_entry(StorageBackend::SparseRe).supports_ways(4));
    }

    #[test]
    fn try_build_returns_typed_ways_error() {
        let e = backend_entry(StorageBackend::Eager)
            .try_build(&QatConfig::with_backend(StorageBackend::Eager, 20))
            .map(|_| ())
            .unwrap_err();
        assert_eq!(e, WaysError { ways: 20, min: 1, max: pbp_aob::HW_MAX_WAYS });
        assert!(backend_entry(StorageBackend::SparseRe)
            .try_build(&QatConfig::with_backend(StorageBackend::SparseRe, 32))
            .is_ok());
    }

    #[test]
    #[should_panic(expected = "supports ways")]
    fn out_of_range_ways_panics() {
        QatCoprocessor::new(QatConfig::with_backend(StorageBackend::Eager, 20));
    }

    /// The sparse backend runs a 20-way gate mix without ever expanding a
    /// register to its 2^20-bit explicit form.
    #[test]
    fn sparse_re_runs_20_ways_without_materializing() {
        let mut c = QatCoprocessor::new(QatConfig::with_backend(StorageBackend::SparseRe, 20));
        c.execute(Insn::QHad { a: q(0), k: 5 }, 0).unwrap();
        c.execute(Insn::QHad { a: q(1), k: 19 }, 0).unwrap();
        c.execute(Insn::QAnd { a: q(2), b: q(0), c: q(1) }, 0).unwrap();
        c.execute(Insn::QCcnot { a: q(2), b: q(0), c: q(1) }, 0).unwrap(); // clears
        c.execute(Insn::QOr { a: q(3), b: q(0), c: q(1) }, 0).unwrap();
        let d = Reg::new(1);
        assert_eq!(c.execute(Insn::QPop { d, a: q(2) }, 0).unwrap(), Some(0));
        // pop of H(5)|H(19) = 2^20 - 2^20/4 ... truncated to 16 bits.
        let pop = (1u64 << 20) - (1u64 << 18);
        assert_eq!(
            c.execute(Insn::QPop { d, a: q(3) }, 0).unwrap(),
            Some((pop & 0xFFFF) as u16)
        );
        assert_eq!(c.materializations(), 0);
    }
}
