//! The per-layer ledger: where one operation's host time goes.
//!
//! A program's Qat instruction stream is captured once from the
//! functional model (`Machine::peek`/`step`), together with the `$d`
//! input of every `meas`/`next`/`pop`. The stream is then replayed one
//! layer down at a time, and each rung is timed on a pre-built instance:
//!
//! * `pipe` — `Core::run_to_halt` on `pipeline-4-fw`;
//! * `func` — `Machine::run`;
//! * `qat`  — the stream into `QatCoprocessor::execute_run`/`execute`;
//! * `aob`  — the stream into `AobStorage::gate_run`/`apply_action` and
//!   the measurement family.
//!
//! A layer's self time is its rung minus the rung below it. Building and
//! dropping the machine and the register file are timed on their own, so
//! `alloc + pipe` should account for a whole operation; the difference is
//! the ledger's residual.

use std::time::Instant;

use pbp_aob::storage::{AobStorage, GateAction};
use pbp_aob::{ChunkStore, StorageBackend};
use qat_coproc::{backend_entry, gate_action, QatConfig, QatCoprocessor};
use tangled_isa::Insn;
use tangled_sim::{Machine, MachineConfig, SimError};

use crate::workloads::ProgramSpec;

/// Longest gate run the machine's fusion peephole hands to
/// `execute_run` (its `FUSE_WINDOW`).
const FUSE_WINDOW: usize = 32;

/// The register files every program is also replayed into, with the
/// names of their build and replay metrics.
pub const BACKENDS: [(StorageBackend, &str, &str); 4] = [
    (
        StorageBackend::Eager,
        "aob.eager.alloc_us",
        "aob.eager.replay_us",
    ),
    (
        StorageBackend::Interned,
        "aob.interned.alloc_us",
        "aob.interned.replay_us",
    ),
    (
        StorageBackend::Adaptive,
        "aob.adaptive.alloc_us",
        "aob.adaptive.replay_us",
    ),
    (
        StorageBackend::SparseRe,
        "pbp.sparse_re.alloc_us",
        "pbp.sparse_re.replay_us",
    ),
];

/// One Qat instruction of a captured stream, or a stretch of host
/// instructions between two of them (which ends a fused run).
#[derive(Clone, Copy, Debug)]
enum Step {
    Gate(Insn, GateAction),
    Read { insn: Insn, d_in: u16, out: u16 },
    Host,
}

/// A replay unit: a fused run, a single gate, or a measurement.
#[derive(Clone, Debug)]
enum Seg {
    Run(Vec<Insn>, Vec<GateAction>),
    Gate(Insn, GateAction),
    Read { insn: Insn, d_in: u16 },
}

/// A program's captured Qat stream and the machine that produced it.
struct Capture {
    steps: Vec<Step>,
    machine: Machine,
}

/// Run `words` on the functional model, recording every Qat instruction.
fn capture(words: &[u16], mcfg: MachineConfig) -> Result<Capture, SimError> {
    let mut m = Machine::with_image(mcfg, words);
    let mut steps = Vec::new();
    while !m.halted {
        let (insn, _) = m.peek()?;
        let d = match insn {
            Insn::QMeas { d, .. } | Insn::QNext { d, .. } | Insn::QPop { d, .. } => Some(d),
            _ => None,
        };
        let d_in = d.map(|d| m.reg(d));
        m.step()?;
        if let (Some(d), Some(d_in)) = (d, d_in) {
            steps.push(Step::Read {
                insn,
                d_in,
                out: m.reg(d),
            });
        } else if let Some(act) = gate_action(&insn) {
            steps.push(Step::Gate(insn, act));
        } else if !matches!(steps.last(), Some(Step::Host)) {
            steps.push(Step::Host);
        }
    }
    Ok(Capture { steps, machine: m })
}

impl Capture {
    /// The `$d` results of the stream's measurements, in order.
    fn outputs(&self) -> Vec<u16> {
        self.steps
            .iter()
            .filter_map(|s| match s {
                Step::Read { out, .. } => Some(*out),
                Step::Gate(..) | Step::Host => None,
            })
            .collect()
    }

    /// Split the stream the way the machine does: with fusion active,
    /// gates with no other instruction between them form runs of at most
    /// [`FUSE_WINDOW`] and a run of one goes through `execute`; without it
    /// every gate is its own step.
    fn segments(&self, fuse: bool) -> Vec<Seg> {
        let mut segs = Vec::new();
        let mut run: Vec<(Insn, GateAction)> = Vec::new();
        let flush = |run: &mut Vec<(Insn, GateAction)>, segs: &mut Vec<Seg>| {
            if run.len() >= 2 {
                segs.push(Seg::Run(
                    run.iter().map(|g| g.0).collect(),
                    run.iter().map(|g| g.1).collect(),
                ));
            } else if let Some(&(insn, act)) = run.first() {
                segs.push(Seg::Gate(insn, act));
            }
            run.clear();
        };
        for s in &self.steps {
            match *s {
                Step::Gate(insn, act) if fuse => {
                    run.push((insn, act));
                    if run.len() == FUSE_WINDOW {
                        flush(&mut run, &mut segs);
                    }
                }
                Step::Gate(insn, act) => segs.push(Seg::Gate(insn, act)),
                Step::Read { insn, d_in, .. } => {
                    flush(&mut run, &mut segs);
                    segs.push(Seg::Read { insn, d_in });
                }
                Step::Host => flush(&mut run, &mut segs),
            }
        }
        flush(&mut run, &mut segs);
        segs
    }
}

/// `(runs, gates in runs)` of a segment list.
#[cfg(test)]
fn run_split(segs: &[Seg]) -> (u64, u64) {
    segs.iter().fold((0, 0), |(r, g), s| match s {
        Seg::Run(insns, _) => (r + 1, g + insns.len() as u64),
        _ => (r, g),
    })
}

/// Replay into the coprocessor; returns the measurements' `$d` results.
fn replay_qat(segs: &[Seg], q: &mut QatCoprocessor) -> Vec<u16> {
    const OK: &str = "a captured stream replays without faults";
    let mut out = Vec::new();
    for s in segs {
        match s {
            Seg::Run(insns, _) => q.execute_run(insns).expect(OK),
            Seg::Gate(insn, _) => {
                q.execute(*insn, 0).expect(OK);
            }
            Seg::Read { insn, d_in } => {
                out.push(
                    q.execute(*insn, *d_in)
                        .expect(OK)
                        .expect("measurements return $d"),
                );
            }
        }
    }
    out
}

/// Replay into a register file directly; returns the measurements' `$d`
/// results, folded to 16 bits the way the coprocessor folds them.
fn replay_storage(segs: &[Seg], f: &mut dyn AobStorage) -> Vec<u16> {
    let mut out = Vec::new();
    for s in segs {
        match s {
            Seg::Run(_, acts) => {
                f.gate_run(acts, false);
            }
            Seg::Gate(_, act) => {
                f.apply_action(*act, false);
            }
            Seg::Read { insn, d_in } => {
                let e = u64::from(*d_in);
                out.push(match *insn {
                    Insn::QMeas { a, .. } => f.meas(a.0 as usize, e) as u16,
                    Insn::QNext { a, .. } => f.next(a.0 as usize, e).map_or(0, |x| x as u16),
                    Insn::QPop { a, .. } => (f.pop_after(a.0 as usize, e) & 0xFFFF) as u16,
                    _ => unreachable!("only measurements are captured as reads"),
                });
            }
        }
    }
    out
}

/// A register-file configuration with its replay stream.
struct Target {
    cfg: QatConfig,
    segs: Vec<Seg>,
    outs: Vec<u16>,
}

impl Target {
    /// Capture `spec`'s program on `cfg` and split it for that backend.
    fn new(spec: &ProgramSpec, cfg: QatConfig) -> Target {
        let cap = capture(
            &spec.words,
            MachineConfig {
                qat: cfg,
                ..spec.mcfg
            },
        )
        .expect("a benchmark program runs without faults");
        let segs = cap.segments(cap.machine.qat.fusion_active());
        Target {
            cfg,
            segs,
            outs: cap.outputs(),
        }
    }

    fn build(&self) -> Box<dyn AobStorage> {
        backend_entry(self.cfg.backend).build(&self.cfg)
    }

    /// A fresh file with the stream replayed into it.
    fn replayed(&self) -> Box<dyn AobStorage> {
        let mut f = self.build();
        replay_storage(&self.segs, f.as_mut());
        f
    }
}

/// The configuration `backend` runs a program of `cfg.ways` at: the same
/// degree, capped at the backend's largest.
fn capped(cfg: QatConfig, backend: StorageBackend) -> QatConfig {
    let ways = cfg.ways.min(backend_entry(backend).max_ways);
    QatConfig {
        backend,
        ways,
        warm: None,
        ..cfg
    }
}

/// One program prepared for timing: its captured streams on the
/// workload's backend and on each of [`BACKENDS`], plus a chunk-store
/// snapshot of the run for the warm-start rung.
pub struct Rig {
    pub spec: ProgramSpec,
    main: Target,
    backends: Vec<Target>,
    snapshot: Vec<u8>,
    warm: Target,
}

impl Rig {
    pub fn new(spec: ProgramSpec) -> Rig {
        let main = Target::new(&spec, spec.mcfg.qat);
        let backends: Vec<Target> = BACKENDS
            .iter()
            .map(|&(b, ..)| Target::new(&spec, capped(spec.mcfg.qat, b)))
            .collect();
        // The snapshot comes from the interned file (at its capped degree),
        // the one backend whose chunk store the public API exposes, so the
        // rung exists whatever the default backend is.
        let cold = backends
            .iter()
            .find(|t| t.cfg.backend == StorageBackend::Interned)
            .expect("interned is a ledger backend");
        let snapshot = cold
            .replayed()
            .chunk_store()
            .expect("interning backends keep a chunk store")
            .to_bytes();
        let id = pbp_aob::warm::register(
            ChunkStore::from_bytes(&snapshot).expect("a fresh snapshot loads"),
        );
        let warm = Target {
            cfg: QatConfig {
                warm: Some(id),
                ..cold.cfg
            },
            segs: cold.segs.clone(),
            outs: cold.outs.clone(),
        };
        Rig {
            spec,
            main,
            backends,
            snapshot,
            warm,
        }
    }
}

/// Host time of one repetition of every rung, in microseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rep {
    /// A whole operation: build, run, check, drop.
    pub op: f64,
    /// `Machine::with_image` + drop.
    pub alloc_machine: f64,
    /// The workload's register file: build + drop.
    pub alloc_file: f64,
    pub pipe: f64,
    pub func: f64,
    pub qat: f64,
    pub aob: f64,
    /// `(build + drop, replay)` per entry of [`BACKENDS`].
    pub backends: [(f64, f64); 4],
    /// `ChunkStore::from_bytes` of the snapshot.
    pub store_load: f64,
    /// Replay into a file attached to the warm snapshot.
    pub store_warm: f64,
}

impl Rep {
    /// Accumulate another program's repetition.
    pub fn add(&mut self, r: &Rep) {
        self.op += r.op;
        self.alloc_machine += r.alloc_machine;
        self.alloc_file += r.alloc_file;
        self.pipe += r.pipe;
        self.func += r.func;
        self.qat += r.qat;
        self.aob += r.aob;
        for (s, b) in self.backends.iter_mut().zip(r.backends) {
            s.0 += b.0;
            s.1 += b.1;
        }
        self.store_load += r.store_load;
        self.store_warm += r.store_warm;
    }
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, us(t))
}

/// Time every rung once, interleaved; the whole operation and the four
/// rungs run in an order rotated by `rot`, so no rung always pays for
/// following the same neighbour. Returns the times and whether every rung
/// reproduced the captured results.
pub fn measure_rep(rig: &Rig, rot: usize) -> (Rep, bool) {
    let spec = &rig.spec;
    let main = &rig.main;
    let mut rep = Rep::default();
    let mut ok = true;

    let op = || {
        let (o, t) = timed(|| spec.run_op());
        (t, o.ok)
    };
    let pipe = || {
        let mut core = spec.core();
        let (fault, t) = timed(|| core.run_to_halt());
        (t, spec.check(core.as_ref(), fault).ok)
    };
    let func = || {
        let mut m = Machine::with_image(spec.mcfg, &spec.words);
        let (r, t) = timed(|| m.run());
        (
            t,
            r.is_ok() && spec.expect.regs.iter().all(|&(i, v)| m.regs[i] == v),
        )
    };
    let qat = || {
        let mut q = QatCoprocessor::new(main.cfg);
        let (outs, t) = timed(|| replay_qat(&main.segs, &mut q));
        (t, outs == main.outs)
    };
    let aob = || {
        let mut f = main.build();
        let (outs, t) = timed(|| replay_storage(&main.segs, f.as_mut()));
        (t, outs == main.outs)
    };
    let rungs: [&dyn Fn() -> (f64, bool); 5] = [&op, &pipe, &func, &qat, &aob];
    let mut times = [0.0; 5];
    for k in 0..rungs.len() {
        let i = (k + rot) % rungs.len();
        let (t, good) = rungs[i]();
        times[i] = t;
        ok &= good;
    }
    [rep.op, rep.pipe, rep.func, rep.qat, rep.aob] = times;

    rep.alloc_machine = timed(|| drop(Machine::with_image(spec.mcfg, &spec.words))).1;
    rep.alloc_file = timed(|| drop(main.build())).1;

    for (slot, target) in rep.backends.iter_mut().zip(&rig.backends) {
        slot.0 = timed(|| drop(target.build())).1;
        let mut f = target.build();
        let (outs, t) = timed(|| replay_storage(&target.segs, f.as_mut()));
        slot.1 = t;
        ok &= outs == target.outs;
    }

    let (store, t) = timed(|| ChunkStore::from_bytes(&rig.snapshot));
    rep.store_load = t;
    ok &= store.is_ok();
    drop(store);
    let mut f = rig.warm.build();
    let (outs, t) = timed(|| replay_storage(&rig.warm.segs, f.as_mut()));
    rep.store_warm = t;
    ok &= outs == rig.warm.outs;

    (rep, ok)
}

/// Packed-RLE footprint `(packed words, flat words, repeats)` of a
/// program's stream replayed into the sparse-re file.
pub fn packed_footprint(rig: &Rig) -> (u64, u64, u64) {
    let t = rig
        .backends
        .iter()
        .find(|t| t.cfg.backend == StorageBackend::SparseRe)
        .expect("sparse-re is a ledger backend");
    let s = t
        .replayed()
        .packed_stats()
        .expect("sparse-re stores packed registers");
    (s.packed_words, s.flat_words, s.repeats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use tangled_isa::QReg;

    /// The captured stream replayed into the coprocessor and into the
    /// default register file ends in the machine's state, and splits into
    /// exactly the fused runs the machine's counters record. Without this
    /// the ledger's rungs would measure different work.
    #[test]
    fn replay_reproduces_the_machine_run() {
        for w in [Workload::Factor221, Workload::GateReuse] {
            let spec = w.program().unwrap();
            let cap = capture(&spec.words, spec.mcfg).unwrap();
            let segs = cap.segments(cap.machine.qat.fusion_active());

            let mut q = QatCoprocessor::new(spec.mcfg.qat);
            assert_eq!(replay_qat(&segs, &mut q), cap.outputs(), "{}", w.name());
            let mut f = backend_entry(spec.mcfg.qat.backend).build(&spec.mcfg.qat);
            assert_eq!(
                replay_storage(&segs, f.as_mut()),
                cap.outputs(),
                "{}",
                w.name()
            );
            for r in 0..=255u8 {
                let want = cap.machine.qat.reg(QReg(r));
                assert_eq!(q.reg(QReg(r)), want, "{} qat @{r}", w.name());
                assert_eq!(f.read(r as usize), want, "{} storage @{r}", w.name());
            }

            tangled_telemetry::set_mode(tangled_telemetry::Mode::Counters);
            let (_, snap) = tangled_telemetry::scoped(|| {
                let mut m = Machine::with_image(spec.mcfg, &spec.words);
                m.run().unwrap();
            });
            tangled_telemetry::set_mode(tangled_telemetry::Mode::Off);
            let (runs, gates) = run_split(&segs);
            assert!(runs > 0, "{} fuses", w.name());
            assert_eq!(runs, snap.get("qat.fused.runs"), "{}", w.name());
            assert_eq!(gates, snap.get("qat.fused.gates"), "{}", w.name());
        }
    }
}
