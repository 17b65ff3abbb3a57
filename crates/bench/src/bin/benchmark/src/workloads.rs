//! The four workloads: what one operation is, how it is set up, and how
//! its output is checked.
//!
//! Three workloads run one assembled program per operation on
//! `pipeline-4-fw` with the default [`qat_coproc::QatConfig`] — the model and
//! backend `tangled run` uses when given no flags — so a change of
//! default shows up here without the benchmark naming a backend. The
//! fourth runs `qat-fuzz`-style `Generate` jobs through a serve [`Pool`].

use std::collections::HashMap;
use std::time::{Duration, Instant};

use qat_coproc::StorageBackend;
use tangled_serve::{JobKind, JobResult, JobSpec, Pool, ServeConfig};
use tangled_sim::difftest::DiffConfig;
use tangled_sim::proggen::{encode_program, random_program, Profile, ProgGenOptions};
use tangled_sim::{Core, Machine, MachineConfig, ModelEntry};

use crate::report::{quiet, Bucket, Quiet};

/// Seed used when `--seed` is not given (the first seed of a default
/// `qat-fuzz` campaign).
pub const DEFAULT_SEED: u64 = 1;

/// Iterations of the gate block in the `gate-reuse` program.
const GATE_REUSE_ITERS: u32 = 2000;

/// Final `$7` of the `gate-reuse` program: the sum of its 2,000 `pop`
/// reads, as the functional model computed it when this benchmark was added.
pub const GATE_REUSE_CHECKSUM: u16 = 0x2890;

/// Worker threads of the serve pool, and jobs kept outstanding in it.
pub const POOL_WORKERS: usize = 2;
const POOL_OUTSTANDING: usize = 4;
/// `qat-fuzz` defaults: body length, qsim/PBP cross-check cadence, and the
/// 200-seed default campaign from seed 1 that `sim_cpi` is computed over.
const CAMPAIGN_LEN: usize = 60;
const CAMPAIGN_CROSS_EVERY: u64 = 10;
const CAMPAIGN_CPI_SEEDS: std::ops::RangeInclusive<u64> = 1..=200;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    Factor221,
    GateReuse,
    Sparse32,
    Campaign,
}

impl Workload {
    /// Every workload, in the order children rotate through them.
    pub const ALL: [Workload; 4] = [
        Workload::Factor221,
        Workload::GateReuse,
        Workload::Sparse32,
        Workload::Campaign,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Factor221 => "factor221",
            Workload::GateReuse => "gate-reuse",
            Workload::Sparse32 => "sparse32",
            Workload::Campaign => "campaign",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The program workload behind this name (`None` for `campaign`).
    pub fn program(self) -> Option<ProgramSpec> {
        let (src, ways, backend) = match self {
            Workload::Factor221 => (tangled_bench::factor221_asm(), 16, None),
            Workload::GateReuse => (gate_reuse_asm(), 16, None),
            Workload::Sparse32 => (
                tangled_bench::factor221_asm(),
                32,
                Some(StorageBackend::SparseRe),
            ),
            Workload::Campaign => return None,
        };
        let words = tangled_bench::assemble(&src);
        let mut mcfg = MachineConfig::default();
        mcfg.qat.ways = ways;
        if let Some(b) = backend {
            mcfg.qat.backend = b;
        }
        // Pinned when this benchmark was added: the timing model's cycles and the
        // retired instructions of one run.
        let (regs, (cycles, insns)) = match self {
            Workload::Factor221 | Workload::Sparse32 => (vec![(0, 17), (1, 13)], (709, 371)),
            _ => (vec![(7, GATE_REUSE_CHECKSUM)], (40_014, 24_013)),
        };
        Some(ProgramSpec {
            words,
            mcfg,
            expect: Expect {
                regs,
                cycles,
                insns,
                no_materialize: self == Workload::Sparse32,
            },
        })
    }
}

/// The interning bench's 7-gate block as a Tangled loop. Eight `had`
/// inits, then per iteration: the block, a `next` whose result feeds a
/// `pop` (reading two of the block's destinations), the `pop` count added
/// into the `$7` checksum, and a counted branch — 12 instructions.
fn gate_reuse_asm() -> String {
    let mut src = String::new();
    for k in 0..8 {
        src.push_str(&format!("had @{},{k}\n", 2 + k));
    }
    src.push_str(&format!("li $5,{GATE_REUSE_ITERS}\nlex $6,-1\nlex $7,0\n"));
    src.push_str(
        "loop: and @10,@2,@3\nxor @11,@4,@5\nor @12,@6,@7\ncnot @13,@8\n\
         ccnot @14,@2,@5\nnot @12\ncswap @15,@16,@2\n\
         next $1,@14\npop $1,@11\nadd $7,$1\nadd $5,$6\nbrt $5,loop\nsys\n",
    );
    src
}

/// What a program run must produce.
#[derive(Clone, Debug)]
pub struct Expect {
    /// `(register, value)` pairs the halted machine must hold.
    pub regs: Vec<(usize, u16)>,
    /// Simulated `pipeline-4-fw` cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub insns: u64,
    /// The register file must never expand a register to its explicit
    /// `2^ways`-bit form.
    pub no_materialize: bool,
}

/// One program workload: an image, the machine it runs on, and the
/// expected outcome.
#[derive(Clone, Debug)]
pub struct ProgramSpec {
    pub words: Vec<u16>,
    pub mcfg: MachineConfig,
    pub expect: Expect,
}

/// The outcome of one checked operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpOutcome {
    pub ok: bool,
    /// Reference-model instructions retired by the operation.
    pub insns: u64,
    /// Simulated `pipeline-4-fw` cycles (0 where the op reports none).
    pub cycles: u64,
}

pub fn pipeline_model() -> &'static ModelEntry {
    tangled_sim::model("pipeline-4-fw").expect("pipeline-4-fw is registered")
}

impl ProgramSpec {
    /// A program whose expected outcome is whatever one `pipeline-4-fw`
    /// run produces (`None` if that run faults).
    pub fn from_reference(words: Vec<u16>, mcfg: MachineConfig) -> Option<ProgramSpec> {
        let mut core = pipeline_model().build(Machine::with_image(mcfg, &words));
        if core.run_to_halt().is_some() {
            return None;
        }
        let m = core.machine();
        let expect = Expect {
            regs: m.regs.iter().copied().enumerate().collect(),
            cycles: core.cycles().unwrap_or(0),
            insns: m.steps,
            no_materialize: false,
        };
        Some(ProgramSpec {
            words,
            mcfg,
            expect,
        })
    }

    /// A fresh `pipeline-4-fw` core with the image loaded.
    pub fn core(&self) -> Box<dyn Core> {
        pipeline_model().build(Machine::with_image(self.mcfg, &self.words))
    }

    /// Does a finished core hold the expected outcome?
    pub fn check(&self, core: &dyn Core, fault: Option<tangled_sim::SimError>) -> OpOutcome {
        let m = core.machine();
        let cycles = core.cycles().unwrap_or(0);
        let e = &self.expect;
        let ok = fault.is_none()
            && m.halted
            && e.regs.iter().all(|&(r, v)| m.regs[r] == v)
            && cycles == e.cycles
            && m.steps == e.insns
            && (!e.no_materialize || m.qat.materializations() == 0);
        OpOutcome {
            ok,
            insns: m.steps,
            cycles,
        }
    }

    /// One operation: build the core, run it to halt, check, drop.
    pub fn run_op(&self) -> OpOutcome {
        let mut core = self.core();
        let fault = core.run_to_halt();
        self.check(core.as_ref(), fault)
    }
}

/// The `campaign` workload's job stream: `qat-fuzz` defaults over the
/// default oracle configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct CampaignSpec {
    pub cfg: DiffConfig,
}

impl CampaignSpec {
    /// Whether a seed's job also runs the qsim and PBP cross-checks.
    pub fn crosscheck(seed: u64) -> bool {
        seed.is_multiple_of(CAMPAIGN_CROSS_EVERY)
    }

    pub fn job(&self, seed: u64) -> JobSpec {
        JobSpec::new(
            JobKind::Generate {
                seed,
                profile: None,
                len: CAMPAIGN_LEN,
                crosscheck: Self::crosscheck(seed),
            },
            self.cfg,
        )
    }

    /// The job stream from `seed` on, one seed per job.
    pub fn jobs(self, seed: u64) -> impl FnMut() -> JobSpec {
        let mut next = seed;
        move || {
            next += 1;
            self.job(next - 1)
        }
    }

    /// The generator options a `Generate` job uses for `seed` (profiles
    /// round-robin on the seed).
    pub fn gen_options(&self, seed: u64) -> ProgGenOptions {
        let profiles = Profile::all();
        ProgGenOptions {
            len: CAMPAIGN_LEN,
            ways: self.cfg.ways,
            profile: profiles[(seed % profiles.len() as u64) as usize],
            ..Default::default()
        }
    }

    /// The program a job generates for `seed`.
    pub fn program(&self, seed: u64) -> Vec<u16> {
        encode_program(&random_program(seed, &self.gen_options(seed)))
    }

    /// `(cycles, insns)` of `pipeline-4-fw` over the programs of the
    /// default 200-seed `qat-fuzz` campaign — a property of the code,
    /// independent of `--seed`.
    pub fn cpi_calibration(&self) -> (u64, u64) {
        let (mut cycles, mut insns) = (0, 0);
        for seed in CAMPAIGN_CPI_SEEDS {
            let words = self.program(seed);
            let mut core =
                pipeline_model().build(Machine::with_image(self.cfg.machine_config(), &words));
            core.run_to_halt();
            cycles += core.cycles().unwrap_or(0);
            insns += core.machine().steps;
        }
        (cycles, insns)
    }
}

/// `(cycles, insns)` the calibration campaign produced when this
/// benchmark was added; [`CampaignSpec::cpi_calibration`] must reproduce it.
pub const CAMPAIGN_CPI: (u64, u64) = (21_394, 17_309);

/// The serve pool jobs run through: [`POOL_WORKERS`] workers, at most
/// [`POOL_OUTSTANDING`] jobs accepted at a time.
pub fn serve_pool() -> Pool {
    Pool::new(ServeConfig {
        workers: POOL_WORKERS,
        queue_cap: POOL_OUTSTANDING,
        ..Default::default()
    })
}

/// Is one job result a clean outcome? A `JobError`, a finding, a missing
/// outcome or a fault all count as a failure.
pub fn check_job(r: &JobResult) -> OpOutcome {
    match &r.result {
        Ok(out) => match &out.outcome {
            Some(o) if out.findings.is_empty() && o.fault.is_none() && o.halted => OpOutcome {
                ok: true,
                insns: o.steps,
                cycles: 0,
            },
            _ => OpOutcome::default(),
        },
        Err(_) => OpOutcome::default(),
    }
}

/// Length of the stretches a timed window is cut into. Interference from
/// outside the process comes and goes over seconds; per-stretch figures
/// let the report leave out the stretches it slowed (see [`Bucket`]).
const BUCKET: Duration = Duration::from_millis(500);

/// Checked operations of one timed loop.
#[derive(Clone, Debug, Default)]
pub struct LoopStats {
    /// Operations completed inside the timed window.
    pub ops: u64,
    /// Every operation checked, warm-up and drain included.
    pub attempted: u64,
    pub failed: u64,
    pub insns: u64,
    pub cycles: u64,
    /// The timed window, cut into [`BUCKET`]-long stretches.
    pub buckets: Vec<Bucket>,
    /// Start of the open bucket.
    open: Option<Instant>,
}

impl LoopStats {
    fn note(&mut self, o: OpOutcome) {
        self.attempted += 1;
        if !o.ok {
            self.failed += 1;
        }
    }

    fn start(&mut self, t0: Instant) {
        self.open = Some(t0);
        self.buckets.push(Bucket::default());
    }

    fn note_timed(&mut self, o: OpOutcome, lat: Duration, now: Instant) {
        self.ops += 1;
        self.insns += o.insns;
        self.cycles += o.cycles;
        let (Some(start), Some(b)) = (self.open, self.buckets.last_mut()) else {
            return;
        };
        b.insns += o.insns;
        b.lat_ns.push(lat.as_nanos() as u64);
        b.secs = (now - start).as_secs_f64();
        if b.secs >= BUCKET.as_secs_f64() {
            self.start(now);
        }
    }

    /// Close the window at `end`: a last stretch shorter than half a
    /// bucket is dropped unless it is the only one.
    fn finish(&mut self, end: Instant) {
        if let (Some(start), Some(b)) = (self.open.take(), self.buckets.last_mut()) {
            b.secs = (end - start).as_secs_f64();
        }
        let short = |b: &Bucket| b.lat_ns.is_empty() || b.secs < BUCKET.as_secs_f64() / 2.0;
        if self.buckets.len() > 1 && self.buckets.last().is_some_and(short) {
            self.buckets.pop();
        }
    }

    /// The loop in its quiet stretches (see [`quiet`]).
    pub fn quiet(&self) -> Quiet {
        quiet(&self.buckets)
    }

    pub fn ops_per_s(&self) -> f64 {
        self.quiet().ops_per_s
    }
}

/// A closed loop of one client: warm up, then run and check `op` until
/// the timed window ends (at least one timed operation). With `setup`,
/// each stretch is preceded by one timed set-up repetition, which the
/// stretch's clock does not count.
pub fn closed_loop(
    mut op: impl FnMut() -> OpOutcome,
    setup: Option<&dyn Fn()>,
    warmup: Duration,
    timed: Duration,
) -> LoopStats {
    let mut st = LoopStats::default();
    let t = Instant::now();
    while t.elapsed() < warmup {
        st.note(op());
    }
    let t0 = Instant::now();
    st.start(t0);
    loop {
        if let (Some(setup), Some(b)) = (setup, st.buckets.last_mut()) {
            if b.lat_ns.is_empty() && b.setup_s.is_empty() {
                let s = Instant::now();
                setup();
                b.setup_s.push(s.elapsed().as_secs_f64());
                st.open = Some(Instant::now());
            }
        }
        let s = Instant::now();
        let o = op();
        let end = Instant::now();
        st.note(o);
        st.note_timed(o, end - s, end);
        if end - t0 >= timed {
            st.finish(end);
            return st;
        }
    }
}

/// A closed loop of [`POOL_OUTSTANDING`] clients over `pool`: each
/// completed job is replaced by the next one. Latency runs from submit to
/// result; results arriving inside the timed window are timed, and the
/// window stays open until at least one has. Jobs still in flight when it
/// closes are drained and checked, not timed.
pub fn pool_loop(
    pool: &Pool,
    mut job: impl FnMut() -> JobSpec,
    check: impl Fn(&JobResult) -> OpOutcome,
    warmup: Duration,
    timed: Duration,
) -> LoopStats {
    let mut st = LoopStats::default();
    let mut sent: HashMap<u64, Instant> = HashMap::new();
    let mut submit = |sent: &mut HashMap<u64, Instant>| {
        let id = pool.submit(job()).expect("the benchmark's pool is open");
        sent.insert(id, Instant::now());
    };
    let t0 = Instant::now() + warmup;
    let mut t1 = t0 + timed;
    st.start(t0);
    for _ in 0..POOL_OUTSTANDING {
        submit(&mut sent);
    }
    while !sent.is_empty() {
        let r = pool
            .recv_timeout(Duration::from_secs(60))
            .expect("a job result within 60 s");
        let now = Instant::now();
        let lat = now - sent.remove(&r.id).expect("result for a submitted job");
        let o = check(&r);
        st.note(o);
        if now >= t0 && (now < t1 || st.ops == 0) {
            st.note_timed(o, lat, now);
            t1 = t1.max(now);
        }
        if now < t1 || st.ops == 0 {
            submit(&mut sent);
        }
    }
    st.finish(t1);
    st
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::WorkloadResult;

    /// The golden checksum comes from the functional model, and every
    /// 16-way register file reproduces it along with the pinned CPI.
    #[test]
    fn gate_reuse_checksum_is_the_same_on_every_16_way_backend() {
        let spec = Workload::GateReuse.program().unwrap();
        let mut m = Machine::with_image(spec.mcfg, &spec.words);
        m.run().unwrap();
        assert_eq!((m.regs[7], m.steps), (GATE_REUSE_CHECKSUM, 24_013));
        for b in [
            StorageBackend::Eager,
            StorageBackend::Interned,
            StorageBackend::Adaptive,
        ] {
            let mut s = spec.clone();
            s.mcfg.qat.backend = b;
            assert!(s.run_op().ok, "{b}");
        }
    }

    #[test]
    fn a_wrong_expected_value_fails_every_operation() {
        let mut spec = Workload::Factor221.program().unwrap();
        spec.expect.regs[0].1 += 1;
        let st = closed_loop(
            || spec.run_op(),
            None,
            Duration::ZERO,
            Duration::from_millis(1),
        );
        let r = WorkloadResult {
            backend: spec.mcfg.qat.backend.name().into(),
            attempted: st.attempted,
            failed: st.failed,
            metrics: Vec::new(),
            tail: None,
        };
        assert!(r.attempted >= 1);
        assert_eq!(r.failed_frac(), 1.0);
        assert!(!r.correct());
    }
}
