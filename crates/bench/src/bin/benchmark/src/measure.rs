//! What one child process measures: an untraced run for the end-to-end
//! metrics, or a traced run for the per-layer ledger.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use qat_coproc::backend_registry;
use tangled_bench::json::Json;
use tangled_serve::{run_model_once, JobKind, JobResult, JobSpec};
use tangled_sim::difftest::{
    diff_outcomes, pbp_crosscheck, qsim_crosscheck, run_functional, run_model, DiffConfig, Outcome,
};
use tangled_sim::proggen::{
    encode_program, random_program, random_qat_only_program, random_reversible_qat_program,
};
use tangled_sim::{Coverage, ModelRole};
use tangled_telemetry::{self as telemetry, Mode, Snapshot};

use crate::ledger::{self, Rig, BACKENDS};
use crate::report::{median, percentile, Bucket};
use crate::workloads::{
    check_job, closed_loop, pipeline_model, pool_loop, serve_pool, CampaignSpec, LoopStats,
    OpOutcome, ProgramSpec, Workload, CAMPAIGN_CPI, POOL_WORKERS,
};

/// Pool set-up repetitions per `campaign` child.
const SETUP_REPS: usize = 21;
/// Generated programs the `campaign` ledger replays.
const CAMPAIGN_LEDGER_PROGRAMS: u64 = 20;
/// Fewest ledger repetitions a traced child makes.
const MIN_REPS: usize = 3;

/// Counters of this process from `/proc/self/stat`.
#[derive(Clone, Copy, Debug, Default)]
struct ProcStat {
    minflt: u64,
    utime: u64,
    stime: u64,
}

fn proc_stat() -> ProcStat {
    let s = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = s.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    let field = |n: usize| f.get(n - 3).copied().unwrap_or(0);
    ProcStat {
        minflt: field(10),
        utime: field(14),
        stime: field(15),
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let s = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    s.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Time [`SETUP_REPS`] starts and shutdowns of the serve pool, before
/// the pool that carries the load exists.
fn pool_setup_times() -> Vec<f64> {
    (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            drop(serve_pool().shutdown());
            secs(t)
        })
        .collect()
}

fn backend_name(w: Workload) -> &'static str {
    match w.program() {
        Some(spec) => spec.mcfg.qat.backend.name(),
        None => CampaignSpec::default().cfg.backend.name(),
    }
}

/// Untraced child: a warm-up and a timed closed loop. A program
/// workload's set-up (compile and assemble) is timed once before each
/// stretch; `campaign`'s (start and shut down the pool) at the start.
pub fn untraced(w: Workload, seed: u64, warmup: Duration, window: Duration) -> Json {
    let mut setup = Vec::new();
    let (st, cpi) = match w.program() {
        Some(spec) => {
            let compile = || drop(std::hint::black_box(w.program()));
            let st = closed_loop(|| spec.run_op(), Some(&compile), warmup, window);
            let cpi = st.cycles as f64 / st.insns as f64;
            (st, cpi)
        }
        None => {
            setup = pool_setup_times();
            let c = CampaignSpec::default();
            let (cycles, insns) = c.cpi_calibration();
            let pool = serve_pool();
            let mut st = pool_loop(&pool, c.jobs(seed), check_job, warmup, window);
            // The calibration campaign counts as one more checked operation.
            st.attempted += 1;
            st.failed += u64::from((cycles, insns) != CAMPAIGN_CPI);
            (st, cycles as f64 / insns as f64)
        }
    };
    Json::obj([
        ("backend", backend_name(w).into()),
        ("attempted", st.attempted.into()),
        ("failed", st.failed.into()),
        (
            "buckets",
            Json::Arr(st.buckets.iter().map(Bucket::to_json).collect()),
        ),
        ("cpi", cpi.into()),
        ("setup_s", setup.into()),
        ("rss_mb", peak_rss_mb().into()),
    ])
}

/// Checked-operation totals of a traced child.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, st: &LoopStats) {
        self.attempted += st.attempted;
        self.failed += st.failed;
    }

    fn note(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// The workload's own closed loop, untraced and then with counters on:
/// `(untraced, counted, proc counters over the untraced loop)`.
fn loops_off_and_counted(
    mut run: impl FnMut(Duration, Duration) -> LoopStats,
    warmup: Duration,
    phase: Duration,
) -> (LoopStats, LoopStats, ProcStat) {
    let p0 = proc_stat();
    let off = run(warmup, phase);
    let p1 = proc_stat();
    telemetry::reset();
    telemetry::set_mode(Mode::Counters);
    let counted = run(Duration::ZERO, phase);
    telemetry::set_mode(Mode::Off);
    let d = ProcStat {
        minflt: p1.minflt - p0.minflt,
        utime: p1.utime - p0.utime,
        stime: p1.stime - p0.stime,
    };
    (off, counted, d)
}

/// Repetitions of every rung, each summed over a workload's programs;
/// they continue until `budget` is spent.
fn ladder(rigs: &[Rig], budget: Duration, tally: &mut Tally) -> Vec<ledger::Rep> {
    let mut reps: Vec<ledger::Rep> = Vec::new();
    let t = Instant::now();
    while reps.len() < MIN_REPS || t.elapsed() < budget {
        let mut sum = ledger::Rep::default();
        for rig in rigs {
            let (r, ok) = ledger::measure_rep(rig, reps.len());
            tally.note(ok);
            sum.add(&r);
        }
        reps.push(sum);
    }
    reps
}

/// Median over repetitions of one quantity. Self times are medians of
/// the per-repetition differences: adjacent rungs share whatever
/// interference hit that repetition, so the difference cancels it.
fn med(reps: &[ledger::Rep], f: impl Fn(&ledger::Rep) -> f64) -> f64 {
    median(&mut reps.iter().map(f).collect::<Vec<_>>())
}

/// Per-program counts from one counters-mode run of each program.
fn counts(rigs: &[Rig], tally: &mut Tally) -> BTreeMap<&'static str, f64> {
    const GATES: [&str; 11] = [
        "qzero", "qone", "qnot", "qhad", "qand", "qor", "qxor", "qcnot", "qccnot", "qswap",
        "qcswap",
    ];
    const READS: [&str; 3] = ["qmeas", "qnext", "qpop"];
    let (mut snap, mut hits, mut misses, mut chunks) = (Snapshot::default(), 0, 0, 0);
    let (mut promotions, mut demotions, mut materializations) = (0, 0, 0);
    let (mut packed, mut flat, mut repeats) = (0, 0, 0);
    for rig in rigs {
        telemetry::set_mode(Mode::Counters);
        let ((core, fault), s) = telemetry::scoped(|| {
            let mut core = rig.spec.core();
            let fault = core.run_to_halt();
            (core, fault)
        });
        telemetry::set_mode(Mode::Off);
        tally.note(rig.spec.check(core.as_ref(), fault).ok);
        snap.merge_from(&s);
        let q = &core.machine().qat;
        if let Some(st) = q.intern_stats() {
            hits += st.hits;
            misses += st.misses;
            chunks += st.chunks;
        }
        if let Some(st) = q.adaptive_stats() {
            promotions += st.promotions;
            demotions += st.demotions;
        }
        materializations += q.materializations();
        let (p, f, r) = ledger::packed_footprint(rig);
        packed += p;
        flat += f;
        repeats += r;
    }
    let n = rigs.len() as f64;
    let sum = |names: &[&str]| {
        names
            .iter()
            .map(|k| snap.get(&format!("qat.gate.{k}")))
            .sum::<u64>() as f64
    };
    let (gates, runs, fused) = (
        sum(&GATES),
        snap.get("qat.fused.runs") as f64,
        snap.get("qat.fused.gates") as f64,
    );
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    BTreeMap::from([
        ("tangled.insns_per_op", snap.get("tangled.insns") as f64 / n),
        ("tangled.fusion.runs_per_op", runs / n),
        ("tangled.fusion.gates_per_run", ratio(fused, runs)),
        ("tangled.fusion.coverage", ratio(fused, gates)),
        ("qat.gates_per_op", gates / n),
        ("qat.reads_per_op", sum(&READS) / n),
        (
            "aob.intern.hit_rate",
            ratio(hits as f64, (hits + misses) as f64),
        ),
        ("aob.intern.misses_per_op", misses as f64 / n),
        ("aob.intern.chunks", chunks as f64 / n),
        ("aob.adaptive.promotions", promotions as f64 / n),
        ("aob.adaptive.demotions", demotions as f64 / n),
        ("aob.materializations", materializations as f64 / n),
        ("pbp.packed.words", packed as f64 / n),
        ("pbp.packed.ratio", ratio(flat as f64, packed as f64)),
        ("pbp.packed.repeats", repeats as f64 / n),
    ])
}

/// Host time of the public calls one `Generate` job makes, split by
/// layer: `[proggen, reference, timing models, backend oracles, qsim
/// cross-check, PBP cross-check]` and the whole job, in microseconds.
fn job_split(c: &CampaignSpec, seed: u64) -> ([f64; 6], f64, bool) {
    let us = |t: Instant| secs(t) * 1e6;
    let cfg: DiffConfig = c.cfg;
    let mc = cfg.machine_config();
    let mut parts = [0.0; 6];
    let start = Instant::now();

    let t = Instant::now();
    let prog = random_program(seed, &c.gen_options(seed));
    let mut cov = Coverage::new();
    cov.note_generated(&prog);
    let words = encode_program(&prog);
    parts[0] = us(t);

    let t = Instant::now();
    let reference = run_functional(&words, mc, Some(&mut cov));
    parts[1] = us(t);

    let t = Instant::now();
    let timing = tangled_sim::model_registry()
        .iter()
        .filter(|e| e.role == ModelRole::Timing)
        .find_map(|e| diff_outcomes(e.name, &reference, &run_model(e, &words, mc)));
    parts[2] = us(t);

    let t = Instant::now();
    let oracle = backend_registry()
        .iter()
        .filter(|be| be.backend != cfg.backend && be.supports_ways(cfg.ways))
        .find_map(|be| {
            let mut omc = mc;
            omc.qat.backend = be.backend;
            diff_outcomes(
                be.oracle_name,
                &reference,
                &run_functional(&words, omc, None),
            )
        });
    parts[3] = us(t);

    let mut ok = timing.is_none() && oracle.is_none() && reference.fault.is_none();
    if CampaignSpec::crosscheck(seed) {
        let t = Instant::now();
        let ways = cfg.ways.min(4);
        ok &= qsim_crosscheck(&random_reversible_qat_program(seed, ways, 6, 25), ways).is_ok();
        parts[4] = us(t);
        let t = Instant::now();
        let ways = cfg.ways.max(6);
        ok &= pbp_crosscheck(&random_qat_only_program(seed, 40, ways, 8), ways).is_ok();
        parts[5] = us(t);
    }
    (parts, us(start), ok)
}

/// Serial time of a `Generate` job split by layer, over whole
/// cross-check cycles from `seed` until `budget` is spent: the mean job
/// time in microseconds and each layer's share of it.
fn serial_jobs(
    c: &CampaignSpec,
    seed: u64,
    budget: Duration,
    tally: &mut Tally,
) -> (f64, [f64; 6]) {
    let (mut shares, mut total, mut jobs) = ([0.0; 6], 0.0, 0u64);
    let t = Instant::now();
    while jobs == 0 || t.elapsed() < budget || !CampaignSpec::crosscheck(seed + jobs) {
        let (parts, job_us, ok) = job_split(c, seed + jobs);
        tally.note(ok);
        for (a, p) in shares.iter_mut().zip(parts) {
            *a += p;
        }
        total += job_us;
        jobs += 1;
    }
    for a in &mut shares {
        *a /= total;
    }
    (total / jobs as f64, shares)
}

/// A program workload through the serve layer as `Run` jobs: the median
/// serial service time (`run_model_once`, the job's own work), a pooled
/// closed loop, and the queue-depth high-water mark of a counted burst.
/// The serve layer captures every register as an explicit vector, so
/// programs past the hardware's 16 ways run there at 16.
fn serve_program(spec: &ProgramSpec, budget: Duration, tally: &mut Tally) -> (f64, LoopStats, u64) {
    let cfg = DiffConfig {
        ways: spec.mcfg.qat.ways.min(pbp_aob::HW_MAX_WAYS),
        backend: spec.mcfg.qat.backend,
        max_steps: spec.mcfg.max_steps,
        ..Default::default()
    };
    let model = pipeline_model().name;
    let good = |o: &Outcome| {
        o.halted
            && o.fault.is_none()
            && o.steps == spec.expect.insns
            && spec.expect.regs.iter().all(|&(i, v)| o.regs[i] == v)
    };
    let mut service = Vec::new();
    let t = Instant::now();
    while service.len() < MIN_REPS || t.elapsed() < budget / 2 {
        let s = Instant::now();
        let out = run_model_once(&spec.words, model, &cfg);
        service.push(secs(s) * 1e6);
        tally.note(out.as_ref().is_some_and(good));
    }
    let pool = serve_pool();
    let job = || {
        JobSpec::new(
            JobKind::Run {
                words: spec.words.clone(),
                model: model.into(),
            },
            cfg,
        )
    };
    let check = |r: &JobResult| OpOutcome {
        ok: matches!(&r.result, Ok(out) if out.outcome.as_ref().is_some_and(good)),
        ..Default::default()
    };
    let pooled = pool_loop(&pool, job, check, Duration::ZERO, budget / 2);
    tally.add(&pooled);
    telemetry::reset();
    telemetry::set_mode(Mode::Counters);
    let burst = pool_loop(&pool, job, check, Duration::ZERO, Duration::ZERO);
    telemetry::set_mode(Mode::Off);
    tally.add(&burst);
    (
        median(&mut service),
        pooled,
        Snapshot::take().get("serve.pool.queue_depth.max"),
    )
}

/// Traced child: the workload's loop untraced and with counters on, and
/// the serve layer, each for a sixth of `window`; the rung ledger, whose
/// differences of medians need the most repetitions, for half of it.
pub fn traced(w: Workload, seed: u64, warmup: Duration, window: Duration) -> Json {
    let phase = window / 6;
    let mut tally = Tally::default();
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    let c = CampaignSpec::default();

    let (off, counted, proc) = match w.program() {
        Some(spec) => loops_off_and_counted(
            |wu, t| closed_loop(|| spec.run_op(), None, wu, t),
            warmup,
            phase,
        ),
        None => {
            let pool = serve_pool();
            let mut jobs = c.jobs(seed);
            loops_off_and_counted(
                |wu, t| pool_loop(&pool, &mut jobs, check_job, wu, t),
                warmup,
                phase,
            )
        }
    };
    tally.add(&off);
    tally.add(&counted);
    let ops_all = off.attempted.max(1) as f64;
    layers.insert("proc.minflt_per_op", proc.minflt as f64 / ops_all);
    layers.insert(
        "proc.sys_cpu_frac",
        proc.stime as f64 / (proc.utime + proc.stime).max(1) as f64,
    );
    layers.insert(
        "telemetry.counters_overhead",
        off.ops_per_s() / counted.ops_per_s(),
    );

    let rigs: Vec<Rig> = match w.program() {
        Some(spec) => vec![Rig::new(spec)],
        None => (seed..seed + CAMPAIGN_LEDGER_PROGRAMS)
            .filter_map(|s| ProgramSpec::from_reference(c.program(s), c.cfg.machine_config()))
            .map(Rig::new)
            .collect(),
    };
    let reps = ladder(&rigs, phase * 3, &mut tally);
    let per_op = 1.0 / rigs.len() as f64;
    let mut self_times = 0.0;
    for (name, f) in [
        (
            "tangled.alloc_us",
            (|r| r.alloc_machine - r.alloc_file) as fn(&ledger::Rep) -> f64,
        ),
        ("aob.alloc_us", |r| r.alloc_file),
        ("tangled.pipeline.self_us", |r| r.pipe - r.func),
        ("tangled.machine.self_us", |r| r.func - r.qat),
        ("qat.self_us", |r| r.qat - r.aob),
        ("aob.replay_us", |r| r.aob),
    ] {
        let v = med(&reps, f) * per_op;
        self_times += v;
        layers.insert(name, v);
    }
    for (i, (_, alloc, replay)) in BACKENDS.into_iter().enumerate() {
        layers.insert(alloc, med(&reps, |r| r.backends[i].0) * per_op);
        layers.insert(replay, med(&reps, |r| r.backends[i].1) * per_op);
    }
    layers.insert("store.load_us", med(&reps, |r| r.store_load) * per_op);
    layers.insert(
        "store.warm_replay_us",
        med(&reps, |r| r.store_warm) * per_op,
    );
    let op_us = med(&reps, |r| r.op) * per_op;
    layers.insert("ledger.op_us", op_us);
    layers.insert("ledger.residual_frac", (op_us - self_times) / op_us);
    layers.extend(counts(&rigs, &mut tally));

    // The serve layer: pooled latency and throughput against the serial
    // service time of one job.
    let (service_us, pooled, depth, shares) = match w.program() {
        Some(spec) => {
            let (service_us, pooled, depth) = serve_program(&spec, phase, &mut tally);
            (service_us, pooled, depth, [0.0; 6])
        }
        None => {
            // The counted loop above ran through the pool with counters on.
            let depth = Snapshot::take().get("serve.pool.queue_depth.max");
            let (service_us, shares) = serial_jobs(&c, seed, phase, &mut tally);
            (service_us, off, depth, shares)
        }
    };
    for (name, v) in [
        "tangled.proggen_share",
        "tangled.difftest.reference_share",
        "tangled.difftest.timing_share",
        "tangled.difftest.oracles_share",
        "qsim.crosscheck_share",
        "pbp.crosscheck_share",
    ]
    .into_iter()
    .zip(shares)
    {
        layers.insert(name, v);
    }
    let pooled = pooled.quiet();
    layers.insert("serve.service_us", service_us);
    layers.insert(
        "serve.wait_ms_p50",
        percentile(&pooled.lat_ns, 50.0) as f64 / 1e6 - service_us / 1e3,
    );
    layers.insert(
        "serve.parallel_efficiency",
        pooled.ops_per_s / (POOL_WORKERS as f64 * 1e6 / service_us),
    );
    layers.insert("serve.queue_depth_max", depth as f64);

    Json::obj([
        ("backend", backend_name(w).into()),
        ("attempted", tally.attempted.into()),
        ("failed", tally.failed.into()),
        (
            "layers",
            Json::Obj(
                layers
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v.into()))
                    .collect(),
            ),
        ),
    ])
}
