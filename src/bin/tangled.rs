//! `tangled` — command-line driver for the Tangled/Qat toolchain.
//!
//! ```text
//! tangled asm  <prog.s> [--vmem]         assemble; print hex words (or VMEM)
//! tangled dis  <prog.s>                  assemble then disassemble (listing)
//! tangled run  <prog.s|img.vmem> [opts]  assemble (or load VMEM) and execute
//!     --ways N          entanglement degree (default 16)
//!     --model NAME      simulator model from the engine registry
//!                       (functional, multicycle, pipeline-4-fw, ... —
//!                       see `tangled backends`; default pipeline-4-fw)
//!     --qat-backend B   Qat register-file storage backend
//!                       (eager | interned | sparse-re | adaptive)
//!     --trace           print the stage-occupancy chart
//!     --regs            dump registers at halt
//!     --macros          assemble reversible gates as §5 macros
//!     --telemetry       enable counters; print the telemetry summary
//!     --metrics-out F   write tangled-metrics/v2 JSON (implies --telemetry)
//!     --trace-out F     write Chrome trace_event JSON (implies full tracing;
//!                       load in chrome://tracing or https://ui.perfetto.dev)
//!     --store-in F      warm the interned register file from a ChunkStore
//!                       snapshot of the same degree (`--qat-backend
//!                       interned`, or adaptive up to 16 ways, which
//!                       attaches it when it promotes)
//!     --store-out F     save the run's interned ChunkStore as a snapshot
//!                       (`--qat-backend interned`, or an adaptive run that
//!                       promoted)
//! tangled serve <prog.s>... [opts]       run many programs on the job pool
//!     --workers N       worker threads (1..=256, default 2)
//!     --model NAME      run each program on one registry model instead of
//!                       the full differential oracle
//!     --ways N          entanglement degree (default 16)
//!     --qat-backend B   Qat register-file storage backend
//!     --metrics-out F   write the merged per-job telemetry snapshot as
//!                       tangled-metrics/v2 JSON
//!     --live-metrics[=N]  emit one tangled-live/v1 snapshot line to stderr
//!                       every N completed jobs (default 8) plus a final
//!                       summary line
//!     --crash-dir D     write crash-<jobid>.json post-mortem bundles into D
//!                       when a job panics
//! tangled metrics diff <baseline> <current> [opts]   perf-regression gate
//!     --threshold F     default allowed relative change (default 0.05)
//!     --key-threshold P=F  override threshold for keys with prefix P
//!                       (repeatable; longest prefix wins)
//!     --ignore P        skip keys with prefix P (repeatable)
//!                       exits 1 when any key regressed or vanished
//! tangled backends                       list registered simulator models
//!                                        and Qat storage backends
//! tangled factor <n> [--width W]         compile & run the §4 factoring demo
//! tangled verilog <n> [--width W]        emit the factoring circuit as Verilog
//! tangled sat <file.cnf> [--count]       exhaustive DIMACS SAT via the PBP model
//! tangled debug <prog.s> [--ways N]      interactive debugger (stdin REPL):
//!     s [n]       step n instructions (default 1)
//!     r           run to halt / breakpoint
//!     b <addr>    toggle a breakpoint (hex or decimal word address)
//!     regs        dump Tangled registers
//!     q <n>       inspect Qat register @n (population + first 1-channels)
//!     m <addr>    dump 8 memory words
//!     l           disassemble around PC
//!     quit
//! ```
//!
//! An option error (unknown option, missing or unparsable value, `--ways`
//! or `--workers` out of range, unknown `--qat-backend` or `--model`)
//! exits 2, as in `qat-fuzz`; an error found while running exits 1.

use std::process::ExitCode;

use tangled_qat::aob::WarmStoreId;
use tangled_qat::bench::diff::DiffOptions;
use tangled_qat::gatec::factor::compile_factoring;
use tangled_qat::gatec::Compiler;
use tangled_qat::qat::{self, QatConfig, StorageBackend};
use tangled_qat::runner;
use tangled_qat::sim::{
    trace, Machine, MachineConfig, ModelEntry, ModelRole, PipelineConfig, PipelinedSim, StageCount,
};
use tangled_qat::telemetry::{self, export};

fn usage() -> ExitCode {
    eprintln!(
        "usage: tangled <asm|dis|run> <prog.s> [options]\n       tangled serve <prog.s>... [--workers N] [--model NAME]\n       tangled factor <n> [--width W]\n       tangled backends\n(see `src/bin/tangled.rs` docs for options)"
    );
    ExitCode::from(2)
}

struct RunOpts {
    ways: u32,
    /// Engine-registry model (`--model`).
    model: &'static ModelEntry,
    qat_backend: StorageBackend,
    trace: bool,
    regs: bool,
    macros: bool,
    telemetry: bool,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    store_in: Option<String>,
    store_out: Option<String>,
}

/// The value after option `flag`, parsed.
fn value<T: std::str::FromStr>(it: &mut std::slice::Iter<String>, flag: &str) -> Result<T, String> {
    let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("{flag}: `{v}` is not a number"))
}

/// Which of the value-less options `known` are set in `args`; any other
/// argument is an unknown option.
fn switches<const N: usize>(args: &[String], known: [&str; N]) -> Result<[bool; N], String> {
    let mut set = [false; N];
    for a in args {
        let i = known.iter().position(|k| k == a).ok_or_else(|| format!("unknown option `{a}`"))?;
        set[i] = true;
    }
    Ok(set)
}

/// The registry model named by `--model`.
fn model_named(name: &str) -> Result<&'static ModelEntry, String> {
    tangled_qat::sim::model(name)
        .ok_or_else(|| format!("unknown model `{name}` (see `tangled backends`)"))
}

/// The Qat backend named by `--qat-backend`.
fn backend_named(name: &str) -> Result<StorageBackend, String> {
    StorageBackend::parse(name)
        .ok_or_else(|| format!("unknown Qat backend `{name}` (see `tangled backends`)"))
}

fn parse_opts(args: &[String]) -> Result<RunOpts, String> {
    let mut o = RunOpts {
        ways: 16,
        model: model_named("pipeline-4-fw")?,
        qat_backend: QatConfig::paper().backend,
        trace: false,
        regs: false,
        macros: false,
        telemetry: false,
        metrics_out: None,
        trace_out: None,
        store_in: None,
        store_out: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ways" => o.ways = value(&mut it, a)?,
            "--model" => o.model = model_named(&value::<String>(&mut it, a)?)?,
            "--qat-backend" => o.qat_backend = backend_named(&value::<String>(&mut it, a)?)?,
            "--trace" => o.trace = true,
            "--regs" => o.regs = true,
            "--macros" => o.macros = true,
            "--telemetry" => o.telemetry = true,
            "--metrics-out" => o.metrics_out = Some(value(&mut it, a)?),
            "--trace-out" => o.trace_out = Some(value(&mut it, a)?),
            "--store-in" => o.store_in = Some(value(&mut it, a)?),
            "--store-out" => o.store_out = Some(value(&mut it, a)?),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    runner::check_ways(o.qat_backend, o.ways, false)?;
    Ok(o)
}

/// Stage-track names for the Chrome-trace exporter.
fn pipeline_threads(cfg: Option<PipelineConfig>) -> Vec<(u32, &'static str)> {
    match cfg.map(|c| c.stages) {
        Some(StageCount::Five) => vec![(0, "IF"), (1, "ID"), (2, "EX"), (3, "MEM"), (4, "WB")],
        Some(StageCount::Four) => vec![(0, "IF"), (1, "ID"), (2, "EX"), (4, "WB")],
        None => vec![(0, "insn")],
    }
}

/// The entanglement degree backend `b` interns chunks at for a `--ways w`
/// run — what a warm snapshot must match. `None`: the backend keeps no
/// chunk store a snapshot can warm (eager, sparse-re, and adaptive past
/// the hardware window, where it pins sparse-re).
fn intern_degree(b: StorageBackend, w: u32) -> Option<u32> {
    match b {
        StorageBackend::Interned => Some(w),
        StorageBackend::Adaptive if w <= tangled_qat::aob::HW_MAX_WAYS => Some(w),
        _ => None,
    }
}

/// Load and register the `--store-in` snapshot at `path` for a run of
/// backend `b` at `ways`. An error unless that file interns at the
/// snapshot's degree: the library attach would otherwise stay cold
/// without a word.
fn load_warm(path: &str, b: StorageBackend, ways: u32) -> Result<WarmStoreId, String> {
    let Some(degree) = intern_degree(b, ways) else {
        return Err(format!(
            "--store-in {path}: backend `{b}` at --ways {ways} keeps no chunk store to warm"
        ));
    };
    let (id, snap_ways) = tangled_qat::aob::warm::load(std::path::Path::new(path))
        .map_err(|e| format!("--store-in {path}: {e}"))?;
    if snap_ways != degree {
        return Err(format!(
            "--store-in {path}: snapshot is {snap_ways}-way but this run interns at {degree}-way"
        ));
    }
    Ok(id)
}

fn cmd_run(path: &str, o: RunOpts) -> Result<(), String> {
    let words = runner::load_words(path, o.macros)?;
    let mode = if o.trace_out.is_some() {
        telemetry::Mode::Trace
    } else if o.telemetry || o.metrics_out.is_some() {
        telemetry::Mode::Counters
    } else {
        telemetry::Mode::Off
    };
    telemetry::set_mode(mode);
    let base = telemetry::Snapshot::take();
    // Loaded after the telemetry baseline so `store.load.*` and the
    // attach counters land in the exported delta.
    let warm = o.store_in.as_deref().map(|p| load_warm(p, o.qat_backend, o.ways)).transpose()?;
    // Telemetry runs meter switching energy so the totals land in the
    // counter registry (metering is off by default for speed).
    let qcfg = QatConfig {
        meter_energy: mode != telemetry::Mode::Off,
        warm,
        ..QatConfig::with_backend(o.qat_backend, o.ways)
    };
    let mcfg = MachineConfig { qat: qcfg, ..Default::default() };
    let machine = Machine::with_image(mcfg, &words);
    let mut core = if o.trace { o.model.build_traced(machine) } else { o.model.build(machine) };
    if let Some(e) = core.run_to_halt() {
        return Err(e.to_string());
    }
    println!("{}", core.report());
    if let (Some(t), Some(pcfg)) = (core.timing_trace(), core.pipeline_config()) {
        print!("{}", trace::render(t, pcfg, 120));
    }
    let threads = pipeline_threads(core.pipeline_config());
    let finished = core.machine();

    if let Some(sp) = &o.store_out {
        let store = finished.qat.store().ok_or_else(|| {
            format!(
                "--store-out: backend `{}` has no interned chunk store to save \
                 (eager, sparse-re, or an adaptive run that never promoted)",
                o.qat_backend
            )
        })?;
        let bytes = store
            .save(std::path::Path::new(sp))
            .map_err(|e| format!("--store-out {sp}: {e}"))?;
        println!(
            "store: {sp} ({} chunk(s) at {}-way, {bytes} bytes)",
            store.len(),
            store.ways()
        );
    }

    if mode != telemetry::Mode::Off {
        let snap = telemetry::Snapshot::take().delta(&base);
        let log = telemetry::take_trace();
        if o.telemetry {
            println!("-- telemetry --");
            print!("{}", export::render_summary(&snap));
        }
        if let Some(path) = &o.metrics_out {
            let doc = export::MetricsDoc {
                snapshot: &snap,
                mode,
                trace_events: log.events.len() as u64,
                trace_dropped: log.dropped,
            };
            std::fs::write(path, export::metrics_json(&doc))
                .map_err(|e| format!("{path}: {e}"))?;
        }
        if let Some(path) = &o.trace_out {
            std::fs::write(path, export::chrome_trace(&log, &threads))
                .map_err(|e| format!("{path}: {e}"))?;
        }
    }

    if !finished.output.is_empty() {
        println!("-- sys output --");
        let mut line = String::new();
        for rec in &finished.output {
            line.push_str(&rec.to_string());
            line.push(' ');
        }
        println!("{}", line.trim_end());
    }
    if o.regs {
        for (i, v) in finished.regs.iter().enumerate() {
            print!("${i}={v:#06x} ");
            if i % 8 == 7 {
                println!();
            }
        }
    }
    Ok(())
}

struct ServeOpts {
    paths: Vec<String>,
    workers: usize,
    ways: u32,
    backend: StorageBackend,
    /// Run each program on this model instead of the differential oracle.
    model: Option<String>,
    metrics_out: Option<String>,
    live_interval: Option<u64>,
    crash_dir: Option<std::path::PathBuf>,
}

fn parse_serve(args: &[String]) -> Result<ServeOpts, String> {
    let mut o = ServeOpts {
        paths: Vec::new(),
        workers: 2,
        ways: 16,
        backend: QatConfig::paper().backend,
        model: None,
        metrics_out: None,
        live_interval: None,
        crash_dir: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workers" => {
                o.workers = value(&mut it, a)?;
                runner::check_workers(o.workers)?;
            }
            "--ways" => o.ways = value(&mut it, a)?,
            "--model" => {
                let m: String = value(&mut it, a)?;
                model_named(&m)?;
                o.model = Some(m);
            }
            "--qat-backend" => o.backend = backend_named(&value::<String>(&mut it, a)?)?,
            "--metrics-out" => o.metrics_out = Some(value(&mut it, a)?),
            "--live-metrics" => o.live_interval = Some(8),
            "--crash-dir" => o.crash_dir = Some(value::<String>(&mut it, a)?.into()),
            flag if flag.starts_with("--live-metrics=") => {
                let n = &flag["--live-metrics=".len()..];
                o.live_interval =
                    Some(n.parse().map_err(|_| format!("--live-metrics: `{n}` is not a number"))?);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            _ => o.paths.push(a.clone()),
        }
    }
    if o.paths.is_empty() {
        return Err("serve: no programs given".into());
    }
    // Caught before any job can panic on it.
    runner::check_ways(o.backend, o.ways, true)?;
    Ok(o)
}

/// `tangled serve` — fan a batch of programs out over the job pool and
/// print each result in submission order, plus the merged per-job
/// telemetry. The CLI face of `tangled_qat::serve`.
fn cmd_serve(o: ServeOpts) -> Result<(), String> {
    use tangled_qat::serve::{FlightConfig, JobKind, JobSpec, LineSink, Pool, ServeConfig};
    use tangled_qat::sim::difftest::DiffConfig;

    telemetry::set_mode(telemetry::Mode::Counters);
    // Pool gauges (`serve.pool.*`) record to the *global* registry, not
    // the per-job scoped snapshots — take a baseline so the export can
    // surface their delta without double-counting job counters.
    let global_base = telemetry::Snapshot::take();
    let flight = (o.live_interval.is_some() || o.crash_dir.is_some()).then(|| FlightConfig {
        interval: o.live_interval.unwrap_or(0),
        crash_dir: o.crash_dir.clone(),
        sink: LineSink::Stderr,
    });
    let pool = Pool::new(ServeConfig { workers: o.workers, flight, ..Default::default() });
    let cfg = DiffConfig { ways: o.ways, backend: o.backend, ..Default::default() };
    for path in &o.paths {
        let words = runner::load_words(path, false)?;
        let kind = match &o.model {
            Some(m) => JobKind::Run { words, model: m.clone() },
            None => JobKind::Differential { words },
        };
        pool.submit(JobSpec { kind, cfg, label: path.clone() })
            .map_err(|e| format!("{path}: {e}"))?;
    }
    let results = pool.drain();
    let mut merged = telemetry::Snapshot::default();
    // Fold the pool's own gauges (queue depth, in-flight, worker
    // high-water marks) into the merged document. Only `serve.pool.*`
    // keys are taken from the global delta: job counters also land in
    // the global registry and would otherwise be counted twice.
    let global_delta = telemetry::Snapshot::take().delta(&global_base);
    let pool_keys = telemetry::Snapshot::from_pairs(
        global_delta
            .iter()
            .filter(|(k, _)| k.starts_with("serve.pool."))
            .map(|(k, v)| (k.to_string(), v)),
    );
    merged.merge_from(&pool_keys);
    let mut failures = 0usize;
    for r in &results {
        merged.merge_from(&r.metrics);
        match &r.result {
            Ok(out) if out.findings.is_empty() => {
                let summary = match (&out.report, &out.outcome) {
                    (rep, _) if !rep.is_empty() => rep.clone(),
                    (_, Some(o)) => format!(
                        "conformant; {} instruction(s), pc {:#06x}",
                        o.steps, o.pc
                    ),
                    _ => "ok".to_string(),
                };
                println!("[{}] {} (worker {}): {}", r.id, r.label, r.worker, summary);
            }
            Ok(out) => {
                failures += 1;
                for f in &out.findings {
                    eprintln!("[{}] {}: {} divergence: {}", r.id, r.label, f.kind.tag(), f.detail);
                }
            }
            Err(e) => {
                failures += 1;
                eprintln!("[{}] {}: {e}", r.id, r.label);
            }
        }
    }
    if !merged.is_empty() {
        println!("-- telemetry ({} job(s), {} worker(s)) --", results.len(), o.workers);
        print!("{}", export::render_summary(&merged));
    }
    if let Some(path) = &o.metrics_out {
        let doc = export::MetricsDoc {
            snapshot: &merged,
            mode: telemetry::mode(),
            trace_events: 0,
            trace_dropped: 0,
        };
        std::fs::write(path, export::metrics_json(&doc)).map_err(|e| format!("{path}: {e}"))?;
    }
    if failures > 0 {
        return Err(format!("{failures} of {} job(s) failed", results.len()));
    }
    Ok(())
}

/// `metrics diff` arguments: the two documents and the diff options.
fn parse_diff(args: &[String]) -> Result<([String; 2], DiffOptions), String> {
    let mut files: Vec<String> = Vec::new();
    let mut opts = DiffOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => opts.default_threshold = value(&mut it, a)?,
            "--key-threshold" => {
                let kv: String = value(&mut it, a)?;
                let (prefix, t) = kv.split_once('=').ok_or("--key-threshold needs PREFIX=FLOAT")?;
                let t: f64 = t.parse().map_err(|_| "--key-threshold: threshold not a number")?;
                opts.per_key.push((prefix.to_string(), t));
            }
            "--ignore" => opts.ignore.push(value(&mut it, a)?),
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            _ => files.push(a.clone()),
        }
    }
    let files =
        files.try_into().map_err(|_| "metrics diff: expected <baseline.json> <current.json>")?;
    Ok((files, opts))
}

/// `tangled metrics diff` — the perf-regression gate. Compares two
/// metrics/bench JSON artifacts with `tangled_bench::diff` and exits
/// nonzero when any key moved past its threshold or vanished.
fn cmd_metrics_diff([base_path, cur_path]: [String; 2], opts: DiffOptions) -> Result<(), String> {
    use tangled_qat::bench::diff::diff_docs;
    use tangled_qat::bench::json::Json;

    let read = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let base = read(&base_path)?;
    let current = read(&cur_path)?;
    let report = diff_docs(&base, &current, &opts);
    print!("{}", report.render());
    if report.has_regressions() {
        return Err(format!(
            "metrics diff: {} key(s) regressed against {base_path}",
            report.regressions().count()
        ));
    }
    Ok(())
}

fn cmd_asm(path: &str, vmem: bool) -> Result<(), String> {
    let words = runner::load_words(path, false)?;
    if vmem {
        print!("{}", tangled_qat::sim::VmemImage::from_words(&words).render());
        return Ok(());
    }
    for (i, w) in words.iter().enumerate() {
        print!("{w:04x}");
        if i % 8 == 7 {
            println!();
        } else {
            print!(" ");
        }
    }
    if words.len() % 8 != 0 {
        println!();
    }
    Ok(())
}

fn cmd_dis(path: &str) -> Result<(), String> {
    let words = runner::load_words(path, false)?;
    print!("{}", tangled_qat::isa::disasm::listing(&words));
    Ok(())
}

/// `tangled backends` — the two registries, one line per entry (the CI
/// smoke step greps this output).
fn cmd_backends() -> Result<(), String> {
    println!("simulator models (--model):");
    for e in tangled_qat::sim::model_registry() {
        let role = match e.role {
            ModelRole::Reference => "reference",
            ModelRole::Timing => "timing",
            ModelRole::NegativeControl => "negative-control",
        };
        println!("  {:<16} {:<16} {}", e.name, role, e.description);
    }
    println!("qat storage backends (--qat-backend):");
    let default = QatConfig::paper().backend;
    for b in qat::backend_registry() {
        println!(
            "  {:<16} ways {:>2}..={:<2}    {}{}",
            b.backend.name(),
            b.min_ways,
            b.max_ways,
            b.description,
            if b.backend == default { " (default)" } else { "" }
        );
    }
    Ok(())
}

/// `factor`/`verilog` arguments: `n` and `--width W`, if given.
fn parse_factor(n: &str, args: &[String]) -> Result<(u64, Option<usize>), String> {
    let n = n.parse().map_err(|_| format!("n must be a number, got `{n}`"))?;
    let mut width = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--width" => width = Some(value(&mut it, a)?),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok((n, width))
}

/// The operand width for `n` when `--width` is not given.
fn auto_width(n: u64) -> usize {
    (64 - n.leading_zeros() as usize).max(2)
}

fn cmd_factor(n: u64, width: Option<usize>) -> Result<(), String> {
    let width = width.filter(|&w| w != 0).unwrap_or_else(|| auto_width(n));
    if width > 8 {
        return Err("factor: n must fit 8 bits (two operands need ≤16-way entanglement)".into());
    }
    if n >= 1 << width {
        return Err(format!("factor: {n} does not fit {width}-bit operands"));
    }
    let prog = compile_factoring(n, width, &Compiler::default()).map_err(|e| e.to_string())?;
    let img = tangled_qat::asm::assemble(&prog.asm).map_err(|e| e.to_string())?;
    let ways = (2 * width) as u32;
    let mcfg = MachineConfig { qat: QatConfig::with_ways(ways), ..Default::default() };
    let mut sim = PipelinedSim::new(Machine::with_image(mcfg, &img.words), PipelineConfig::default());
    let st = sim.run().map_err(|e| e.to_string())?;
    println!(
        "factoring {n} ({width}-bit operands, {ways}-way entanglement): {} Qat gate instructions, {} cycles",
        prog.qat_insns, st.cycles
    );
    let (a, b) = (sim.machine.regs[0], sim.machine.regs[1]);
    if (a, b) == (1, 0) {
        println!("{n} is prime (only the trivial factorization exists)");
    } else {
        println!("non-trivial factors: {a} x {b} = {}", a as u64 * b as u64);
    }
    Ok(())
}

struct Debugger {
    machine: Machine,
    breakpoints: std::collections::BTreeSet<u16>,
}

impl Debugger {
    /// A debugger stopped before the first instruction of `path`, on the
    /// default Qat backend at `ways` (which [`parse_debug`] has checked).
    fn load(path: &str, ways: u32) -> Result<Debugger, String> {
        let words = runner::load_words(path, false)?;
        let mcfg = MachineConfig { qat: QatConfig::with_ways(ways), ..Default::default() };
        Ok(Debugger { machine: Machine::with_image(mcfg, &words), breakpoints: Default::default() })
    }

    fn prompt_loop(&mut self) -> Result<(), String> {
        use std::io::BufRead;
        let stdin = std::io::stdin();
        println!("tangled debugger — 's' step, 'r' run, 'b <addr>' break, 'regs', 'q <n>', 'm <addr>', 'l', 'quit'");
        self.show_location();
        for line in stdin.lock().lines() {
            if !self.command(&line.map_err(|e| e.to_string())?) {
                break;
            }
        }
        Ok(())
    }

    /// Run one command line; `false` once it asks to quit.
    fn command(&mut self, line: &str) -> bool {
        let mut parts = line.split_whitespace();
        match parts.next() {
            None => {}
            Some("s") | Some("step") => {
                let n: u64 = parts.next().and_then(|t| t.parse().ok()).unwrap_or(1);
                for _ in 0..n {
                    if self.machine.halted {
                        println!("machine is halted");
                        break;
                    }
                    match self.machine.step() {
                        Ok(ev) => {
                            println!(
                                "{:04x}: {}{}",
                                ev.pc,
                                tangled_qat::isa::disassemble(ev.insn),
                                if ev.taken { "   [taken]" } else { "" }
                            );
                        }
                        Err(e) => {
                            println!("fault: {e}");
                            break;
                        }
                    }
                }
                self.show_location();
            }
            Some("r") | Some("run") => {
                while !self.machine.halted {
                    if let Err(e) = self.machine.step() {
                        println!("fault: {e}");
                        break;
                    }
                    if self.breakpoints.contains(&self.machine.pc) {
                        println!("breakpoint at {:04x}", self.machine.pc);
                        break;
                    }
                }
                if self.machine.halted {
                    println!("halted after {} instructions", self.machine.steps);
                }
                self.show_location();
            }
            Some("b") | Some("break") => match parts.next().map(parse_addr) {
                Some(Some(a)) => {
                    if self.breakpoints.remove(&a) {
                        println!("breakpoint at {a:04x} removed");
                    } else {
                        self.breakpoints.insert(a);
                        println!("breakpoint at {a:04x} set");
                    }
                }
                _ => println!("usage: b <addr>"),
            },
            Some("regs") => {
                for (i, v) in self.machine.regs.iter().enumerate() {
                    print!("${i}={v:#06x} ");
                    if i % 4 == 3 {
                        println!();
                    }
                }
                println!("pc={:04x} halted={}", self.machine.pc, self.machine.halted);
            }
            Some("q") => match parts.next().and_then(|t| t.parse::<u8>().ok()) {
                Some(n) => {
                    // A stop inside a gate run leaves the run pending.
                    self.machine.settle();
                    println!("@{n}: {}", describe_qreg(self.machine.qat.storage(), n))
                }
                None => println!("usage: q <0..255>"),
            },
            Some("m") | Some("mem") => match parts.next().map(parse_addr) {
                Some(Some(a)) => {
                    print!("{a:04x}:");
                    for i in 0..8u16 {
                        print!(" {:04x}", self.machine.mem[a.wrapping_add(i) as usize]);
                    }
                    println!();
                }
                _ => println!("usage: m <addr>"),
            },
            Some("l") | Some("list") => {
                let pc = self.machine.pc as usize;
                let hi = (pc + 12).min(self.machine.mem.len());
                print!("{}", tangled_qat::isa::disasm::listing(&self.machine.mem[pc..hi]));
            }
            Some("quit") | Some("exit") => return false,
            Some(other) => println!("unknown command `{other}`"),
        }
        true
    }

    fn show_location(&self) {
        match self.machine.peek() {
            Ok((insn, _)) => println!(
                "=> {:04x}: {}",
                self.machine.pc,
                tangled_qat::isa::disassemble(insn)
            ),
            Err(e) => println!("=> {e}"),
        }
    }
}

/// The debugger's `q` line for register `r`: degree, population and the
/// first eight 1-channels. It reads through the measurement datapath, so
/// no register is materialized (a 32-way sparse-re register has no
/// explicit vector).
fn describe_qreg(f: &dyn tangled_qat::aob::AobStorage, r: u8) -> String {
    let r = r as usize;
    let first = if f.meas(r, 0) { Some(0) } else { f.next(r, 0) };
    let ones: Vec<u64> = std::iter::successors(first, |&e| f.next(r, e)).take(8).collect();
    let pop = u64::from(f.meas(r, 0)) + f.pop_after(r, 0);
    format!("{}-way, pop {pop} / {}, first 1-channels {ones:?}", f.ways(), 1u64 << f.ways())
}

fn parse_addr(t: &str) -> Option<u16> {
    if let Some(h) = t.strip_prefix("0x") {
        u16::from_str_radix(h, 16).ok()
    } else {
        t.parse().ok().or_else(|| u16::from_str_radix(t, 16).ok())
    }
}

fn cmd_sat(path: &str, count_only: bool) -> Result<(), String> {
    use tangled_qat::pbp::{Cnf, PbpContext};
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // DIMACS: "p cnf <vars> <clauses>" header, clauses of 0-terminated
    // literals, 'c' comment lines.
    let mut cnf: Option<Cnf> = None;
    let mut pending: Vec<i32> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') || line.starts_with('%') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("p ") {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            let [kind, vars, _clauses] = parts[..] else {
                return Err(format!("{path}:{}: malformed problem line", idx + 1));
            };
            if kind != "cnf" {
                return Err(format!("{path}: only `p cnf` supported, got `{kind}`"));
            }
            let nv: u32 = vars.parse().map_err(|_| "bad variable count".to_string())?;
            if nv == 0 || nv > 16 {
                return Err(format!(
                    "{nv} variables: the PBP engine supports 1..=16 (one entanglement dimension per variable)"
                ));
            }
            cnf = Some(Cnf::new(nv));
            continue;
        }
        let f = cnf.as_mut().ok_or_else(|| format!("{path}: clause before `p cnf` header"))?;
        for tok in line.split_whitespace() {
            let lit: i32 = tok
                .parse()
                .map_err(|_| format!("{path}:{}: bad literal `{tok}`", idx + 1))?;
            if lit.unsigned_abs() > f.num_vars {
                return Err(format!(
                    "{path}:{}: literal {lit} out of range for {} variables",
                    idx + 1,
                    f.num_vars
                ));
            }
            if lit == 0 {
                if pending.is_empty() {
                    return Err(format!("{path}:{}: empty clause", idx + 1));
                }
                f.clause(&pending);
                pending.clear();
            } else {
                pending.push(lit);
            }
        }
    }
    let mut cnf = cnf.ok_or_else(|| format!("{path}: missing `p cnf` header"))?;
    if !pending.is_empty() {
        cnf.clause(&pending);
    }
    let ways = cnf.num_vars.max(6);
    let mut ctx = PbpContext::new(ways);
    let models = ctx.sat_count(&cnf);
    println!(
        "{} variables, {} clauses: {} model(s) (one symbolic evaluation over 2^{} channels)",
        cnf.num_vars,
        cnf.clauses.len(),
        models,
        ways
    );
    if !count_only && models > 0 {
        for a in ctx.sat_assignments(&cnf) {
            let lits: Vec<String> = (0..cnf.num_vars)
                .map(|v| {
                    if (a >> v) & 1 == 1 { format!("{}", v + 1) } else { format!("-{}", v + 1) }
                })
                .collect();
            println!("v {} 0", lits.join(" "));
        }
    }
    println!("s {}", if models > 0 { "SATISFIABLE" } else { "UNSATISFIABLE" });
    Ok(())
}

fn cmd_verilog(n: u64, width: Option<usize>) -> Result<(), String> {
    let width = width.unwrap_or_else(|| auto_width(n));
    if width > 8 {
        return Err("verilog: width > 8 needs more than 16-way entanglement".into());
    }
    if n >= 1 << width {
        return Err(format!("verilog: {n} does not fit {width}-bit operands"));
    }
    let prog = tangled_qat::gatec::factor::build_factoring(n, width, true);
    let (nl, outs) = prog.optimized();
    print!(
        "{}",
        tangled_qat::gatec::to_verilog(&nl, &outs, &format!("factor{n}"), (2 * width) as u32)
    );
    Ok(())
}

/// `debug` arguments: `--ways N`, checked against the default backend.
fn parse_debug(args: &[String]) -> Result<u32, String> {
    let mut ways = 16u32;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ways" => ways = value(&mut it, a)?,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    runner::check_ways(QatConfig::paper().backend, ways, false)?;
    Ok(ways)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => return usage(),
    };
    // The outer `Err` is an option error, which exits 2 as in `qat-fuzz`;
    // the inner one an error found while running, which exits 1.
    let result: Result<Result<(), String>, String> = match (cmd, rest.split_first()) {
        ("asm", Some((path, opts))) => switches(opts, ["--vmem"]).map(|[v]| cmd_asm(path, v)),
        ("dis", Some((path, opts))) => switches(opts, []).map(|[]| cmd_dis(path)),
        ("run", Some((path, opts))) => parse_opts(opts).map(|o| cmd_run(path, o)),
        ("serve", Some(_)) => parse_serve(rest).map(cmd_serve),
        ("metrics", Some((sub, rest2))) if sub == "diff" => {
            parse_diff(rest2).map(|(files, opts)| cmd_metrics_diff(files, opts))
        }
        ("backends", _) => switches(rest, []).map(|[]| cmd_backends()),
        ("factor", Some((n, opts))) => parse_factor(n, opts).map(|(n, w)| cmd_factor(n, w)),
        ("debug", Some((path, opts))) => {
            parse_debug(opts).map(|ways| Debugger::load(path, ways)?.prompt_loop())
        }
        ("verilog", Some((n, opts))) => parse_factor(n, opts).map(|(n, w)| cmd_verilog(n, w)),
        ("sat", Some((path, opts))) => switches(opts, ["--count"]).map(|[c]| cmd_sat(path, c)),
        _ => return usage(),
    };
    match result {
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(e)) => {
            eprintln!("tangled: {e}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("tangled: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every spelling the debugger's parser knows, so generated lines reach
    /// each command's argument handling and not only the unknown-command
    /// arm.
    const COMMANDS: [&str; 14] =
        ["s", "step", "r", "run", "b", "break", "regs", "q", "m", "mem", "l", "list", "quit", "exit"];

    /// A hostile command line: printable garbage, a command with a garbage
    /// tail, or a command with a number, in range or overflowing its
    /// operand.
    fn line() -> impl Strategy<Value = String> {
        let n = prop_oneof![0u32..300, 0u32..70_000];
        prop_oneof![
            "[ -~]{0,30}",
            (0..COMMANDS.len(), "[ -~]{0,12}").prop_map(|(c, t)| format!("{} {t}", COMMANDS[c])),
            (0..COMMANDS.len(), n).prop_map(|(c, n)| format!("{} {n}", COMMANDS[c])),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn debugger_never_panics_on_garbage(
            ways in prop_oneof![Just(8u32), Just(32)],
            lines in proptest::collection::vec(line(), 0..10),
        ) {
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/asm/factor15.s");
            let mut dbg = Debugger::load(path, ways).unwrap();
            for l in &lines {
                dbg.command(l); // any output is fine; panics are not
            }
        }
    }
}
