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
//!     --store-in F      warm the Qat register file from a ChunkStore
//!                       snapshot (tangled-store/v1, kind `chunks`)
//!     --store-out F     save the run's interned ChunkStore as a snapshot
//! tangled serve <prog.s>... [opts]       run many programs on the job pool
//!     --workers N       worker threads (default 2)
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
//!     --warm-store F    attach a ChunkStore snapshot read-only and install
//!                       it as the ambient warm default: every worker warms
//!                       its matching-degree register files from one shared
//!                       copy of the chunk payloads
//! tangled corpus <import|export|ls|stats|gc> [dir] [opts]
//!     import DIR        migrate loose `*.s` reproducers into DIR/corpus.tsdb
//!                       (content-addressed; re-import is a no-op)
//!     export DIR        write journal entries back out as loose `.s` files
//!         --out D       target directory (default: DIR)
//!     ls DIR            one line per entry: address, ways, kind, name
//!     stats DIR         entry/journal/checkpoint totals
//!     gc DIR            compact superseded records out of the journal
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

use std::process::ExitCode;

use tangled_qat::gatec::factor::compile_factoring;
use tangled_qat::gatec::Compiler;
use tangled_qat::qat::{self, QatConfig, StorageBackend};
use tangled_qat::runner;
use tangled_qat::sim::{
    trace, Machine, MachineConfig, ModelRole, PipelineConfig, PipelinedSim, StageCount,
};
use tangled_qat::telemetry::{self, export};

fn usage() -> ExitCode {
    eprintln!(
        "usage: tangled <asm|dis|run> <prog.s> [options]\n       tangled serve <prog.s>... [--workers N] [--model NAME] [--warm-store F]\n       tangled corpus <import|export|ls|stats|gc> [dir]\n       tangled factor <n> [--width W]\n       tangled backends\n(see `src/bin/tangled.rs` docs for options)"
    );
    ExitCode::from(2)
}

struct RunOpts {
    ways: u32,
    /// Engine-registry model name (`--model`).
    model: String,
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

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            ways: 16,
            model: "pipeline-4-fw".to_string(),
            qat_backend: QatConfig::paper().backend,
            trace: false,
            regs: false,
            macros: false,
            telemetry: false,
            metrics_out: None,
            trace_out: None,
            store_in: None,
            store_out: None,
        }
    }
}

fn parse_opts(args: &[String]) -> Result<RunOpts, String> {
    let mut o = RunOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ways" => {
                o.ways = it
                    .next()
                    .ok_or("--ways needs a value")?
                    .parse()
                    .map_err(|_| "--ways: not a number")?;
            }
            "--model" => o.model = it.next().ok_or("--model needs a value")?.clone(),
            "--qat-backend" => {
                let b = it.next().ok_or("--qat-backend needs a value")?;
                o.qat_backend = StorageBackend::parse(b)
                    .ok_or_else(|| format!("unknown Qat backend `{b}` (see `tangled backends`)"))?;
            }
            "--trace" => o.trace = true,
            "--regs" => o.regs = true,
            "--macros" => o.macros = true,
            "--telemetry" => o.telemetry = true,
            "--metrics-out" => {
                o.metrics_out = Some(it.next().ok_or("--metrics-out needs a path")?.clone());
            }
            "--trace-out" => {
                o.trace_out = Some(it.next().ok_or("--trace-out needs a path")?.clone());
            }
            "--store-in" => {
                o.store_in = Some(it.next().ok_or("--store-in needs a path")?.clone());
            }
            "--store-out" => {
                o.store_out = Some(it.next().ok_or("--store-out needs a path")?.clone());
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
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
/// chunk store at all.
fn intern_degree(b: StorageBackend, w: u32) -> Option<u32> {
    match b {
        StorageBackend::Eager => None,
        StorageBackend::SparseRe => Some(w.min(tangled_qat::pbp::CHUNK_WAYS)),
        StorageBackend::Adaptive if w > tangled_qat::aob::HW_MAX_WAYS => {
            Some(w.min(tangled_qat::pbp::CHUNK_WAYS))
        }
        _ => Some(w), // interned; adaptive within the hardware window
    }
}

fn cmd_run(path: &str, o: RunOpts) -> Result<(), String> {
    let words = runner::load_words(path, o.macros)?;
    let entry = tangled_qat::sim::model(&o.model)
        .ok_or_else(|| format!("unknown model `{}` (see `tangled backends`)", o.model))?;
    runner::check_ways(o.qat_backend, o.ways, false)?;
    let be = qat::backend_entry(o.qat_backend);
    let mode = if o.trace_out.is_some() {
        telemetry::Mode::Trace
    } else if o.telemetry || o.metrics_out.is_some() {
        telemetry::Mode::Counters
    } else {
        telemetry::Mode::Off
    };
    telemetry::set_mode(mode);
    let base = telemetry::Snapshot::take();
    // Warm start: register the snapshot and hand its copyable handle to
    // the Qat config. The attach itself is degree-checked (a mismatch
    // silently stays cold), so surface mismatches loudly here instead.
    // Loaded after the telemetry baseline so `store.load.*` and the
    // attach counters land in the exported delta.
    let mut warm = None;
    if let Some(sp) = &o.store_in {
        let (id, snap_ways) = tangled_qat::aob::warm::load(std::path::Path::new(sp))
            .map_err(|e| format!("--store-in {sp}: {e}"))?;
        match intern_degree(o.qat_backend, o.ways) {
            Some(d) if d == snap_ways => warm = Some(id),
            Some(d) => {
                return Err(format!(
                    "--store-in {sp}: snapshot is {snap_ways}-way but backend `{}` at --ways {} interns at {d}-way (the snapshot would stay cold)",
                    be.backend, o.ways
                ));
            }
            None => {
                return Err(format!(
                    "--store-in {sp}: backend `{}` keeps no chunk store to warm",
                    be.backend
                ));
            }
        }
    }
    // Telemetry runs meter switching energy so the totals land in the
    // counter registry (metering is off by default for speed).
    let qcfg = QatConfig {
        meter_energy: mode != telemetry::Mode::Off,
        warm,
        ..QatConfig::with_backend(o.qat_backend, o.ways)
    };
    let mcfg = MachineConfig { qat: qcfg, ..Default::default() };
    let machine = Machine::with_image(mcfg, &words);
    let mut core = if o.trace {
        entry.build_traced(machine)
    } else {
        entry.build(machine)
    };
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
                 (eager, or an adaptive run that never promoted)",
                be.backend
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

/// `tangled serve` — fan a batch of programs out over the job pool and
/// print each result in submission order, plus the merged per-job
/// telemetry. The CLI face of `tangled_qat::serve`.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    use tangled_qat::serve::{FlightConfig, JobKind, JobSpec, LineSink, Pool, ServeConfig};
    use tangled_qat::sim::difftest::DiffConfig;

    let mut paths: Vec<&String> = Vec::new();
    let mut workers = 2usize;
    let mut ways = 16u32;
    let mut backend = QatConfig::paper().backend;
    let mut model: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut live_interval: Option<u64> = None;
    let mut crash_dir: Option<std::path::PathBuf> = None;
    let mut warm_store: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workers" => {
                workers = it
                    .next()
                    .ok_or("--workers needs a value")?
                    .parse()
                    .map_err(|_| "--workers: not a number")?;
                if workers == 0 {
                    return Err("--workers must be >= 1".into());
                }
            }
            "--ways" => {
                ways = it
                    .next()
                    .ok_or("--ways needs a value")?
                    .parse()
                    .map_err(|_| "--ways: not a number")?;
            }
            "--model" => model = Some(it.next().ok_or("--model needs a value")?.clone()),
            "--qat-backend" => {
                let b = it.next().ok_or("--qat-backend needs a value")?;
                backend = StorageBackend::parse(b)
                    .ok_or_else(|| format!("unknown Qat backend `{b}` (see `tangled backends`)"))?;
            }
            "--metrics-out" => {
                metrics_out = Some(it.next().ok_or("--metrics-out needs a path")?.clone());
            }
            "--live-metrics" => live_interval = Some(8),
            "--crash-dir" => {
                crash_dir =
                    Some(it.next().ok_or("--crash-dir needs a path")?.into());
            }
            "--warm-store" => {
                warm_store = Some(it.next().ok_or("--warm-store needs a path")?.clone());
            }
            flag if flag.starts_with("--live-metrics=") => {
                let n = flag["--live-metrics=".len()..]
                    .parse()
                    .map_err(|_| "--live-metrics: not a number")?;
                live_interval = Some(n);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            _ => paths.push(a),
        }
    }
    if paths.is_empty() {
        return Err("serve: no programs given".into());
    }
    // A bad degree is a usage error (exit 2, as in qat-fuzz), caught
    // before any job can panic on it.
    if let Err(e) = runner::check_ways(backend, ways, true) {
        eprintln!("tangled: {e}");
        std::process::exit(2);
    }
    // Attach the warm snapshot once and install it as the process-wide
    // ambient default: every worker whose register file interns at the
    // snapshot's degree warms from one shared copy of the chunk payloads
    // (jobs at other degrees simply start cold).
    if let Some(sp) = &warm_store {
        let (id, snap_ways) = tangled_qat::aob::warm::load(std::path::Path::new(sp))
            .map_err(|e| format!("--warm-store {sp}: {e}"))?;
        tangled_qat::aob::warm::install_default(id);
        let chunks =
            tangled_qat::aob::warm::get(id).map(|s| s.len()).unwrap_or(0);
        println!("warm store: {sp} ({chunks} chunk(s) at {snap_ways}-way, shared read-only)");
    }
    telemetry::set_mode(telemetry::Mode::Counters);
    // Pool gauges (`serve.pool.*`) record to the *global* registry, not
    // the per-job scoped snapshots — take a baseline so the export can
    // surface their delta without double-counting job counters.
    let global_base = telemetry::Snapshot::take();
    let flight = (live_interval.is_some() || crash_dir.is_some()).then(|| FlightConfig {
        interval: live_interval.unwrap_or(0),
        crash_dir: crash_dir.clone(),
        sink: LineSink::Stderr,
    });
    let pool = Pool::new(ServeConfig { workers, flight, ..Default::default() });
    let cfg = DiffConfig { ways, backend, ..Default::default() };
    for path in &paths {
        let words = runner::load_words(path, false)?;
        let kind = match &model {
            Some(m) => JobKind::Run { words, model: m.clone() },
            None => JobKind::Differential { words },
        };
        pool.submit(JobSpec { kind, cfg, label: (*path).clone() })
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
        println!("-- telemetry ({} job(s), {} worker(s)) --", results.len(), workers);
        print!("{}", export::render_summary(&merged));
    }
    if let Some(path) = &metrics_out {
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

/// `tangled metrics diff` — the perf-regression gate. Compares two
/// metrics/bench JSON artifacts with `tangled_bench::diff` and exits
/// nonzero when any key moved past its threshold or vanished.
fn cmd_metrics_diff(args: &[String]) -> Result<(), String> {
    use tangled_qat::bench::diff::{diff_docs, DiffOptions};
    use tangled_qat::bench::json::Json;

    let mut files: Vec<&String> = Vec::new();
    let mut opts = DiffOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => {
                opts.default_threshold = it
                    .next()
                    .ok_or("--threshold needs a value")?
                    .parse()
                    .map_err(|_| "--threshold: not a number")?;
            }
            "--key-threshold" => {
                let kv = it.next().ok_or("--key-threshold needs PREFIX=FLOAT")?;
                let (prefix, t) =
                    kv.split_once('=').ok_or("--key-threshold needs PREFIX=FLOAT")?;
                let t: f64 =
                    t.parse().map_err(|_| "--key-threshold: threshold not a number")?;
                opts.per_key.push((prefix.to_string(), t));
            }
            "--ignore" => {
                opts.ignore.push(it.next().ok_or("--ignore needs a prefix")?.clone());
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            _ => files.push(a),
        }
    }
    let [base_path, cur_path] = files[..] else {
        return Err("metrics diff: expected <baseline.json> <current.json>".into());
    };
    let read = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let base = read(base_path)?;
    let current = read(cur_path)?;
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

fn cmd_factor(n_str: &str, args: &[String]) -> Result<(), String> {
    let n: u64 = n_str.parse().map_err(|_| "factor: n must be a number")?;
    let mut width = 0usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--width" => {
                width = it
                    .next()
                    .ok_or("--width needs a value")?
                    .parse()
                    .map_err(|_| "--width: not a number")?;
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if width == 0 {
        width = (64 - n.leading_zeros() as usize).max(2);
    }
    if width > 8 {
        return Err("factor: n must fit 8 bits (two operands need ≤16-way entanglement)".into());
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
    fn prompt_loop(&mut self) -> Result<(), String> {
        use std::io::BufRead;
        let stdin = std::io::stdin();
        println!("tangled debugger — 's' step, 'r' run, 'b <addr>' break, 'regs', 'q <n>', 'm <addr>', 'l', 'quit'");
        self.show_location();
        for line in stdin.lock().lines() {
            let line = line.map_err(|e| e.to_string())?;
            let mut parts = line.split_whitespace();
            match parts.next() {
                None => continue,
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
                        let r = self.machine.qat.reg(tangled_qat::isa::QReg(n));
                        let ones: Vec<u64> = r.enumerate_ones().into_iter().take(8).collect();
                        println!(
                            "@{n}: {}-way, pop {} / {}, first 1-channels {:?}",
                            r.ways(),
                            r.pop_all(),
                            r.len(),
                            ones
                        );
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
                Some("quit") | Some("exit") => break,
                Some(other) => println!("unknown command `{other}`"),
            }
        }
        Ok(())
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

fn parse_addr(t: &str) -> Option<u16> {
    if let Some(h) = t.strip_prefix("0x") {
        u16::from_str_radix(h, 16).ok()
    } else {
        t.parse().ok().or_else(|| u16::from_str_radix(t, 16).ok())
    }
}

fn cmd_sat(path: &str, args: &[String]) -> Result<(), String> {
    use tangled_qat::pbp::{Cnf, PbpContext};
    let count_only = args.iter().any(|a| a == "--count");
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

fn cmd_verilog(n_str: &str, args: &[String]) -> Result<(), String> {
    let n: u64 = n_str.parse().map_err(|_| "verilog: n must be a number")?;
    let mut width = (64 - n.leading_zeros() as usize).max(2);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--width" => {
                width = it
                    .next()
                    .ok_or("--width needs a value")?
                    .parse()
                    .map_err(|_| "--width: not a number")?;
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if width > 8 {
        return Err("verilog: width > 8 needs more than 16-way entanglement".into());
    }
    let prog = tangled_qat::gatec::factor::build_factoring(n, width, true);
    let (nl, outs) = prog.optimized();
    print!(
        "{}",
        tangled_qat::gatec::to_verilog(&nl, &outs, &format!("factor{n}"), (2 * width) as u32)
    );
    Ok(())
}

fn cmd_debug(path: &str, args: &[String]) -> Result<(), String> {
    let mut ways = 16u32;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ways" => {
                ways = it
                    .next()
                    .ok_or("--ways needs a value")?
                    .parse()
                    .map_err(|_| "--ways: not a number")?;
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let words = runner::load_words(path, false)?;
    let mcfg = MachineConfig { qat: QatConfig::with_ways(ways), ..Default::default() };
    let mut dbg = Debugger {
        machine: Machine::with_image(mcfg, &words),
        breakpoints: Default::default(),
    };
    dbg.prompt_loop()
}

/// `tangled corpus` — manage the content-addressed corpus database
/// (`corpus.tsdb`, see `tangled_store::CorpusDb`). `import` migrates the
/// legacy loose-file layout; `export` writes it back; `ls`/`stats`
/// inspect; `gc` compacts superseded journal records.
fn cmd_corpus(args: &[String]) -> Result<(), String> {
    use tangled_qat::store::CorpusDb;

    let (sub, rest) = args
        .split_first()
        .ok_or("corpus: expected import|export|ls|stats|gc")?;
    let mut dir = std::path::PathBuf::from("fuzz/corpus");
    let mut out: Option<std::path::PathBuf> = None;
    let mut it = rest.iter();
    let mut dir_given = false;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = Some(it.next().ok_or("--out needs a path")?.into()),
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            p if !dir_given => {
                dir = p.into();
                dir_given = true;
            }
            extra => return Err(format!("corpus {sub}: unexpected argument `{extra}`")),
        }
    }
    let db_path = CorpusDb::dir_path(&dir);
    let open_existing = || {
        CorpusDb::open_existing(&db_path).map_err(|e| format!("{}: {e}", db_path.display()))
    };
    match sub.as_str() {
        "import" => {
            if runner::corpus_files(&dir).is_empty() {
                return Err(format!("corpus import: no `.s` files in {}", dir.display()));
            }
            let mut db =
                CorpusDb::open(&db_path).map_err(|e| format!("{}: {e}", db_path.display()))?;
            // Imports must stay replayable: a file that no longer
            // assembles fails the import rather than poisoning the database.
            let (inserted, dups) = runner::import_loose_files(&mut db, &dir, Err)?;
            println!(
                "imported {inserted} program(s) into {} ({dups} already present, {} total)",
                db_path.display(),
                db.len()
            );
        }
        "export" => {
            let db = open_existing()?;
            let target = out.unwrap_or_else(|| dir.clone());
            std::fs::create_dir_all(&target).map_err(|e| format!("{}: {e}", target.display()))?;
            for e in db.entries() {
                let path = target.join(format!("{}.s", e.name));
                std::fs::write(&path, &e.text).map_err(|e| format!("{}: {e}", path.display()))?;
            }
            println!("exported {} program(s) to {}", db.len(), target.display());
        }
        "ls" => {
            let db = open_existing()?;
            for e in db.entries() {
                println!(
                    "{:016x} ways {:>2} {:<12} {}{}",
                    (e.hash >> 64) as u64,
                    e.ways,
                    if e.kind.is_empty() { "-" } else { &e.kind },
                    e.name,
                    if e.outcome.is_empty() {
                        String::new()
                    } else {
                        format!("  [{}]", e.outcome)
                    }
                );
            }
        }
        "stats" => {
            let db = open_existing()?;
            println!(
                "{}: {} entry(ies), {} journal byte(s), {} superseded record(s)",
                db_path.display(),
                db.len(),
                db.journal_bytes(),
                db.dead_records()
            );
            match db.checkpoint() {
                Some(cp) => println!(
                    "checkpoint: {} program(s) from seed {}, {} executed, {} divergence(s)",
                    cp.programs, cp.base_seed, cp.executed, cp.divergences
                ),
                None => println!("checkpoint: none"),
            }
        }
        "gc" => {
            let mut db = open_existing()?;
            let r = db.gc().map_err(|e| format!("{}: {e}", db_path.display()))?;
            println!(
                "gc: {} -> {} byte(s), {} record(s) dropped",
                r.bytes_before, r.bytes_after, r.records_dropped
            );
        }
        other => return Err(format!("corpus: unknown subcommand `{other}`")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => return usage(),
    };
    let result = match (cmd, rest.split_first()) {
        ("asm", Some((path, opts))) => cmd_asm(path, opts.iter().any(|o| o == "--vmem")),
        ("dis", Some((path, _))) => cmd_dis(path),
        ("run", Some((path, opts))) => match parse_opts(opts) {
            Ok(o) => cmd_run(path, o),
            Err(e) => Err(e),
        },
        ("serve", Some(_)) => cmd_serve(rest),
        ("corpus", Some(_)) => cmd_corpus(rest),
        ("metrics", Some((sub, rest2))) if sub == "diff" => cmd_metrics_diff(rest2),
        ("backends", _) => cmd_backends(),
        ("factor", Some((n, opts))) => cmd_factor(n, opts),
        ("debug", Some((path, opts))) => cmd_debug(path, opts),
        ("verilog", Some((n, opts))) => cmd_verilog(n, opts),
        ("sat", Some((path, opts))) => cmd_sat(path, opts),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tangled: {e}");
            ExitCode::FAILURE
        }
    }
}
