//! `qat-fuzz` — the cross-model conformance fuzzer.
//!
//! Replays the checked-in reproducer corpus, then runs N random-program
//! seeds through the full differential oracle (functional vs multi-cycle
//! vs 4/5-stage pipelines, with periodic `qsim` state-vector and PBP
//! word-level cross-checks of the Qat register file). Both phases fan
//! out over the `tangled-serve` FIFO worker pool (`--workers`), with
//! divergences minimized on the workers and written to a shared,
//! deduplicated corpus as reassemblable `.s` files. Exit status 0 means
//! zero divergences; SIGINT drains in-flight jobs, reports, and exits
//! 130 — with `--metrics-out`, a well-formed `tangled-metrics/v2`
//! document is written on every exit path, and with a flight recorder
//! active (`--live-metrics`, `--crash-dir`, or `--trace`) the SIGINT
//! path also drops a `crash-sigint.json` post-mortem bundle.
//!
//! ```text
//! qat-fuzz --seeds 1000                 # the acceptance run
//! qat-fuzz --workers 4 --seeds 1000     # the same campaign, 4 workers
//! qat-fuzz --max-seconds 30             # CI smoke budget
//! qat-fuzz --inject-forwarding-bug      # negative control: must be caught
//! qat-fuzz --constant-registers         # fault-adjacent fuzzing
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tangled_qat::asm;
use tangled_qat::isa::{disassemble, Insn};
use tangled_qat::qat::{QatConfig, StorageBackend};
use tangled_qat::runner;
use tangled_qat::serve::{JobError, JobKind, JobResult, JobSpec, Pool, ServeConfig};
use tangled_qat::sim::difftest::{
    diff_outcomes, run_forwarding_bug, run_functional, DiffConfig,
};
use tangled_qat::sim::proggen::{encode_program, random_program, ProgGenOptions, Profile};
use tangled_qat::sim::{shrink, Coverage};
use tangled_qat::store::{CorpusDb, CorpusEntry, InsertOutcome, JournalCheckpoint};
use tangled_qat::telemetry::{self, export};

struct Args {
    seeds: u64,
    start_seed: u64,
    len: usize,
    ways: u32,
    backend: StorageBackend,
    profile: Option<Profile>,
    corpus: PathBuf,
    replay: bool,
    resume: bool,
    inject_forwarding_bug: bool,
    constant_registers: bool,
    max_seconds: u64,
    cross_every: u64,
    workers: usize,
    metrics_out: Option<PathBuf>,
    live_interval: Option<u64>,
    crash_dir: Option<PathBuf>,
    trace: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            seeds: 200,
            start_seed: 1,
            len: 60,
            ways: 8,
            backend: QatConfig::paper().backend,
            profile: None,
            corpus: PathBuf::from("fuzz/corpus"),
            replay: true,
            resume: false,
            inject_forwarding_bug: false,
            constant_registers: false,
            max_seconds: 0,
            cross_every: 10,
            workers: 1,
            metrics_out: None,
            live_interval: None,
            crash_dir: None,
            trace: false,
        }
    }
}

const USAGE: &str = "\
qat-fuzz — differential fuzzer for the Tangled/Qat simulator family

USAGE: qat-fuzz [OPTIONS]

OPTIONS:
  --seeds N                random programs to run (default 200)
  --start-seed S           first seed (default 1)
  --len N                  body instructions per program (default 60)
  --ways W                 Qat entanglement degree (default 8)
  --qat-backend B          Qat register-file storage backend for the
                           reference run: eager|interned|sparse-re
                           (default interned); every other registered
                           backend supporting W becomes an oracle
  --profile P              balanced|alu|qat|branch|mem (default: round-robin)
  --corpus DIR             reproducer corpus directory (default fuzz/corpus);
                           loose `*.s` files are migrated into the
                           content-addressed `corpus.tsdb` journal on start
  --no-replay              skip replaying the corpus first
  --resume                 continue an interrupted campaign from the
                           journal's checkpoint (same --start-seed)
  --workers N              worker threads for replay and the campaign
                           (default 1)
  --metrics-out PATH       write the merged per-job telemetry snapshot as
                           tangled-metrics/v2 JSON on every exit path
  --live-metrics[=N]       emit one tangled-live/v1 snapshot line to stderr
                           every N completed jobs (default 8) plus a final
                           summary line
  --crash-dir DIR          write crash-*.json post-mortem bundles into DIR
                           on a job panic or SIGINT (default: the corpus
                           directory, once --live-metrics or --trace is on)
  --trace                  record telemetry spans so crash bundles embed
                           the span ring tail
  --constant-registers     enable the §5 constant-register file and emit
                           fault-adjacent Qat writes
  --inject-forwarding-bug  negative control: run a deliberately broken
                           model; exit 0 only if the harness catches it and
                           shrinks the reproducer to <= 8 instructions
  --max-seconds S          stop fuzzing after S seconds (0 = no limit)
  --cross-every K          qsim/PBP cross-check every K seeds (default 10)
  -h, --help               this text
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--seeds" => args.seeds = val("--seeds")?.parse().map_err(|e| format!("{e}"))?,
            "--start-seed" => {
                args.start_seed = val("--start-seed")?.parse().map_err(|e| format!("{e}"))?
            }
            "--len" => args.len = val("--len")?.parse().map_err(|e| format!("{e}"))?,
            "--ways" => args.ways = val("--ways")?.parse().map_err(|e| format!("{e}"))?,
            "--qat-backend" => {
                let b = val("--qat-backend")?;
                args.backend = StorageBackend::parse(&b)
                    .ok_or_else(|| format!("unknown Qat backend `{b}`"))?;
            }
            "--profile" => {
                let p = val("--profile")?;
                args.profile =
                    Some(Profile::parse(&p).ok_or_else(|| format!("unknown profile `{p}`"))?);
            }
            "--corpus" => args.corpus = PathBuf::from(val("--corpus")?),
            "--no-replay" => args.replay = false,
            "--resume" => args.resume = true,
            "--workers" => {
                args.workers = val("--workers")?.parse().map_err(|e| format!("{e}"))?;
                if args.workers == 0 {
                    return Err("--workers must be >= 1".into());
                }
            }
            "--metrics-out" => args.metrics_out = Some(PathBuf::from(val("--metrics-out")?)),
            "--live-metrics" => args.live_interval = Some(8),
            "--crash-dir" => args.crash_dir = Some(PathBuf::from(val("--crash-dir")?)),
            "--trace" => args.trace = true,
            "--constant-registers" => args.constant_registers = true,
            "--inject-forwarding-bug" => args.inject_forwarding_bug = true,
            "--max-seconds" => {
                args.max_seconds = val("--max-seconds")?.parse().map_err(|e| format!("{e}"))?
            }
            "--cross-every" => {
                args.cross_every = val("--cross-every")?.parse().map_err(|e| format!("{e}"))?
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with("--live-metrics=") => {
                let n = other["--live-metrics=".len()..]
                    .parse()
                    .map_err(|_| "--live-metrics: not a number".to_string())?;
                args.live_interval = Some(n);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    runner::check_ways(args.backend, args.ways, true)?;
    Ok(args)
}

/// Set by the SIGINT handler; the fuzz and replay loops poll it so an
/// interrupted campaign still drains in-flight jobs, reports coverage and
/// telemetry, and writes `--metrics-out`.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::Relaxed)
}

/// Install a minimal SIGINT handler (raw `signal(2)`; the build
/// environment has no signal-handling crate). Only the atomic flag is
/// touched from the handler.
#[cfg(unix)]
fn install_sigint_handler() {
    extern "C" fn handler(_sig: i32) {
        INTERRUPTED.store(true, Ordering::Relaxed);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    unsafe {
        signal(SIGINT, handler as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sigint_handler() {}

/// The end-of-campaign report: seed/divergence totals, coverage, and the
/// telemetry counter table (merged from the per-job snapshots). Printed
/// on every exit path — clean completion, time budget, corpus-replay
/// divergence, and SIGINT.
fn print_campaign_summary(
    ran: u64,
    divergences: u64,
    elapsed_secs: f64,
    cov: &Coverage,
    snap: &telemetry::Snapshot,
) {
    println!("\n{ran} seeds fuzzed in {elapsed_secs:.1}s, {divergences} divergence(s)");
    print!("{}", cov.report());
    if !snap.is_empty() {
        println!("-- telemetry --");
        print!("{}", export::render_summary(snap));
    }
}

/// Write the merged per-job snapshot as a `tangled-metrics/v2` document.
/// Called on every exit path when `--metrics-out` was given, so even an
/// interrupted campaign leaves a well-formed artifact.
fn write_metrics(path: &Path, snap: &telemetry::Snapshot) {
    let doc = export::MetricsDoc {
        snapshot: snap,
        mode: telemetry::mode(),
        trace_events: 0,
        trace_dropped: 0,
    };
    if let Err(e) = std::fs::write(path, export::metrics_json(&doc)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Write a minimized reproducer as a reassemblable `.s` file.
fn write_reproducer(dir: &Path, name: &str, prog: &[Insn], header: &[String]) -> PathBuf {
    let _ = std::fs::create_dir_all(dir);
    let mut text = String::new();
    for line in header {
        text.push_str("; ");
        text.push_str(line);
        text.push('\n');
    }
    for &i in prog {
        text.push_str(&disassemble(i));
        text.push('\n');
    }
    let path = dir.join(format!("{name}.s"));
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    path
}

/// Negative control: run the stale-read model, require a divergence, and
/// require the shrinker to cut it to <= 8 instructions.
fn injected_bug_run(args: &Args) -> ExitCode {
    let cfg = DiffConfig {
        ways: args.ways,
        constant_registers: args.constant_registers,
        backend: args.backend,
        ..Default::default()
    };
    let diverges = |p: &[Insn]| {
        let words = encode_program(p);
        let mc = cfg.machine_config();
        let reference = run_functional(&words, mc, None);
        let buggy = run_forwarding_bug(&words, mc);
        diff_outcomes("forwarding-bug", &reference, &buggy).is_some()
    };
    for seed in args.start_seed..args.start_seed + args.seeds {
        let opts = ProgGenOptions {
            len: args.len,
            ways: args.ways,
            profile: args.profile.unwrap_or(Profile::AluHeavy),
            ..Default::default()
        };
        let prog = random_program(seed, &opts);
        if !diverges(&prog) {
            continue;
        }
        let small = shrink(&prog, diverges);
        let header = vec![
            format!("minimized forwarding-bug reproducer, seed {seed}"),
            format!("ways {}", args.ways),
            format!("{} instructions (from {})", small.len(), prog.len()),
        ];
        let path = write_reproducer(&args.corpus, &format!("forwarding_bug_seed{seed}"), &small, &header);
        println!(
            "injected forwarding bug caught at seed {seed}; minimized {} -> {} insns ({})",
            prog.len(),
            small.len(),
            path.display()
        );
        for i in &small {
            println!("    {}", disassemble(*i));
        }
        return if small.len() <= 8 {
            ExitCode::SUCCESS
        } else {
            eprintln!("FAIL: reproducer longer than 8 instructions");
            ExitCode::FAILURE
        };
    }
    eprintln!("FAIL: injected forwarding bug never diverged in {} seeds", args.seeds);
    ExitCode::FAILURE
}

/// The deterministic reproducer text for a finding: the replay headers
/// (`; ways`, `; constant-registers`) plus the disassembled program — and
/// nothing seed-dependent, so its content address keys the *root cause*.
/// Two workers minimizing different seeds to the same program produce one
/// content address, and the journal dedups the insert.
fn reproducer_text(
    f: &tangled_qat::serve::Finding,
    ways: u32,
    constant_registers: bool,
) -> String {
    let mut text = format!("; {} reproducer\n; ways {ways}\n", f.kind.tag());
    if f.kind == tangled_qat::serve::FindingKind::Divergence {
        text.push_str(&format!("; constant-registers {}\n", constant_registers as u8));
    }
    for &i in &f.program {
        text.push_str(&disassemble(i));
        text.push('\n');
    }
    text
}

/// Open the campaign's corpus journal, migrating any loose `*.s`
/// reproducers (the legacy layout, and the checked-in seed corpus) into
/// it first. The migration is idempotent — re-opening an up-to-date
/// journal inserts nothing — and files that cannot be read or no longer
/// assemble are skipped with a warning rather than poisoning the database.
fn open_campaign_db(dir: &Path) -> Result<CorpusDb, String> {
    let path = CorpusDb::dir_path(dir);
    let mut db = CorpusDb::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    runner::import_loose_files(&mut db, dir, |e| {
        eprintln!("warning: not imported: {e}");
        Ok(())
    })?;
    Ok(db)
}

/// Client-side campaign state folded out of every finished job.
struct Campaign {
    ran: u64,
    divergences: u64,
    cancelled: u64,
    cov: Coverage,
    metrics: telemetry::Snapshot,
    /// The shared reproducer corpus: insert-by-hash dedup means
    /// concurrent workers minimizing different seeds to the same root
    /// cause produce one journal entry, not one per seed — and unlike the
    /// old in-memory set, the dedup holds across campaign restarts.
    db: CorpusDb,
}

impl Campaign {
    fn new(db: CorpusDb) -> Self {
        Campaign {
            ran: 0,
            divergences: 0,
            cancelled: 0,
            cov: Coverage::default(),
            metrics: telemetry::Snapshot::default(),
            db,
        }
    }

    /// Fold one job result in: merge metrics/coverage, print and record
    /// findings, and insert (deduplicated) corpus entries.
    fn absorb(&mut self, r: &JobResult, args: &Args) {
        self.metrics.merge_from(&r.metrics);
        match &r.result {
            Ok(out) => {
                self.ran += 1;
                if let Some(cov) = &out.coverage {
                    self.cov.merge(cov);
                }
                for f in &out.findings {
                    self.divergences += 1;
                    eprintln!(
                        "seed {}: {} divergence: {}",
                        f.seed,
                        f.kind.tag(),
                        f.detail
                    );
                    let text = reproducer_text(f, args.ways, args.constant_registers);
                    let name = format!("{}_seed{}", f.kind.tag(), f.seed);
                    let mut entry =
                        CorpusEntry::from_text(&name, &text, args.ways, args.constant_registers);
                    entry.kind = "reproducer".to_string();
                    entry.seed = f.seed;
                    entry.outcome = f.kind.tag().to_string();
                    entry.provenance = f.detail.clone();
                    if !r.label.is_empty() {
                        entry.provenance.push_str(&format!("; profile {}", r.label));
                    }
                    match self.db.insert(entry) {
                        Ok(InsertOutcome::Inserted) => {
                            // New root cause: journal entry plus the loose
                            // `.s` file (still the human-facing artifact).
                            let path = self.db.path().with_file_name(format!("{name}.s"));
                            if let Err(e) = std::fs::write(&path, &text) {
                                eprintln!("warning: could not write {}: {e}", path.display());
                            }
                            eprintln!(
                                "  minimized to {} insns: {}",
                                f.program.len(),
                                path.display()
                            );
                        }
                        Ok(_) => eprintln!(
                            "  duplicate of an existing reproducer (same content address); corpus unchanged"
                        ),
                        Err(e) => eprintln!("warning: corpus insert failed: {e}"),
                    }
                }
            }
            Err(JobError::Cancelled) => self.cancelled += 1,
            Err(e) => {
                // A panicking or misconfigured job fails the campaign but
                // never the pool; count it as a divergence-class failure.
                self.divergences += 1;
                eprintln!("job {} ({}): {e}", r.id, r.label);
            }
        }
    }
}

/// Replay every corpus program through the oracle as differential jobs
/// on the pool (headers parsed by the shared [`runner`] helpers, on the
/// campaign's backend). The journal is the source of truth; it was
/// populated from any loose `.s` files at open.
fn replay_corpus(
    pool: &Pool,
    campaign: &mut Campaign,
    backend: StorageBackend,
) -> Result<usize, String> {
    let programs: Vec<(String, String)> = campaign
        .db
        .entries()
        .iter()
        .map(|e| (e.name.clone(), e.text.clone()))
        .collect();
    let mut submitted = 0;
    for (name, text) in programs {
        if interrupted() {
            break;
        }
        let img = asm::assemble(&text).map_err(|e| format!("{name}: {e}"))?;
        let cfg = runner::corpus_diff_config(&text, backend);
        pool.submit(JobSpec {
            kind: JobKind::Differential { words: img.words },
            cfg,
            label: name.clone(),
        })
        .map_err(|e| format!("{name}: {e}"))?;
        submitted += 1;
    }
    let mut failure = None;
    for r in pool.drain() {
        campaign.metrics.merge_from(&r.metrics);
        match &r.result {
            Ok(out) if out.findings.is_empty() => {}
            Ok(out) => {
                failure.get_or_insert(format!("{}: {}", r.label, out.findings[0].detail));
            }
            Err(JobError::Cancelled) => {}
            Err(e) => {
                failure.get_or_insert(format!("{}: {e}", r.label));
            }
        }
    }
    match failure {
        None => Ok(submitted),
        Some(f) => Err(f),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if args.inject_forwarding_bug {
        return injected_bug_run(&args);
    }

    // Per-job counter snapshots: counters on for the whole run; --trace
    // additionally fills the span ring that crash bundles embed.
    telemetry::set_mode(if args.trace {
        telemetry::Mode::Trace
    } else {
        telemetry::Mode::Counters
    });
    install_sigint_handler();
    // The flight recorder turns on with --live-metrics, --crash-dir, or
    // --trace; bundles default into the corpus directory so a panic mid-
    // campaign leaves its post-mortem next to the reproducers.
    let flight = (args.live_interval.is_some() || args.crash_dir.is_some() || args.trace)
        .then(|| tangled_qat::serve::FlightConfig {
            interval: args.live_interval.unwrap_or(0),
            crash_dir: Some(args.crash_dir.clone().unwrap_or_else(|| args.corpus.clone())),
            sink: tangled_qat::serve::LineSink::Stderr,
        });
    let pool = Pool::new(ServeConfig {
        workers: args.workers,
        queue_cap: (4 * args.workers).max(16),
        flight,
        ..Default::default()
    });
    let db = match open_campaign_db(&args.corpus) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("error: corpus database: {e}");
            return ExitCode::from(2);
        }
    };
    let mut campaign = Campaign::new(db);
    let start = Instant::now();

    if args.replay {
        match replay_corpus(&pool, &mut campaign, args.backend) {
            Ok(n) => println!("corpus: {n} reproducer(s) replayed clean"),
            Err(e) => {
                eprintln!("corpus replay divergence: {e}");
                print_campaign_summary(
                    campaign.ran,
                    campaign.divergences + 1,
                    start.elapsed().as_secs_f64(),
                    &campaign.cov,
                    &campaign.metrics,
                );
                if let Some(p) = &args.metrics_out {
                    write_metrics(p, &campaign.metrics);
                }
                return ExitCode::FAILURE;
            }
        }
    }

    let cfg = DiffConfig {
        ways: args.ways,
        constant_registers: args.constant_registers,
        backend: args.backend,
        ..Default::default()
    };
    let profiles = Profile::all();
    let end_seed = args.start_seed + args.seeds;
    let mut next_seed = args.start_seed;
    // --resume: skip the prefix a previous campaign already checkpointed
    // (only a checkpoint of the *same* base seed is meaningful — a
    // different --start-seed is a different campaign).
    let prev = campaign.db.checkpoint().filter(|cp| cp.base_seed == args.start_seed);
    if args.resume {
        if let Some(cp) = prev {
            next_seed = (args.start_seed + cp.programs).min(end_seed);
            println!(
                "resume: checkpoint covers {} seed(s) from {}; continuing at {next_seed}",
                cp.programs, cp.base_seed
            );
        } else {
            println!("resume: no matching checkpoint in the journal; starting fresh");
        }
    }
    let resume_skip = next_seed - args.start_seed;
    let mut submitted = 0u64;
    let mut collected = 0u64;
    let mut stop_reason: Option<&str> = None;

    // Callers (the SIGINT CLI test among them) synchronize on this banner,
    // so it is printed only once the first job result has been absorbed:
    // that job's spans are then in the span ring, and a crash bundle
    // written on a later SIGINT is never empty. A loop that ends before
    // any result arrives prints it on the way out.
    let mut banner = Some(format!(
        "campaign: {} seed(s) from {} across {} worker(s)",
        args.seeds,
        args.start_seed,
        pool.workers()
    ));

    // Submit while there is queue space, fold in results while waiting;
    // on SIGINT or an expired time budget, stop submitting, cancel the
    // queued tail, and drain what is in flight.
    loop {
        if stop_reason.is_none() {
            if interrupted() {
                stop_reason = Some("interrupted");
                pool.discard_queued();
            } else if args.max_seconds > 0
                && start.elapsed().as_secs() >= args.max_seconds
            {
                stop_reason = Some("time budget reached");
                pool.discard_queued();
            }
        }
        let submitting = stop_reason.is_none() && next_seed < end_seed;
        if submitting {
            let seed = next_seed;
            let profile = args
                .profile
                .unwrap_or_else(|| profiles[(seed % profiles.len() as u64) as usize]);
            let crosscheck = args.cross_every > 0 && seed % args.cross_every == 0;
            let spec = JobSpec {
                kind: JobKind::Generate {
                    seed,
                    profile: Some(profile),
                    len: args.len,
                    crosscheck,
                },
                cfg,
                label: format!("{profile:?}"),
            };
            if pool.try_submit(spec).is_ok() {
                submitted += 1;
                next_seed += 1;
                continue;
            }
        }
        if collected == submitted {
            if !submitting {
                break;
            }
            continue;
        }
        if let Some(r) = pool.recv_timeout(Duration::from_millis(50)) {
            collected += 1;
            campaign.absorb(&r, &args);
            if let Some(b) = banner.take() {
                println!("{b}");
            }
        }
    }
    if let Some(b) = banner {
        println!("{b}");
    }
    if let Some(reason) = stop_reason {
        println!("{reason} after {} seeds", campaign.ran);
    }

    // Journal the campaign high-water mark so `--resume` can continue an
    // interrupted run. Discarded (still-queued) jobs are the newest
    // submissions, so the completed seed prefix is contiguous.
    let carried = if args.resume { prev } else { None };
    let cp = JournalCheckpoint {
        programs: resume_skip + submitted - campaign.cancelled,
        executed: carried.map_or(0, |p| p.executed) + campaign.ran,
        divergences: carried.map_or(0, |p| p.divergences) + campaign.divergences,
        base_seed: args.start_seed,
    };
    if let Err(e) = campaign.db.set_checkpoint(cp) {
        eprintln!("warning: could not checkpoint the campaign: {e}");
    }

    print_campaign_summary(
        campaign.ran,
        campaign.divergences,
        start.elapsed().as_secs_f64(),
        &campaign.cov,
        &campaign.metrics,
    );
    if interrupted() {
        // Post-mortem for the interrupted campaign: final flight
        // snapshot, recent job ids, and the span ring tail (--trace).
        if let Some(path) = pool.write_crash_bundle("sigint") {
            eprintln!("crash bundle: {}", path.display());
        }
    }
    if let Some(p) = &args.metrics_out {
        write_metrics(p, &campaign.metrics);
    }

    if interrupted() {
        // Conventional exit status for death-by-SIGINT.
        ExitCode::from(130)
    } else if campaign.divergences > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
