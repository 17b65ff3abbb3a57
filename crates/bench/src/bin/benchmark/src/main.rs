//! `benchmark` — end-to-end and per-layer measurement of the Tangled/Qat
//! stack on four workloads (see README.md).
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! benchmark --smoke
//! benchmark --compare A.json B.json
//! ```
//!
//! Every (workload, repetition) runs in a fresh child process of this
//! binary, one at a time; the parent only sequences the children and
//! merges what they report. With `--workload` the last line of standard
//! output is that workload's result; without it, a result set covering
//! every workload. A human-readable table goes to standard error.

mod ledger;
mod measure;
mod report;
mod workloads;

use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use tangled_bench::diff::{diff_docs, DiffOptions};
use tangled_bench::json::Json;

use report::{one_line, WorkloadResult, END_TO_END, PER_LAYER};
use workloads::{Workload, DEFAULT_SEED};

/// Child processes per workload; results are pooled over them. Each
/// process settles at its own speed (set-up time alone differs by 30%
/// between processes), so more, shorter children give steadier figures.
const REPS: u32 = 6;
/// Timed seconds per workload when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 30.0;
/// Timed seconds per workload under `--smoke`.
const SMOKE_SECONDS: f64 = 1.0;
/// A child that outlives its window by this much is killed.
const CHILD_GRACE: Duration = Duration::from_secs(60);

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
       benchmark --smoke
       benchmark --compare A.json B.json
workloads: factor221, gate-reuse, sparse32, campaign";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    compare: Option<(String, String)>,
    /// Internal: run one measurement in this process (`--child`).
    child: bool,
    window_ms: u64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        compare: None,
        child: false,
        window_ms: 0,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut val = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = val("--workload")?;
                a.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => a.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = val("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                a.trace = match val("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => a.smoke = true,
            "--compare" => a.compare = Some((val("--compare")?, val("--compare")?)),
            "--child" => a.child = true,
            "--window-ms" => {
                a.window_ms = val("--window-ms")?
                    .parse()
                    .map_err(|e| format!("--window-ms: {e}"))?
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

/// Warm-up before a child's timed window: a fifth of it, at most 1 s.
fn warmup_for(window: Duration) -> Duration {
    (window / 5).min(Duration::from_secs(1))
}

/// Run one measurement in a fresh child process and return its report.
fn run_child(w: Workload, seed: u64, window: Duration, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut child = Command::new(exe)
        .args([
            "--child",
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
        ])
        .args(["--window-ms", &window.as_millis().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("starting a child: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        stdout.read_to_string(&mut s).map(|_| s)
    });
    let deadline = Instant::now() + window * 2 + CHILD_GRACE;
    let status = loop {
        if let Some(status) = child
            .try_wait()
            .map_err(|e| format!("waiting for a child: {e}"))?
        {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            let _ = reader.join();
            return Err(format!("{} child exceeded its time limit", w.name()));
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let out = reader
        .join()
        .expect("the reader thread does not panic")
        .map_err(|e| format!("reading a child: {e}"))?;
    if !status.success() {
        return Err(format!("{} child failed: {status}", w.name()));
    }
    let line = out
        .lines()
        .last()
        .ok_or(format!("{} child printed nothing", w.name()))?;
    Json::parse(line).map_err(|e| format!("{} child report: {e}", w.name()))
}

/// Measure `workloads`, [`REPS`] children each, rotating through the
/// workloads so slow drift hits each one equally.
fn measure(
    workloads: &[Workload],
    seed: u64,
    seconds: f64,
    trace: bool,
    reps: u32,
) -> Result<BTreeMap<Workload, WorkloadResult>, String> {
    let window = Duration::from_secs_f64(seconds / f64::from(reps));
    let mut reports: BTreeMap<Workload, Vec<Json>> = BTreeMap::new();
    for _ in 0..reps {
        for &w in workloads {
            reports
                .entry(w)
                .or_default()
                .push(run_child(w, seed, window, trace)?);
        }
    }
    Ok(reports
        .into_iter()
        .map(|(w, r)| {
            (
                w,
                if trace {
                    report::merge_traced(&r)
                } else {
                    report::merge_untraced(&r)
                },
            )
        })
        .collect())
}

fn child_main(a: &Args) -> ExitCode {
    let Some(w) = a.workload else {
        eprintln!("benchmark: --child needs --workload");
        return ExitCode::from(2);
    };
    let window = Duration::from_millis(a.window_ms.max(1));
    let report = if a.trace {
        measure::traced(w, a.seed, warmup_for(window), window)
    } else {
        measure::untraced(w, a.seed, warmup_for(window), window)
    };
    println!("{}", one_line(&report));
    ExitCode::SUCCESS
}

/// The bounds `BENCHMARK.json` sets on each end-to-end metric.
fn benchmark_bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let metrics = doc["end_to_end"]
        .as_array()
        .ok_or(format!("{path}: no end_to_end list"))?;
    metrics
        .iter()
        .map(|m| match (m["name"].as_str(), m["bound"].as_f64()) {
            (Some(n), Some(b)) => Ok((n.to_string(), b)),
            _ => Err(format!("{path}: an end_to_end entry lacks name or bound")),
        })
        .collect()
}

/// Compare two result sets: each end-to-end metric within its bound,
/// simulated CPI and deterministic counts exactly, timing-only layer
/// metrics not at all.
fn compare(a: &str, b: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (base, cur) = (load(a)?, load(b)?);
    let bounds = benchmark_bounds()?;
    let mut opts = DiffOptions {
        default_threshold: 0.0,
        ..Default::default()
    };
    for w in Workload::ALL {
        let key = |m: &str| format!("workloads.{}.metrics.{m}.", w.name());
        opts.ignore
            .push(format!("workloads.{}.attempted", w.name()));
        opts.ignore.push(format!("workloads.{}.tail.", w.name()));
        for (m, _) in END_TO_END {
            // Simulated CPI is a property of the code: it must not move.
            let t = if m == "sim_cpi" {
                0.0
            } else {
                bounds.get(m).copied().unwrap_or(0.0)
            };
            opts.per_key.push((key(m), t));
        }
        for l in PER_LAYER.iter().filter(|l| !l.exact) {
            opts.ignore.push(key(l.name));
        }
    }
    let report = diff_docs(&base, &cur, &opts);
    eprint!("{}", report.render());
    Ok(!report.has_regressions())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if a.child {
        return child_main(&a);
    }
    if let Some((x, y)) = &a.compare {
        return match compare(x, y) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }

    let workloads: Vec<Workload> = a.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let runs: Vec<(bool, f64, u32)> = if a.smoke {
        vec![(false, SMOKE_SECONDS, 1), (true, SMOKE_SECONDS, 1)]
    } else {
        vec![(a.trace, a.seconds, REPS)]
    };
    for (trace, seconds, reps) in runs {
        let results = match measure(&workloads, a.seed, seconds, trace, reps) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("benchmark: {e}");
                return ExitCode::FAILURE;
            }
        };
        for (w, r) in &results {
            eprint!("{}", r.render(w.name()));
        }
        if a.smoke {
            for (w, r) in &results {
                let mut j = r.to_json_with_context();
                if let Json::Obj(m) = &mut j {
                    m.insert("workload".into(), w.name().into());
                    m.insert("trace".into(), Json::Bool(trace));
                }
                println!("{}", one_line(&j));
            }
        } else if let Some(w) = a.workload {
            println!("{}", one_line(&results[&w].to_json()));
        } else {
            let named: Vec<_> = results.iter().map(|(w, r)| (w.name(), r)).collect();
            println!(
                "{}",
                one_line(&report::result_set(a.seed, seconds, trace, &named))
            );
        }
    }
    ExitCode::SUCCESS
}
