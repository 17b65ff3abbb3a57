//! Exporter tests for the telemetry subsystem: the `metrics.json` schema,
//! Chrome `trace_event` validity, and run-to-run determinism — all exercised
//! end to end through the `tangled` CLI on the paper's Figure 10 program.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use tangled_bench::json::Json;

fn asm_path(name: &str) -> String {
    format!("{}/examples/asm/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn out_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("tangled-telemetry-{}-{name}", std::process::id()));
    p
}

/// Run `tangled run examples/asm/factor15.s` with the given extra flags and
/// return stdout. Panics (with stderr) if the CLI fails.
fn run_factor15(extra: &[&str]) -> String {
    let mut args = vec!["run".to_string(), asm_path("factor15.s")];
    args.extend(["--ways", "8"].iter().map(|s| s.to_string()));
    args.extend(extra.iter().map(|s| s.to_string()));
    let out = Command::new(env!("CARGO_BIN_EXE_tangled"))
        .args(&args)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "tangled run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn metrics_json_matches_golden_schema() {
    let path = out_path("schema-metrics.json");
    run_factor15(&["--qat-backend", "interned", "--metrics-out", path.to_str().unwrap()]);
    let text = std::fs::read_to_string(&path).expect("metrics file written");
    let doc = Json::parse(&text).expect("metrics.json parses");

    assert_eq!(doc["schema"].as_str(), Some("tangled-metrics/v2"));
    assert_eq!(doc["mode"].as_str(), Some("counters"));
    assert!(doc["trace"]["events"].as_u64().is_some());
    assert!(doc["trace"]["dropped"].as_u64().is_some());
    // v2 always carries the quantiles block (empty on this run: the
    // interned CLI path records no histograms; the sparse-re test below
    // checks a populated one).
    assert!(
        matches!(&doc["quantiles"], Json::Obj(_)),
        "quantiles is not an object: {:?}",
        doc["quantiles"]
    );

    let counters = match &doc["counters"] {
        Json::Obj(m) => m,
        other => panic!("counters is not an object: {other:?}"),
    };
    // Every counter the acceptance criteria name must be present: retire
    // counts, stall/flush accounting, per-gate Qat counts, intern hit/miss,
    // and energy totals (telemetry runs turn the energy meter on).
    for key in [
        "tangled.insns",
        "tangled.retire.lex",
        "tangled.retire.sys",
        "tangled.retire.qhad",
        "tangled.retire.qand",
        "pipe.cycles",
        "pipe.stall.data",
        "pipe.stall.control",
        "pipe.flush",
        "pipe.branch.mispredict",
        "qat.gate.qhad",
        "qat.gate.qand",
        "qat.backend.interned.gates",
        "intern.hits",
        "intern.misses",
        "energy.toggles",
        "energy.writes",
    ] {
        assert!(
            counters.contains_key(key),
            "metrics.json missing counter `{key}`; got keys {:?}",
            counters.keys().collect::<Vec<_>>()
        );
    }
    // Figure 10 retires real work; spot-check a few values are non-zero.
    for key in ["tangled.insns", "qat.gate.qhad", "energy.toggles"] {
        assert!(counters[key].as_u64().unwrap() > 0, "`{key}` is zero");
    }
    let _ = std::fs::remove_file(&path);
}

/// `qat.backend.<backend>.gates` key of a backend (`sparse-re` is spelled
/// `sparse_re` in the counter namespace).
fn backend_gates_key(b: tangled_qat::qat::StorageBackend) -> String {
    format!("qat.backend.{}.gates", b.name().replace('-', "_"))
}

/// The per-backend counter namespace, for every registered backend: the
/// run lands every Qat instruction in its own `qat.backend.<b>.gates`
/// (equal to the sum of `qat.gate.*`), leaves every other backend's key
/// untouched, and exports no `qat.kernel.*` key. Packed backends never
/// materialize a full vector (the CLI run path only uses the
/// meas/next/pop datapath).
#[test]
fn every_backend_exports_its_namespace() {
    use tangled_qat::qat::backend_registry;
    for entry in backend_registry() {
        // Past the hardware's 16 ways on the backends that support it.
        let ways = entry.max_ways.min(20);
        let path = out_path(&format!("{}-metrics.json", entry.backend));
        let out = Command::new(env!("CARGO_BIN_EXE_tangled"))
            .args([
                "run",
                &asm_path("factor15.s"),
                "--ways",
                &ways.to_string(),
                "--model",
                "functional",
                "--qat-backend",
                entry.backend.name(),
                "--metrics-out",
                path.to_str().unwrap(),
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "tangled run failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&path).expect("metrics file written");
        let doc = Json::parse(&text).expect("metrics.json parses");
        let counters = match &doc["counters"] {
            Json::Obj(m) => m,
            other => panic!("counters is not an object: {other:?}"),
        };
        let get = |key: &str| counters.get(key).and_then(|v| v.as_u64()).unwrap_or(0);
        let gates: u64 = counters
            .iter()
            .filter(|(k, _)| k.starts_with("qat.gate."))
            .map(|(_, v)| v.as_u64().unwrap())
            .sum();
        assert!(gates > 0, "{}: no qat.gate.* counted", entry.backend);
        assert_eq!(get(&backend_gates_key(entry.backend)), gates, "{}", entry.backend);
        for other in backend_registry().iter().filter(|o| o.backend != entry.backend) {
            let key = backend_gates_key(other.backend);
            assert_eq!(get(&key), 0, "`{key}` counted on a {} run", entry.backend);
        }
        assert!(
            !counters.keys().any(|k| k.starts_with("qat.kernel.")),
            "{}: qat.kernel.* exported",
            entry.backend
        );
        assert_eq!(
            get("qat.backend.sparse_re.materialize"),
            0,
            "{} CLI run materialized a full vector",
            entry.backend
        );
        if entry.backend == tangled_qat::qat::StorageBackend::SparseRe {
            check_packed_histograms(counters, &doc, &text);
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// A sparse-re run's packed-RLE histograms and their v2 quantiles.
fn check_packed_histograms(counters: &BTreeMap<String, Json>, doc: &Json, text: &str) {
    // The packed-RLE compression histograms ride the same export: every
    // RE gate records its command-word footprint and its win over the
    // flat-run baseline under `pbp.re.packed.*`.
    for key in ["pbp.re.packed.words.count", "pbp.re.packed.ratio.count"] {
        assert!(
            counters.get(key).and_then(|v| v.as_u64()).unwrap_or(0) > 0,
            "`{key}` missing or zero; got keys {:?}",
            counters.keys().collect::<Vec<_>>()
        );
    }
    // Ratio samples are flat/packed >= 1: the histogram's running
    // max must be at least 1 and the sum at least the count.
    let ratio_sum = counters.get("pbp.re.packed.ratio.sum").and_then(|v| v.as_u64()).unwrap();
    let ratio_count =
        counters.get("pbp.re.packed.ratio.count").and_then(|v| v.as_u64()).unwrap();
    assert!(
        ratio_sum >= ratio_count,
        "packed encoding regressed below the flat-run baseline: \
         ratio sum {ratio_sum} < count {ratio_count}"
    );
    // The v2 quantile block derives from the same histograms: both
    // packed-RLE families must appear with monotone, non-zero entries.
    for family in ["pbp.re.packed.words", "pbp.re.packed.ratio"] {
        let q = &doc["quantiles"][family];
        let count = q["count"].as_u64().unwrap_or(0);
        assert!(count > 0, "quantiles missing family `{family}`: {text}");
        let (p50, p95, p99) = (
            q["p50"].as_u64().unwrap(),
            q["p95"].as_u64().unwrap(),
            q["p99"].as_u64().unwrap(),
        );
        assert!(p50 >= 1 && p50 <= p95 && p95 <= p99, "{family}: not monotone");
    }
}

#[test]
fn chrome_trace_is_wellformed_and_monotonic() {
    let path = out_path("validity-trace.json");
    run_factor15(&["--trace-out", path.to_str().unwrap()]);
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let doc = Json::parse(&text).expect("trace parses as JSON");

    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty(), "trace has no events");

    // Metadata names every pipeline stage thread.
    let thread_names: Vec<&str> = events
        .iter()
        .filter(|e| e["ph"].as_str() == Some("M") && e["name"].as_str() == Some("thread_name"))
        .filter_map(|e| e["args"]["name"].as_str())
        .collect();
    for stage in ["IF", "ID", "EX", "WB"] {
        assert!(thread_names.contains(&stage), "missing thread_name {stage}");
    }

    // Complete events are fully formed, and per-thread they are monotonic
    // and non-overlapping: a stage finishes one instruction before it
    // starts the next.
    let mut per_tid: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let mut complete = 0usize;
    for e in events {
        match e["ph"].as_str() {
            Some("X") => {
                complete += 1;
                assert!(e["name"].as_str().is_some(), "X event without name");
                assert!(e["cat"].as_str().is_some(), "X event without cat");
                assert!(e["pid"].as_u64().is_some(), "X event without pid");
                let tid = e["tid"].as_u64().expect("X event without tid");
                let ts = e["ts"].as_u64().expect("X event without ts");
                let dur = e["dur"].as_u64().expect("X event without dur");
                assert!(dur > 0, "zero-duration span");
                per_tid.entry(tid).or_default().push((ts, dur));
            }
            Some("i") => {
                assert!(e["ts"].as_u64().is_some(), "instant without ts");
            }
            Some("M") => {}
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert!(complete > 0, "no complete (ph=X) spans in trace");
    for (tid, spans) in &per_tid {
        for w in spans.windows(2) {
            let ((ts0, dur0), (ts1, _)) = (w[0], w[1]);
            assert!(
                ts0 + dur0 <= ts1,
                "tid {tid}: span at ts={ts0} dur={dur0} overlaps next at ts={ts1}"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// The persistent-artifact counters ride the same `tangled-metrics/v2`
/// export: a `--store-out` run counts `store.save.bytes` and
/// `store.chunks.written`; a `--store-in` run counts `store.load.bytes`
/// and `store.chunks.attached`.
#[test]
fn store_counters_ride_the_v2_export() {
    let snap_path = out_path("store-snap.tgls");
    let (m_cold, m_warm) = (out_path("store-cold.json"), out_path("store-warm.json"));
    run_factor15(&[
        "--qat-backend",
        "interned",
        "--store-out",
        snap_path.to_str().unwrap(),
        "--metrics-out",
        m_cold.to_str().unwrap(),
    ]);
    run_factor15(&[
        "--qat-backend",
        "interned",
        "--store-in",
        snap_path.to_str().unwrap(),
        "--metrics-out",
        m_warm.to_str().unwrap(),
    ]);
    let counters_of = |p: &PathBuf| {
        let doc = Json::parse(&std::fs::read_to_string(p).unwrap()).unwrap();
        match &doc["counters"] {
            Json::Obj(m) => m.clone(),
            other => panic!("counters is not an object: {other:?}"),
        }
    };
    let cold = counters_of(&m_cold);
    for key in ["store.save.bytes", "store.chunks.written"] {
        assert!(
            cold.get(key).and_then(|v| v.as_u64()).unwrap_or(0) > 0,
            "`{key}` missing or zero in a --store-out run; got keys {:?}",
            cold.keys().collect::<Vec<_>>()
        );
    }
    let warm = counters_of(&m_warm);
    for key in ["store.load.bytes", "store.chunks.attached"] {
        assert!(
            warm.get(key).and_then(|v| v.as_u64()).unwrap_or(0) > 0,
            "`{key}` missing or zero in a --store-in run; got keys {:?}",
            warm.keys().collect::<Vec<_>>()
        );
    }
    for p in [snap_path, m_cold, m_warm] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn identical_runs_export_identical_snapshots() {
    let (m1, t1) = (out_path("det-m1.json"), out_path("det-t1.json"));
    let (m2, t2) = (out_path("det-m2.json"), out_path("det-t2.json"));
    for (m, t) in [(&m1, &t1), (&m2, &t2)] {
        run_factor15(&[
            "--metrics-out",
            m.to_str().unwrap(),
            "--trace-out",
            t.to_str().unwrap(),
        ]);
    }
    let (a, b) = (std::fs::read(&m1).unwrap(), std::fs::read(&m2).unwrap());
    assert_eq!(a, b, "metrics.json differs between identical runs");
    let (a, b) = (std::fs::read(&t1).unwrap(), std::fs::read(&t2).unwrap());
    assert_eq!(a, b, "chrome trace differs between identical runs");
    for p in [m1, t1, m2, t2] {
        let _ = std::fs::remove_file(p);
    }
}
