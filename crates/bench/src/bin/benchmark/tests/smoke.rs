//! `benchmark --smoke` prints, for every workload `BENCHMARK.json` lists,
//! every metric it names exactly once, with its unit.

use std::process::Command;

use tangled_bench::json::Json;

fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn smoke_run_prints_every_benchmark_metric_with_its_unit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
    let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .arg("--smoke")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<(&str, Json)> = stdout
        .lines()
        .map(|l| (l, Json::parse(l).unwrap()))
        .collect();

    let workloads = spec["workloads"].as_array().unwrap();
    assert_eq!(lines.len(), 2 * workloads.len(), "{stdout}");
    for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let wanted = spec[list].as_array().unwrap();
        for w in workloads {
            let w = w["name"].as_str().unwrap();
            let (raw, line) = lines
                .iter()
                .find(|(_, j)| j["workload"].as_str() == Some(w) && j["trace"] == Json::Bool(trace))
                .unwrap_or_else(|| panic!("no {list} line for {w}"));
            assert_eq!(line["correct"], Json::Bool(true), "{w}: {raw}");
            assert_eq!(line["failed"].as_u64(), Some(0), "{w}");
            let Json::Obj(metrics) = &line["metrics"] else {
                panic!("{w}: no metrics")
            };
            assert_eq!(metrics.len(), wanted.len(), "{w} {list}: {raw}");
            for m in wanted {
                let name = m["name"].as_str().unwrap();
                assert!(valid_name(name), "{name}");
                assert_eq!(
                    raw.matches(&format!("\"{name}\":")).count(),
                    1,
                    "{w}: {name}"
                );
                let got = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{w}: no {name}"));
                assert_eq!(got["unit"], m["unit"], "{w}: {name}");
                assert!(
                    got["value"].as_f64().is_some_and(f64::is_finite),
                    "{w}: {name}"
                );
            }
        }
    }
}
