//! The results generator must emit valid JSON whose quantities satisfy the
//! paper-shape invariants EXPERIMENTS.md relies on.

use std::process::Command;
use tangled_bench::json::Json;

#[test]
fn json_report_satisfies_shape_invariants() {
    let out = Command::new(env!("CARGO_BIN_EXE_gen_results"))
        .arg("--json")
        .output()
        .expect("gen_results runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("gen_results emits UTF-8");
    let v = Json::parse(&text).expect("gen_results emits valid JSON");

    // E11: straight-line code reaches ~1 CPI with forwarding; multi-cycle
    // sits at 4; no-forwarding never beats forwarding.
    let kernels = v["kernels"].as_array().unwrap();
    assert!(kernels.len() >= 4);
    for k in kernels {
        let fw = k["cpi_4fw"].as_f64().unwrap();
        let nofw = k["cpi_4nofw"].as_f64().unwrap();
        let mc = k["cpi_multicycle"].as_f64().unwrap();
        assert!(fw >= 1.0 && fw <= nofw + 1e-9, "{k}");
        assert!(mc >= 4.0 - 1e-9, "{k}");
    }
    let straight = &kernels[0];
    assert!(straight["cpi_4fw"].as_f64().unwrap() < 1.05);

    // E7: tree-OR delay dominates wide-OR and grows superlinearly.
    let nd = v["next_delay"].as_array().unwrap();
    let (mut prev_tree, mut prev_wide) = (0u64, 0u64);
    for row in nd {
        let wide = row[1].as_u64().unwrap();
        let tree = row[2].as_u64().unwrap();
        assert!(tree >= wide);
        assert!(tree >= prev_tree && wide >= prev_wide);
        prev_tree = tree;
        prev_wide = wide;
    }

    // E12: RE runs stay flat while explicit bytes grow exponentially.
    let rs = v["re_storage"].as_array().unwrap();
    let first_runs = rs[0][2].as_u64().unwrap();
    for row in rs {
        assert_eq!(row[2].as_u64().unwrap(), first_runs, "constant-run workload");
    }
    let bytes_first = rs[0][1].as_u64().unwrap();
    let bytes_last = rs.last().unwrap()[1].as_u64().unwrap();
    assert!(bytes_last > bytes_first * 1000);

    // E13: as §5 macros the reversible gates need no 3-read or 2-write
    // instruction, at the price of more instructions and cycles.
    let rev = v["reversible"].as_array().unwrap();
    let counts = |row: &Json| -> Vec<u64> { (1..5).map(|i| row[i].as_u64().unwrap()).collect() };
    let (native, macros) = (counts(&rev[0]), counts(&rev[1]));
    assert_eq!((rev[0][0].as_str(), rev[1][0].as_str()), (Some("native"), Some("macros")));
    assert!(native.iter().all(|&c| c > 0), "{native:?}");
    assert_eq!(macros[2..], [0, 0]);
    assert!(macros[0] > native[0] && macros[1] > native[1], "{native:?} vs {macros:?}");

    // E14: quantum needs > 8 expected runs where PBP needs 1.
    let q = v["quantum"].as_array().unwrap();
    assert_eq!(q[0][1].as_f64().unwrap(), 1.0);
    assert!(q[1][1].as_f64().unwrap() > 8.0);

    // E14: 16 bytes per amplitude against 1 bit per channel, while the RE
    // form of H(n-1) & H(2) keeps the same run count at every n.
    let mem = v["state_memory"].as_array().unwrap();
    let runs = mem[0][3].as_u64().unwrap();
    for row in mem {
        let n = row[0].as_u64().unwrap();
        assert_eq!(row[1].as_u64().unwrap(), 16 << n, "{row}");
        assert_eq!(row[2].as_u64().unwrap(), (1 << n) / 8, "{row}");
        assert_eq!(row[3].as_u64().unwrap(), runs, "{row}");
    }
}

#[test]
fn markdown_report_has_every_section() {
    let out = Command::new(env!("CARGO_BIN_EXE_gen_results"))
        .output()
        .expect("gen_results runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for heading in [
        "## Kernel CPI by pipeline organization",
        "## Factoring programs",
        "## `next` gate-delay model",
        "## Structural circuit depth",
        "## RE compression",
        "## Compiler / §5 ablations",
        "## Reversible gates, native vs §5 macros",
        "## Measurement semantics",
        "## State memory",
    ] {
        assert!(text.contains(heading), "missing `{heading}`");
    }
}
