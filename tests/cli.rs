//! End-to-end tests of the `tangled` command-line driver.

use std::process::Command;

fn tangled_output(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tangled")).args(args).output().expect("binary runs")
}

fn tangled(args: &[&str]) -> (String, String, bool) {
    let out = tangled_output(args);
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn qat_fuzz(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_qat-fuzz")).args(args).output().expect("binary runs")
}

fn asm_path(name: &str) -> String {
    format!("{}/examples/asm/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// A fresh, empty scratch directory for one test.
fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tangled_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn run_counting_prints_countdown() {
    let (stdout, _, ok) = tangled(&["run", &asm_path("counting.s"), "--ways", "8"]);
    assert!(ok);
    assert!(stdout.contains("5 4 3 2 1"), "{stdout}");
    assert!(stdout.contains("CPI"));
}

#[test]
fn run_factor15_prints_factors() {
    let (stdout, _, ok) = tangled(&["run", &asm_path("factor15.s"), "--ways", "8"]);
    assert!(ok);
    assert!(stdout.contains("5 3"), "{stdout}");
}

#[test]
fn run_options_select_models() {
    let (s4, _, _) = tangled(&["run", &asm_path("counting.s"), "--ways", "8"]);
    let (s5, _, _) =
        tangled(&["run", &asm_path("counting.s"), "--ways", "8", "--model", "pipeline-5-fw"]);
    let (mc, _, _) =
        tangled(&["run", &asm_path("counting.s"), "--ways", "8", "--model", "multicycle"]);
    assert!(s4.contains("Four"));
    assert!(s5.contains("Five"));
    assert!(mc.contains("multi-cycle"));
}

/// The retired model shorthands and the legacy metrics flag are unknown
/// options now: `--model` and the v2 document are the only spellings. The
/// corpus is its loose `.s` files, so the journal's `tangled corpus`
/// subcommands and `qat-fuzz --resume` are gone too, and a warm snapshot
/// attaches only through `run --store-in`, so `serve --warm-store` is gone.
#[test]
fn retired_flags_are_rejected() {
    let path = asm_path("counting.s");
    let run_flags =
        [&["--multicycle"][..], &["--stages", "5"], &["--no-forwarding"], &["--metrics-v1"]];
    let cases =
        run_flags.map(|f| ("run", f)).into_iter().chain([("serve", &["--warm-store", "F"][..])]);
    for (sub, flags) in cases {
        let mut args = vec![sub, path.as_str(), "--ways", "8"];
        args.extend_from_slice(flags);
        let out = tangled_output(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{sub} {flags:?}: {stderr}");
        assert!(stderr.contains("unknown option"), "{sub} {flags:?}: {stderr}");
    }
    let corpus = format!("{}/fuzz/corpus", env!("CARGO_MANIFEST_DIR"));
    let out = tangled_output(&["corpus", "ls", &corpus]);
    assert_eq!(out.status.code(), Some(2), "tangled corpus is a usage error");
    for flag in ["--metrics-v1", "--resume"] {
        let out = qat_fuzz(&[flag]);
        assert_eq!(out.status.code(), Some(2), "qat-fuzz {flag} is a usage error");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
    }
}

#[test]
fn run_trace_prints_stage_chart() {
    let (stdout, _, ok) = tangled(&["run", &asm_path("counting.s"), "--ways", "8", "--trace"]);
    assert!(ok);
    assert!(stdout.contains(" F "), "{stdout}");
    assert!(stdout.contains(" W "));
}

#[test]
fn factor_command() {
    let (stdout, _, ok) = tangled(&["factor", "15"]);
    assert!(ok);
    assert!(stdout.contains("5 x 3"), "{stdout}");
    let (stdout, _, ok) = tangled(&["factor", "13"]);
    assert!(ok);
    assert!(stdout.contains("prime"), "{stdout}");
    let (stdout, _, ok) = tangled(&["factor", "221"]);
    assert!(ok);
    assert!(stdout.contains("17 x 13"), "{stdout}");
}

#[test]
fn asm_and_dis_roundtrip() {
    let (hex, _, ok) = tangled(&["asm", &asm_path("counting.s")]);
    assert!(ok);
    assert!(hex.split_whitespace().all(|w| u16::from_str_radix(w, 16).is_ok()));
    let (listing, _, ok) = tangled(&["dis", &asm_path("counting.s")]);
    assert!(ok);
    assert!(listing.contains("lex $1,5"));
    assert!(listing.contains("sys"));
}

#[test]
fn errors_are_reported_not_panicked() {
    let (_, stderr, ok) = tangled(&["run", "/nonexistent/prog.s"]);
    assert!(!ok);
    assert!(stderr.contains("tangled:"));
    let (_, _, ok) = tangled(&["frobnicate"]);
    assert!(!ok);
    let (_, stderr, ok) = tangled(&["factor", "999"]);
    assert!(!ok);
    assert!(stderr.contains("8 bits"));

    // Inputs the library would reject with an assert: a literal past the
    // DIMACS header and n wider than --width (a --ways the default backend
    // cannot build is in `option_errors_exit_2`).
    let dir = std::env::temp_dir().join("tangled_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let cnf = dir.join("literal_past_header.cnf");
    std::fs::write(&cnf, "p cnf 3 1\n1 5 0\n").unwrap();
    for args in [
        &["sat", cnf.to_str().unwrap()][..],
        &["factor", "15", "--width", "1"],
        &["verilog", "15", "--width", "0"],
    ] {
        let (_, stderr, ok) = tangled(args);
        assert!(!ok, "{args:?} succeeded");
        let reported = stderr.lines().filter(|l| l.starts_with("tangled:")).count();
        assert_eq!(reported, 1, "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// Every option error of a subcommand is a usage error, as in
/// `qat-fuzz`: exit 2 with one `tangled:` line, before any input is read
/// or any job runs.
#[test]
fn option_errors_exit_2() {
    let prog = asm_path("counting.s");
    let common: [&[&str]; 6] = [
        &["--bogus"],
        &["--ways"],
        &["--ways", "x"],
        &["--ways", "40"],
        &["--qat-backend", "nope"],
        &["--model", "nope"],
    ];
    let workers: [&[&str]; 3] = [&["--workers", "0"], &["--workers", "257"], &["--workers", "x"]];
    let cases = common
        .map(|f| ("run", f))
        .into_iter()
        .chain(common.into_iter().chain(workers).map(|f| ("serve", f)))
        .chain([("debug", &["--ways", "40"][..])])
        .chain(["asm", "dis", "sat"].map(|sub| (sub, &["--bogus"][..])));
    for (sub, flags) in cases {
        let mut args = vec![sub, prog.as_str()];
        args.extend_from_slice(flags);
        let out = tangled_output(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let reported = stderr.lines().filter(|l| l.starts_with("tangled:")).count();
        assert_eq!(reported, 1, "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// `--store-in` of bytes that are not a snapshot, or of a snapshot the
/// run's register file cannot attach, exits 1 with one `tangled:
/// --store-in` line: never a panic, never a silent cold start.
#[test]
fn store_in_rejects_what_it_cannot_warm() {
    let dir = fresh_dir("store_in");
    let factor15 = asm_path("factor15.s");
    let six = dir.join("six.tgls");
    let six = six.to_str().unwrap();
    let (_, stderr, ok) = tangled(&[
        "run",
        &factor15,
        "--ways",
        "6",
        "--qat-backend",
        "interned",
        "--store-out",
        six,
    ]);
    assert!(ok, "{stderr}");
    let garbage: Vec<u8> = (0..64u32).map(|i| (i.wrapping_mul(151) ^ 0x5a) as u8).collect();
    let mut cases = Vec::new();
    for (name, bytes) in [("empty", &b""[..]), ("magic-only", b"TGLSTORE"), ("garbage", &garbage)] {
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        cases.push((path.to_str().unwrap().to_string(), "interned"));
    }
    // A 6-way snapshot fits neither an 8-way interned file nor sparse-re,
    // whose 6-way symbol store is internal and never warms.
    cases.push((six.to_string(), "interned"));
    cases.push((six.to_string(), "sparse-re"));
    for (path, backend) in &cases {
        let out = tangled_output(&[
            "run",
            &factor15,
            "--ways",
            "8",
            "--qat-backend",
            backend,
            "--store-in",
            path,
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{path} on {backend}: {stderr}");
        let reported = stderr.lines().filter(|l| l.starts_with("tangled: --store-in")).count();
        assert_eq!(reported, 1, "{path} on {backend}: {stderr}");
        assert!(!stderr.contains("panicked"), "{path} on {backend}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Drive `tangled debug` on an example program with a scripted stdin.
fn debug_session(prog: &str, ways: &str, script: &[u8]) -> std::process::Output {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_tangled"))
        .args(["debug", &asm_path(prog), "--ways", ways])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    child.stdin.as_mut().unwrap().write_all(script).unwrap();
    child.wait_with_output().unwrap()
}

#[test]
fn debugger_scripted_session() {
    let out = debug_session("counting.s", "8", b"s 2\nregs\nb 5\nr\nq 3\nm 0\nl\nbogus\nquit\n");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("lex $1,5"), "{text}");
    assert!(text.contains("$1=0x0005"));
    assert!(text.contains("breakpoint at 0005 set"));
    assert!(text.contains("breakpoint at 0005\n") || text.contains("halted"));
    assert!(text.contains("unknown command `bogus`"));
}

/// `q <n>` answers from the measurement datapath, so it inspects a 32-way
/// register, which no explicit vector can hold, without materializing it.
#[test]
fn debugger_inspects_a_32_way_register() {
    let out = debug_session("factor15.s", "32", b"s 3\nq 2\nquit\n");
    let (text, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert!(out.status.success(), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    // @2 = H(3) & H(5): a quarter of the 2^32 channels.
    assert!(text.contains("@2: 32-way, pop 1073741824 / 4294967296"), "{text}");
}

/// `q <n>` shows the register as of the last retired instruction, even
/// when the debugger stops inside a fused gate run: `and @2,@0,@1` has not
/// run after one step, and has after three.
#[test]
fn debugger_shows_qat_state_as_of_the_retired_gate() {
    let out = debug_session("factor15.s", "8", b"s 1\nq 2\ns 2\nq 2\nquit\n");
    let (text, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert!(out.status.success(), "{stderr}");
    let shown: Vec<&str> = text.lines().filter(|l| l.starts_with("@2: ")).collect();
    assert_eq!(shown.len(), 2, "{text}");
    assert!(shown[0].starts_with("@2: 8-way, pop 0 / 256,"), "{text}");
    assert!(shown[1].starts_with("@2: 8-way, pop 64 / 256,"), "{text}");
}

#[test]
fn verilog_export() {
    let (v, _, ok) = tangled(&["verilog", "15"]);
    assert!(ok);
    assert!(v.contains("module factor15("));
    assert!(v.contains("output wire [255:0] e"));
    assert!(v.contains("(i >> 7)")); // Figure 7 idiom
    assert!(v.trim_end().ends_with("endmodule"));
}

#[test]
fn vmem_roundtrip_through_cli() {
    // asm --vmem then run the .vmem file: same output as the .s file.
    let (vmem, _, ok) = tangled(&["asm", &asm_path("counting.s"), "--vmem"]);
    assert!(ok);
    assert!(vmem.contains("@0000"));
    let dir = std::env::temp_dir().join("tangled_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("counting.vmem");
    std::fs::write(&path, &vmem).unwrap();
    let (out, _, ok) = tangled(&["run", path.to_str().unwrap(), "--ways", "8"]);
    assert!(ok);
    assert!(out.contains("5 4 3 2 1"), "{out}");
}

#[test]
fn newton_sqrt_converges_in_bfloat16() {
    let (out, _, ok) = tangled(&["run", &asm_path("newton_sqrt.s"), "--ways", "8"]);
    assert!(ok);
    // bf16 sqrt(2): 1.4140625 (the representable value nearest √2).
    assert!(out.contains("1.4140625"), "{out}");
}

#[test]
fn sat_solves_dimacs() {
    let dir = std::env::temp_dir().join("tangled_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let sat_path = dir.join("xor.cnf");
    std::fs::write(&sat_path, "c xor\np cnf 2 2\n1 2 0\n-1 -2 0\n").unwrap();
    let (out, _, ok) = tangled(&["sat", sat_path.to_str().unwrap()]);
    assert!(ok);
    assert!(out.contains("2 model(s)"), "{out}");
    assert!(out.contains("s SATISFIABLE"));
    assert!(out.contains("v 1 -2 0"));
    assert!(out.contains("v -1 2 0"));

    let unsat_path = dir.join("unsat.cnf");
    std::fs::write(&unsat_path, "p cnf 1 2\n1 0\n-1 0\n").unwrap();
    let (out, _, ok) = tangled(&["sat", unsat_path.to_str().unwrap()]);
    assert!(ok);
    assert!(out.contains("s UNSATISFIABLE"));

    let bad_path = dir.join("big.cnf");
    std::fs::write(&bad_path, "p cnf 40 1\n1 0\n").unwrap();
    let (_, stderr, ok) = tangled(&["sat", bad_path.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("1..=16"));
}

#[test]
fn serve_runs_jobs_across_workers() {
    let (out, _, ok) = tangled(&[
        "serve",
        &asm_path("counting.s"),
        &asm_path("newton_sqrt.s"),
        "--workers",
        "2",
        "--ways",
        "8",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("conformant"), "{out}");
    assert!(out.contains("counting.s"), "{out}");
    assert!(out.contains("newton_sqrt.s"), "{out}");
    assert!(out.contains("2 job(s)"), "{out}");
}

/// A degree outside the backend's range, or past `aob::MAX_WAYS` (a job
/// captures every register as an explicit vector), is a usage error
/// before any job starts, not a panicking job.
/// Every default Qat backend is `QatConfig::paper()`'s: the differential
/// oracle's `DiffConfig` and the one entry `tangled backends` marks.
#[test]
fn backends_marks_the_paper_default() {
    use tangled_qat::qat::QatConfig;
    use tangled_qat::sim::difftest::DiffConfig;
    let default = QatConfig::paper().backend;
    assert_eq!(DiffConfig::default().backend, default);
    let (stdout, _, ok) = tangled(&["backends"]);
    assert!(ok);
    let marked: Vec<&str> = stdout
        .lines()
        .filter(|l| l.ends_with(" (default)"))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(marked, [default.name()], "{stdout}");
}

#[test]
fn serve_rejects_unsupported_ways() {
    let path = asm_path("counting.s");
    for (ways, backend, msg) in
        [("20", "interned", "supports ways 1..=16"), ("32", "sparse-re", "at most 26 ways")]
    {
        let out = tangled_output(&["serve", &path, "--ways", ways, "--qat-backend", backend]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--ways {ways}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
        assert!(stderr.contains(msg), "{stderr}");
    }
}

#[test]
fn qat_fuzz_rejects_ways_past_register_capture() {
    let dir = std::env::temp_dir().join("tangled_cli_fuzz_ways_test");
    let out = Command::new(env!("CARGO_BIN_EXE_qat-fuzz"))
        .args(["--ways", "32", "--qat-backend", "sparse-re", "--seeds", "1", "--no-replay"])
        .arg("--corpus")
        .arg(&dir)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.lines().next().is_some_and(|l| l.contains("at most 26 ways")), "{stderr}");
}

/// A seed range that ends past `u64::MAX` is a usage error, not an
/// overflow.
#[test]
fn qat_fuzz_rejects_seed_range_overflow() {
    let dir = fresh_dir("seed_overflow");
    let out = qat_fuzz(&[
        "--start-seed",
        "18446744073709551615",
        "--seeds",
        "2",
        "--no-replay",
        "--corpus",
        dir.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("seed range"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--workers` is bounded in both binaries that start a pool, the same
/// way each rejects `--workers 0`.
#[test]
fn workers_past_the_cap_are_rejected() {
    let out = tangled_output(&["serve", &asm_path("counting.s"), "--workers", "257"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("1..=256"), "{stderr}");
    let dir = fresh_dir("workers_cap");
    let corpus = dir.to_str().unwrap();
    let out = qat_fuzz(&["--workers", "257", "--seeds", "0", "--no-replay", "--corpus", corpus]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("1..=256"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corpus file that does not assemble is an input error named in one
/// line before any campaign starts, not a divergence; `--no-replay`
/// still skips the corpus.
#[test]
fn qat_fuzz_rejects_a_corpus_file_that_does_not_assemble() {
    let dir = fresh_dir("bad_corpus");
    std::fs::write(dir.join("bad.s"), "bogus @@@\n").unwrap();
    let out = qat_fuzz(&["--seeds", "0", "--corpus", dir.to_str().unwrap()]);
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert_eq!(out.status.code(), Some(2), "{stdout}{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("bad.s") && stderr.contains("does not assemble"), "{stderr}");
    assert!(!stderr.contains("divergence"), "{stderr}");
    assert!(!stdout.contains("campaign:"), "{stdout}");
    let out = qat_fuzz(&["--seeds", "0", "--no-replay", "--corpus", dir.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replay reads exactly the `.s` files in the corpus directory as they are
/// now: an edited file replays once, in its new form, a deleted one not at
/// all, and a clean campaign leaves nothing else behind.
#[test]
fn qat_fuzz_replays_exactly_the_corpus_files() {
    let seeds = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fuzz/corpus");
    let dir = fresh_dir("exact_corpus");
    let files = tangled_qat::runner::corpus_files(&seeds);
    for f in &files {
        std::fs::copy(f, dir.join(f.file_name().unwrap())).unwrap();
    }
    let expect_replayed = |n: usize| {
        let out = qat_fuzz(&["--seeds", "0", "--corpus", dir.to_str().unwrap()]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
        assert!(stdout.contains(&format!("corpus: {n} reproducer(s) replayed clean")), "{stdout}");
    };
    expect_replayed(files.len());
    std::fs::write(dir.join("qat_datapath.s"), "; ways 8\nlex $1,3\nsys\n").unwrap();
    expect_replayed(files.len());
    std::fs::remove_file(dir.join("branch_edges.s")).unwrap();
    expect_replayed(files.len() - 1);
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        assert!(path.extension().is_some_and(|x| x == "s"), "left behind: {}", path.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn qat_fuzz_sigint_drains_and_writes_metrics() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let dir = std::env::temp_dir().join("tangled_cli_sigint_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("metrics.json");

    // A campaign far too long to finish on its own; the SIGINT path must
    // stop submission, drain in-flight jobs, and still write the summary
    // artifacts before exiting with the conventional 128+SIGINT code.
    let mut child = Command::new(env!("CARGO_BIN_EXE_qat-fuzz"))
        .args([
            "--seeds",
            "1000000",
            "--len",
            "20",
            "--no-replay",
            "--workers",
            "2",
            "--corpus",
            dir.join("corpus").to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--trace",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();

    // Wait until the campaign banner proves the pool is live, so the
    // signal lands mid-campaign rather than during startup.
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    loop {
        line.clear();
        assert!(reader.read_line(&mut line).unwrap() > 0, "fuzzer exited early");
        if line.starts_with("campaign:") {
            break;
        }
    }

    let kill = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(kill.success());

    // Drain remaining stdout so the child never blocks on a full pipe,
    // then reap it.
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut reader, &mut rest).unwrap();
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(130), "SIGINT exits 130\n{rest}");

    // The seeds that ran are a prefix of the range, and the printed
    // continuation starts right after it.
    let number_after = |marker: &str| -> u64 {
        let tail = &rest[rest.find(marker).unwrap_or_else(|| panic!("no `{marker}`: {rest}"))..];
        tail[marker.len()..].split_whitespace().next().unwrap().parse().unwrap()
    };
    let ran = number_after("interrupted after ");
    assert_eq!(number_after("--start-seed "), 1 + ran, "{rest}");

    // The metrics artifact must be present and well-formed even on the
    // interrupt path.
    let doc = std::fs::read_to_string(&metrics).unwrap();
    assert!(doc.contains("\"schema\": \"tangled-metrics/v2\""), "{doc}");
    assert!(doc.trim_start().starts_with('{') && doc.trim_end().ends_with('}'), "{doc}");

    // `--trace` arms the flight recorder, so the SIGINT path also drops
    // a post-mortem bundle (into the corpus dir by default) with the
    // span-ring tail flushed into it.
    let bundle = dir.join("corpus").join("crash-sigint.json");
    let text = std::fs::read_to_string(&bundle)
        .unwrap_or_else(|e| panic!("{}: {e}", bundle.display()));
    let bundle_doc = tangled_qat::bench::json::Json::parse(&text).expect("bundle parses");
    assert_eq!(bundle_doc["schema"].as_str(), Some("tangled-crash/v1"));
    assert_eq!(bundle_doc["reason"].as_str(), Some("sigint"));
    assert!(bundle_doc["snapshot"]["jobs"].as_u64().is_some());
    assert!(
        !bundle_doc["trace"]["events"].as_array().unwrap().is_empty(),
        "span ring not flushed into the SIGINT bundle"
    );
}

/// The `campaign:` banner waits for the first job result, but a campaign
/// that ends before any result arrives still prints it, exactly once.
#[test]
fn qat_fuzz_banner_printed_without_results() {
    let dir = std::env::temp_dir().join("tangled_cli_empty_campaign_test");
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_qat-fuzz"))
        .args(["--seeds", "0", "--no-replay", "--corpus", dir.join("corpus").to_str().unwrap()])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert_eq!(stdout.lines().filter(|l| l.starts_with("campaign:")).count(), 1, "{stdout}");
    assert!(stdout.contains("0 seeds fuzzed"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `tangled serve --live-metrics` streams schema-tagged snapshot lines
/// to stderr and a final summary line at shutdown.
#[test]
fn serve_live_metrics_emits_snapshot_lines() {
    let (out, err, ok) = tangled(&[
        "serve",
        &asm_path("counting.s"),
        &asm_path("counting.s"),
        "--workers",
        "1",
        "--ways",
        "8",
        "--live-metrics=1",
    ]);
    assert!(ok, "{out}{err}");
    let lines: Vec<&str> =
        err.lines().filter(|l| l.contains("\"schema\":\"tangled-live/v1\"")).collect();
    // One line per completed job plus the shutdown summary.
    assert_eq!(lines.len(), 3, "{err}");
    assert!(lines[0].contains("\"seq\":1,\"jobs\":1,"), "{err}");
    assert!(lines[2].contains("\"jobs\":2,"), "{err}");
    for l in &lines {
        assert!(l.contains("\"lat_p50\":"), "{l}");
    }
}

/// The `tangled metrics diff` gate: exit 0 on matching documents, exit 1
/// (with a REGRESS line) once a key moves past its threshold, and per-key
/// overrides/ignores are honored.
#[test]
fn metrics_diff_gate_exit_codes() {
    let dir = std::env::temp_dir().join("tangled_cli_diff_test");
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("base.json");
    let cur = dir.join("cur.json");
    std::fs::write(&base, r#"{"counters": {"cycles": 100, "insns": 50}, "wall_ns": 10}"#)
        .unwrap();

    // Identical documents pass.
    std::fs::write(&cur, r#"{"counters": {"cycles": 100, "insns": 50}, "wall_ns": 999}"#)
        .unwrap();
    let (out, err, ok) = tangled(&[
        "metrics",
        "diff",
        base.to_str().unwrap(),
        cur.to_str().unwrap(),
        "--ignore",
        "wall_ns",
    ]);
    assert!(ok, "{out}{err}");
    assert!(out.contains("0 regressions"), "{out}");

    // A 20% move on a 5% threshold fails with a nonzero exit.
    std::fs::write(&cur, r#"{"counters": {"cycles": 120, "insns": 50}, "wall_ns": 10}"#)
        .unwrap();
    let (out, err, ok) =
        tangled(&["metrics", "diff", base.to_str().unwrap(), cur.to_str().unwrap()]);
    assert!(!ok, "regression must exit nonzero\n{out}");
    assert!(out.contains("REGRESS counters.cycles"), "{out}");
    assert!(err.contains("regressed"), "{err}");

    // ...but a per-key threshold override lets it through.
    let (out, _, ok) = tangled(&[
        "metrics",
        "diff",
        base.to_str().unwrap(),
        cur.to_str().unwrap(),
        "--key-threshold",
        "counters.cycles=0.5",
    ]);
    assert!(ok, "{out}");

    // A vanished key is a regression even when every shared key matches.
    std::fs::write(&cur, r#"{"counters": {"cycles": 100}, "wall_ns": 10}"#).unwrap();
    let (out, _, ok) =
        tangled(&["metrics", "diff", base.to_str().unwrap(), cur.to_str().unwrap()]);
    assert!(!ok, "missing key must exit nonzero\n{out}");
    assert!(out.contains("MISSING counters.insns"), "{out}");
}
