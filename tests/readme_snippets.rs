//! The README's code snippets, compiled and executed verbatim (minus
//! formatting) — documentation that cannot rot.

use tangled_qat::prelude::*;

#[test]
fn readme_word_level_snippet() {
    use tangled_qat::pbp::{Pbits, PbpContext};

    let mut ctx = PbpContext::new(8); // 8-way entangled universe
    let a = ctx.pint_mk(4, 15); //       the constant 15
    let b = ctx.pint_h(4, 0x0f); //      0..15 superposed on channels 0-3
    let c = ctx.pint_h(4, 0xf0); //      0..15 superposed on channels 4-7
    let Ok(d) = ctx.pint_mul(&b, &c); // all 256 products, at once
    let Ok(e) = ctx.pint_eq(&d, &a); //  a pbit: "b*c == 15"
    let values: Vec<u64> = ctx
        .pint_measure_where(&b, &e)
        .into_iter()
        .map(|v| v.value)
        .collect();
    assert_eq!(values, vec![1, 3, 5, 15]);
}

#[test]
fn readme_compiled_snippet() -> Result<(), Box<dyn std::error::Error>> {
    let prog = gatec::factor::compile_factoring(15, 4, &Compiler::default())?;
    let img = assemble(&prog.asm)?;
    let mut sim = PipelinedSim::new(
        Machine::with_image(Default::default(), &img.words),
        PipelineConfig::default(),
    );
    let stats = sim.run()?;
    assert_eq!((sim.machine.regs[0], sim.machine.regs[1]), (5, 3));
    assert!(stats.cpi() > 1.0 && stats.cpi() < 2.0);
    Ok(())
}

/// The docs cite only what exists: no `cargo bench`; every `--bench NAME`
/// or bench `NAME` names a `[[bench]]` target; every `BENCH_*.json` is
/// committed at the repository root; every `tests/*.rs` or
/// `examples/*.rs` path (with any `crates/...` prefix) is in the tree.
#[test]
fn docs_cite_only_existing_benches_and_artifacts() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |p: &str| std::fs::read_to_string(root.join(p)).unwrap();
    let word = |s: &str| -> String {
        s.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect()
    };
    let manifest = read("crates/bench/Cargo.toml");
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let text = read(doc);
        assert!(!text.contains("cargo bench"), "{doc} cites `cargo bench`");
        for rest in text.split("--bench ").skip(1).chain(text.split("bench `").skip(1)) {
            let name = word(rest);
            let target = format!("name = \"{name}\"");
            assert!(manifest.contains(&target), "{doc}: no [[bench]] `{name}`");
        }
        for rest in text.split("BENCH_").skip(1) {
            let stem = word(rest);
            if rest[stem.len()..].starts_with(".json") {
                let file = format!("BENCH_{stem}.json");
                assert!(root.join(&file).exists(), "{doc} cites {file}, which is not committed");
            }
        }
        for dir in ["tests/", "examples/"] {
            for (i, _) in text.match_indices(dir) {
                let prefix = text[..i]
                    .bytes()
                    .rev()
                    .take_while(|b| b.is_ascii_alphanumeric() || b"_-/".contains(b))
                    .count();
                let end = i + dir.len() + word(&text[i + dir.len()..]).len();
                if text[end..].starts_with(".rs") {
                    let file = &text[i - prefix..end + 3];
                    assert!(root.join(file).exists(), "{doc} cites {file}, which does not exist");
                }
            }
        }
    }
}

#[test]
fn prelude_covers_the_advertised_types() {
    // Every name the prelude promises must exist and be usable.
    let _m: Machine = Machine::new(Default::default());
    let _c: QatConfig = QatConfig::paper();
    let _q: QatCoprocessor = QatCoprocessor::new(QatConfig::student());
    let _a: Aob = Aob::hadamard(8, 2);
    let mut ctx: PbpContext = PbpContext::new(8);
    let p: Pint = ctx.pint_mk(4, 7);
    assert_eq!(p.width(), 4);
    let _prog: PintProgram = PintProgram::new();
    let img = assemble("sys\n").unwrap();
    let mut mc: MultiCycleSim =
        MultiCycleSim::new(Machine::with_image(Default::default(), &img.words));
    mc.run().unwrap();
}
