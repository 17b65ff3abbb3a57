//! Shared driver plumbing for the `tangled` CLI, the `qat-fuzz` binary,
//! and the conformance tests: program loading (`.s` assembly or `.vmem`
//! memory images) and the `; key value` corpus-header conventions.
//!
//! Both binaries used to carry private copies of this logic; keeping it in
//! the library means a reproducer written by the fuzzer is read back under
//! exactly the same rules by the CLI, the replay loop, and the test suite.
//! The bounded run-to-halt loop itself lives on the engine layer
//! ([`tangled_sim::Core::run_with`]) so every simulator model shares it
//! too.

use std::path::{Path, PathBuf};

use qat_coproc::StorageBackend;
use tangled_asm::{assemble_with, AsmOptions};
use tangled_sim::{DiffConfig, VmemImage};

/// Load a program as memory words: a `.vmem` pre-assembled image, or
/// anything else as assembly source.
pub fn load_words(path: &str, expand_reversible: bool) -> Result<Vec<u16>, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if path.ends_with(".vmem") {
        let vm = VmemImage::parse(&src).map_err(|e| format!("{path}: {e}"))?;
        let top = vm.words.keys().next_back().copied().unwrap_or(0);
        let mut words = vec![0u16; top as usize + 1];
        for (&a, &w) in &vm.words {
            words[a as usize] = w;
        }
        return Ok(words);
    }
    let opts = AsmOptions { expand_reversible, ..Default::default() };
    assemble_with(&src, &opts).map(|img| img.words).map_err(|e| format!("{path}:{e}"))
}

/// Check a `--ways` argument against backend `b`'s supported range. A
/// `job` (anything run through `serve`) is further capped at
/// [`pbp_aob::MAX_WAYS`]: `difftest::capture` expands all 256 registers to
/// explicit vectors, which stop there.
pub fn check_ways(b: StorageBackend, ways: u32, job: bool) -> Result<(), String> {
    let be = qat_coproc::backend_entry(b);
    if !be.supports_ways(ways) {
        return Err(format!(
            "backend `{}` supports ways {}..={}, got {} (see `tangled backends`)",
            be.backend, be.min_ways, be.max_ways, ways
        ));
    }
    if job && ways > pbp_aob::MAX_WAYS {
        return Err(format!(
            "--ways {ways}: jobs capture every register as an explicit vector, so at most {} ways",
            pbp_aob::MAX_WAYS
        ));
    }
    Ok(())
}

/// Parse a `; key value` numeric header from a corpus reproducer (the
/// fuzzer writes them; [`corpus_diff_config`] reads them back).
pub fn corpus_header(text: &str, key: &str, default: u64) -> u64 {
    text.lines()
        .filter_map(|l| l.trim().strip_prefix(';'))
        .filter_map(|l| l.trim().strip_prefix(key))
        .find_map(|rest| rest.trim().parse().ok())
        .unwrap_or(default)
}

/// The differential-oracle configuration a corpus reproducer pins via its
/// headers (`; ways N`, `; constant-registers 0|1`), on the given Qat
/// storage backend.
pub fn corpus_diff_config(text: &str, backend: StorageBackend) -> DiffConfig {
    DiffConfig {
        ways: corpus_header(text, "ways", 8) as u32,
        constant_registers: corpus_header(text, "constant-registers", 0) != 0,
        backend,
        ..Default::default()
    }
}

/// Sorted `.s` reproducers in a corpus directory. A missing directory is
/// an empty corpus, not an error (the fuzzer creates it on first write).
pub fn corpus_files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "s"))
        .collect();
    paths.sort();
    paths
}

/// One corpus program ready to replay: a display label plus its assembly
/// text (headers included).
#[derive(Debug, Clone)]
pub struct CorpusProgram {
    /// Where the program came from — a journal entry name or a file path.
    pub label: String,
    /// The reassemblable program text.
    pub text: String,
}

/// All programs in a corpus directory, in deterministic order.
///
/// When the directory holds a `corpus.tsdb` journal (see
/// [`tangled_store::CorpusDb`]), the database is authoritative and its
/// entries are returned in insertion order. Otherwise discovery falls
/// back to the legacy loose-file layout: sorted `*.s` files — so the
/// checked-in seed reproducers keep replaying with or without a journal.
pub fn corpus_programs(dir: &Path) -> Result<Vec<CorpusProgram>, String> {
    let db_path = tangled_store::CorpusDb::dir_path(dir);
    if db_path.exists() {
        let db = tangled_store::CorpusDb::open_existing(&db_path)
            .map_err(|e| format!("{}: {e}", db_path.display()))?;
        return Ok(db
            .entries()
            .iter()
            .map(|e| CorpusProgram { label: e.name.clone(), text: e.text.clone() })
            .collect());
    }
    corpus_files(dir)
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p)
                .map_err(|e| format!("{}: {e}", p.display()))?;
            Ok(CorpusProgram { label: p.display().to_string(), text })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_headers_round_trip() {
        let text = "; divergence reproducer\n; ways 12\n; constant-registers 1\nsys\n";
        assert_eq!(corpus_header(text, "ways", 8), 12);
        assert_eq!(corpus_header(text, "constant-registers", 0), 1);
        assert_eq!(corpus_header(text, "missing", 7), 7);
        let cfg = corpus_diff_config(text, StorageBackend::Eager);
        assert_eq!((cfg.ways, cfg.constant_registers), (12, true));
        assert_eq!(cfg.backend, StorageBackend::Eager);
    }

    #[test]
    fn loads_assembly_and_vmem_identically() {
        let dir = std::env::temp_dir().join("tangled-runner-test");
        std::fs::create_dir_all(&dir).unwrap();
        let asm_path = dir.join("p.s");
        std::fs::write(&asm_path, "lex $1,21\nadd $1,$1\nsys\n").unwrap();
        let words = load_words(asm_path.to_str().unwrap(), false).unwrap();
        let vmem_path = dir.join("p.vmem");
        std::fs::write(&vmem_path, VmemImage::from_words(&words).render()).unwrap();
        assert_eq!(load_words(vmem_path.to_str().unwrap(), false).unwrap(), words);
        assert!(load_words("no/such/file.s", false).is_err());
    }

    #[test]
    fn checked_in_corpus_is_discovered() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fuzz/corpus");
        let files = corpus_files(&dir);
        assert!(files.len() >= 5, "seed corpus expected, found {}", files.len());
        assert!(files.windows(2).all(|w| w[0] < w[1]), "sorted");
        assert!(corpus_files(Path::new("no/such/dir")).is_empty());
        // Without a journal, program discovery is the loose-file layout.
        let programs = corpus_programs(&dir).unwrap();
        assert_eq!(programs.len(), files.len());
    }

    #[test]
    fn corpus_programs_prefers_the_journal() {
        let dir = std::env::temp_dir()
            .join(format!("tangled-runner-corpus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("loose.s"), "; ways 8\nsys\n").unwrap();
        // Loose layout first...
        assert_eq!(corpus_programs(&dir).unwrap().len(), 1);
        // ...then a journal appears and becomes authoritative.
        let mut db = tangled_store::CorpusDb::open(&tangled_store::CorpusDb::dir_path(&dir))
            .unwrap();
        db.insert(tangled_store::CorpusEntry::from_text("a", "; ways 8\nadd $1,$1\nsys\n", 8, false))
            .unwrap();
        db.insert(tangled_store::CorpusEntry::from_text("b", "; ways 8\nnot @1\nsys\n", 8, false))
            .unwrap();
        let programs = corpus_programs(&dir).unwrap();
        assert_eq!(programs.len(), 2);
        assert_eq!(programs[0].label, "a");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
