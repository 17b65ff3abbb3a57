//! Shared driver plumbing for the `tangled` CLI, the `qat-fuzz` binary,
//! and the conformance tests: program loading (`.s` assembly or `.vmem`
//! memory images), CLI bounds, and the reproducer corpus — a directory of
//! loose `.s` files with `; key value` headers.
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

/// Most worker threads a `--workers` flag may ask for. Pools spawn every
/// worker up front, so an unbounded count would be an unbounded number of
/// OS threads.
pub const MAX_WORKERS: usize = 256;

/// Check a `--workers` argument against `1..=`[`MAX_WORKERS`].
pub fn check_workers(n: usize) -> Result<(), String> {
    if (1..=MAX_WORKERS).contains(&n) {
        Ok(())
    } else {
        Err(format!("--workers must be in 1..={MAX_WORKERS}, got {n}"))
    }
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

/// Save a reproducer as `<name>.s` in `dir` (created if missing), unless
/// a `.s` file there already holds exactly `text`: then nothing is
/// written and the result is `None`. The files are the corpus's only
/// state, so this dedup holds across workers and across campaigns. A
/// name already taken by another program gets a `_1`, `_2`, ... suffix
/// rather than overwriting it.
pub fn save_reproducer(dir: &Path, name: &str, text: &str) -> std::io::Result<Option<PathBuf>> {
    for existing in corpus_files(dir) {
        if std::fs::read(&existing)? == text.as_bytes() {
            return Ok(None);
        }
    }
    std::fs::create_dir_all(dir)?;
    let mut path = dir.join(format!("{name}.s"));
    for n in 1.. {
        if !path.exists() {
            break;
        }
        path = dir.join(format!("{name}_{n}.s"));
    }
    std::fs::write(&path, text)?;
    Ok(Some(path))
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
    }

    #[test]
    fn save_reproducer_dedups_by_text() {
        let dir = std::env::temp_dir()
            .join(format!("tangled-runner-save-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (a, b) = ("; ways 8\nadd $1,$1\nsys\n", "; ways 8\nnot @1\nsys\n");
        assert_eq!(save_reproducer(&dir, "a", a).unwrap(), Some(dir.join("a.s")));
        assert_eq!(save_reproducer(&dir, "b", a).unwrap(), None);
        assert_eq!(corpus_files(&dir), [dir.join("a.s")]);
        assert_eq!(save_reproducer(&dir, "b", b).unwrap(), Some(dir.join("b.s")));
        assert_eq!(corpus_files(&dir), [dir.join("a.s"), dir.join("b.s")]);
        assert_eq!(std::fs::read_to_string(dir.join("b.s")).unwrap(), b);
        // A taken name never overwrites another program.
        let c = "; ways 4\nnot @1\nsys\n";
        assert_eq!(save_reproducer(&dir, "a", c).unwrap(), Some(dir.join("a_1.s")));
        assert_eq!(std::fs::read_to_string(dir.join("a.s")).unwrap(), a);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
