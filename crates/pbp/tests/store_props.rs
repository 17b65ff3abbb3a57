//! Property tests for ChunkStore snapshots: a save→load round trip must
//! be *observably equivalent* — the same chunk patterns resolve to the
//! same [`pbp_aob::ChunkId`]s, and a replay of the memoized gate ops
//! answers entirely from the loaded op cache (zero fresh kernel
//! compiles) — while any truncated or bit-flipped snapshot fails with a
//! typed [`SnapshotError`] instead of a panic or a silently wrong store.

use pbp_aob::{Aob, ChunkStore, GateOp, SnapshotError};
use proptest::prelude::*;

/// A random interning workload at a sub-chunk degree: words to intern
/// plus memoized ops over whatever got interned.
#[derive(Debug, Clone)]
struct Workload {
    ways: u32,
    words: Vec<u64>,
    /// (op selector, a index, b index) into the interned-id list.
    ops: Vec<(u8, usize, usize)>,
}

fn workload() -> impl Strategy<Value = Workload> {
    (1u32..=6, proptest::collection::vec(any::<u64>(), 1..24)).prop_flat_map(|(ways, words)| {
        let n = words.len();
        proptest::collection::vec((0u8..4, 0..n, 0..n), 0..32)
            .prop_map(move |ops| Workload { ways, words: words.clone(), ops })
    })
}

/// `word` as a one-word chunk of a `ways`-degree store (padding masked).
fn chunk(ways: u32, word: u64) -> Aob {
    let mut v = Aob::zeros(ways);
    v.words_mut()[0] = word;
    v.normalize();
    v
}

/// Build the store: intern every word, then run every op (populating the
/// memoized op cache). Returns the store and the ids each step produced.
fn build(w: &Workload) -> (ChunkStore, Vec<pbp_aob::ChunkId>, Vec<pbp_aob::ChunkId>) {
    let mut s = ChunkStore::new(w.ways);
    let interned: Vec<_> = w.words.iter().map(|&word| s.intern(chunk(w.ways, word))).collect();
    let op_ids: Vec<_> = w
        .ops
        .iter()
        .map(|&(op, a, b)| match op {
            0 => s.not(interned[a]),
            1 => s.binop(GateOp::And, interned[a], interned[b]),
            2 => s.binop(GateOp::Or, interned[a], interned[b]),
            _ => s.binop(GateOp::Xor, interned[a], interned[b]),
        })
        .collect();
    (s, interned, op_ids)
}

proptest! {
    /// Save→load preserves every observable: chunk count and degree, the
    /// id every pattern resolves to, and the op cache — replaying the
    /// same ops on the loaded store returns identical ids with *every*
    /// lookup a hit (the "no redundant kernel compiles" contract the
    /// warm-start bench gates on).
    #[test]
    fn snapshot_round_trips_observably(w in workload()) {
        let (orig, interned, op_ids) = build(&w);
        let bytes = orig.to_bytes();
        let mut loaded = ChunkStore::from_bytes(&bytes).expect("own snapshot loads");
        prop_assert_eq!(loaded.ways(), orig.ways());
        prop_assert_eq!(loaded.len(), orig.len());

        // Same ChunkId resolution for every interned pattern...
        for (i, &word) in w.words.iter().enumerate() {
            prop_assert_eq!(loaded.intern(chunk(w.ways, word)), interned[i]);
        }
        // ...and an op replay that answers entirely from the cache.
        loaded.reset_stats();
        for (k, &(op, a, b)) in w.ops.iter().enumerate() {
            let got = match op {
                0 => loaded.not(interned[a]),
                1 => loaded.binop(GateOp::And, interned[a], interned[b]),
                2 => loaded.binop(GateOp::Or, interned[a], interned[b]),
                _ => loaded.binop(GateOp::Xor, interned[a], interned[b]),
            };
            prop_assert_eq!(got, op_ids[k]);
        }
        let stats = loaded.stats();
        prop_assert_eq!(stats.misses, 0, "warm replay must compile no kernels");
        prop_assert_eq!(stats.hits, w.ops.len() as u64);

        // Serialization is canonical: the loaded store re-serializes to
        // the identical bytes (chunks in id order, ops sorted).
        prop_assert_eq!(loaded.to_bytes(), bytes);
    }

    /// Every truncation of a valid snapshot fails with a typed error: the
    /// header fixes the length, so a cut is never read as a shorter store.
    #[test]
    fn every_truncation_is_a_typed_error(w in workload()) {
        let (orig, _, _) = build(&w);
        let bytes = orig.to_bytes();
        for cut in 0..bytes.len() {
            match ChunkStore::from_bytes(&bytes[..cut]) {
                Err(SnapshotError::BadMagic | SnapshotError::Truncated(_)) => {}
                Err(e) => prop_assert!(false, "unexpected error class at cut {cut}: {e}"),
                Ok(_) => prop_assert!(false, "truncation to {cut} bytes loaded"),
            }
        }
    }

    /// Every single-bit flip is a typed error: the magic, version and
    /// lengths are checked, and the trailing checksum covers every other
    /// byte.
    #[test]
    fn every_bit_flip_is_a_typed_error(w in workload()) {
        let (orig, _, _) = build(&w);
        let bytes = orig.to_bytes();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                prop_assert!(
                    ChunkStore::from_bytes(&flipped).is_err(),
                    "bit flip at byte {} bit {} loaded", i, bit
                );
            }
        }
    }
}

/// The retired sectioned layout (version 1, same magic) and foreign bytes
/// are typed errors, not parse attempts.
#[test]
fn retired_layout_and_foreign_bytes_are_typed() {
    let mut v1 = b"TGLSTORE".to_vec();
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(b"chunks\0\0");
    v1.extend_from_slice(&[0; 64]);
    assert!(matches!(ChunkStore::from_bytes(&v1), Err(SnapshotError::UnsupportedVersion(1))));
    for foreign in [&b""[..], b"TGLSTOR", b"\x7fELF\x02\x01\x01\0 and then some bytes"] {
        assert!(matches!(ChunkStore::from_bytes(foreign), Err(SnapshotError::BadMagic)));
    }
    let path = std::env::temp_dir().join(format!("pbp-store-v1-{}.tgls", std::process::id()));
    std::fs::write(&path, &v1).unwrap();
    assert!(matches!(ChunkStore::load(&path), Err(SnapshotError::UnsupportedVersion(1))));
    let _ = std::fs::remove_file(&path);
    assert!(matches!(ChunkStore::load(&path), Err(SnapshotError::Io(_))));
}
