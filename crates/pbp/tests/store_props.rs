//! Property tests for `tangled-store/v1` ChunkStore snapshots: a
//! save→load round trip must be *observably equivalent* — the same
//! chunk patterns resolve to the same [`pbp_aob::ChunkId`]s, and a
//! replay of the memoized gate ops answers entirely from the loaded op
//! cache (zero fresh kernel compiles) — while any truncated or
//! bit-flipped container fails with a typed [`tangled_store::StoreError`]
//! instead of a panic or a silently wrong store.

use pbp_aob::{ChunkStore, GateOp};
use proptest::prelude::*;
use tangled_store::StoreError;

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

/// Build the store: intern every word, then run every op (populating the
/// memoized op cache). Returns the store and the ids each step produced.
fn build(w: &Workload) -> (ChunkStore, Vec<pbp_aob::ChunkId>, Vec<pbp_aob::ChunkId>) {
    let mut s = ChunkStore::new(w.ways);
    let interned: Vec<_> = w.words.iter().map(|&word| s.intern_word(word)).collect();
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
            prop_assert_eq!(loaded.intern_word(word), interned[i]);
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

    /// Every truncation of a valid snapshot fails with a typed error.
    #[test]
    fn truncation_is_a_typed_error(w in workload(), cut_sel in any::<u64>()) {
        let (orig, _, _) = build(&w);
        let bytes = orig.to_bytes();
        let cut = (cut_sel % bytes.len() as u64) as usize;
        match ChunkStore::from_bytes(&bytes[..cut]) {
            Err(
                StoreError::BadMagic
                | StoreError::Truncated(_)
                | StoreError::ChecksumMismatch { .. }
                | StoreError::MissingSection(_),
            ) => {}
            Err(e) => prop_assert!(false, "unexpected error class at cut {cut}: {e}"),
            Ok(_) => prop_assert!(false, "truncation to {cut} bytes loaded"),
        }
    }

    /// Every single-bit flip is either detected with a typed error or —
    /// never — silently accepted as a different store. (Flips in section
    /// padding can't exist: the container has none.)
    #[test]
    fn bit_flips_are_typed_errors(w in workload(), pos in any::<u64>(), bit in 0u8..8) {
        let (orig, _, _) = build(&w);
        let mut bytes = orig.to_bytes();
        let i = (pos % bytes.len() as u64) as usize;
        bytes[i] ^= 1 << bit;
        match ChunkStore::from_bytes(&bytes) {
            Err(_) => {} // every StoreError variant is acceptable; a panic is not
            Ok(loaded) => {
                // The only survivable flips would reproduce the identical
                // observable store (impossible for a real flip, but keep
                // the property falsifiable rather than assuming).
                prop_assert_eq!(loaded.to_bytes(), orig.to_bytes(),
                    "bit flip at byte {} bit {} loaded as a different store", i, bit);
            }
        }
    }
}

/// Loading another kind of container as a chunk snapshot is a kind
/// mismatch, not a parse attempt.
#[test]
fn wrong_kind_is_typed() {
    let path = std::env::temp_dir().join(format!("pbp-store-kind-{}.tgls", std::process::id()));
    tangled_store::ContainerWriter::new("other").write(&path).unwrap();
    assert!(matches!(
        ChunkStore::load(&path),
        Err(StoreError::WrongKind { .. })
    ));
    let _ = std::fs::remove_file(&path);
}
