//! Packed hybrid run encoding for the RE representation.
//!
//! A flat `Vec<Run>` spends 16 bytes per run (a 4-byte interned symbol id,
//! padding, and an 8-byte chunk length) even though almost every run in
//! practice is "a few all-zeros chunks" or "a few all-ones chunks".
//! [`PackedRuns`] stores a period as a sequence of little `u32` command
//! words instead, with the command tag packed into the low 3 bits:
//!
//! | tag | name     | payload (`w >> 3`, 29 bits) | extra word           |
//! |-----|----------|-----------------------------|----------------------|
//! | 0   | `Zeros`  | run length in chunks        | —                    |
//! | 1   | `Ones`   | run length in chunks        | —                    |
//! | 2   | `Lit`    | symbol id                   | — (single chunk)     |
//! | 3   | `LitRun` | run length in chunks        | raw symbol id        |
//! | 4   | `Extend` | extra chunks                | — (grows prior run)  |
//!
//! so the common constant runs cost one word (4 bytes, a 4x saving), a
//! single odd chunk costs one word, and an arbitrary run costs two.
//!
//! **Literal spill rule.** Length and symbol payloads are 29 bits. A run
//! longer than `2^29 - 1` chunks spills: the base command carries the
//! first `2^29 - 1` chunks and one `Extend` command follows per further
//! `2^29 - 1` chunks, growing the *same* logical run (so spilling never
//! changes the decoded run list, only the word count). A single-chunk
//! symbol whose raw id does not fit 29 bits uses the two-word `LitRun`
//! form instead of `Lit`.
//!
//! Every run encodes on its own, so the words are a pure function of the
//! run list: `decode(pack(runs)) == runs`, and equal run lists produce
//! identical words, so the derived equality on [`PackedRuns`] coincides
//! with run-list equality and corpus replays are bit-stable.

use crate::re::Run;
use crate::{Sym, SYM_ONE, SYM_ZERO};

/// Low bits of every command word that carry the tag.
const TAG_BITS: u32 = 3;
/// Largest length / symbol payload a single command word carries.
const MAX_PAYLOAD: u64 = (1u64 << (32 - TAG_BITS)) - 1;

const TAG_ZEROS: u32 = 0;
const TAG_ONES: u32 = 1;
const TAG_LIT: u32 = 2;
const TAG_LIT_RUN: u32 = 3;
const TAG_EXTEND: u32 = 4;

/// A period's run list in the packed hybrid encoding. See the module
/// docs for the format.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PackedRuns {
    words: Vec<u32>,
    runs: u32,
    chunks: u64,
}

impl PackedRuns {
    /// Encode a run list (adjacent runs must already be merged and every
    /// length non-zero — the RE layer's canonical form).
    pub fn pack(runs: &[Run]) -> PackedRuns {
        debug_assert!(runs.iter().all(|r| r.len > 0));
        let mut words = Vec::with_capacity(runs.len());
        let mut chunks = 0u64;
        for &r in runs {
            encode_run(&mut words, r);
            chunks += r.len;
        }
        PackedRuns { words, runs: runs.len() as u32, chunks }
    }

    /// Logical (decoded) run count.
    pub fn runs(&self) -> usize {
        self.runs as usize
    }

    /// Total chunks the period covers.
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Stored command words (the packed footprint, in `u32`s).
    pub fn words(&self) -> usize {
        self.words.len()
    }

    /// Expand back to the flat run list.
    pub fn decode(&self) -> Vec<Run> {
        self.iter().collect()
    }

    /// Iterate the logical runs, streaming straight off the command words.
    pub fn iter(&self) -> RunIter<'_> {
        RunIter { words: &self.words, k: 0 }
    }
}

/// Emit one run as command words, applying the literal spill rule.
fn encode_run(words: &mut Vec<u32>, r: Run) {
    let first = r.len.min(MAX_PAYLOAD);
    if r.sym == SYM_ZERO {
        words.push(TAG_ZEROS | ((first as u32) << TAG_BITS));
    } else if r.sym == SYM_ONE {
        words.push(TAG_ONES | ((first as u32) << TAG_BITS));
    } else if r.len == 1 && (r.sym.raw() as u64) <= MAX_PAYLOAD {
        words.push(TAG_LIT | (r.sym.raw() << TAG_BITS));
    } else {
        words.push(TAG_LIT_RUN | ((first as u32) << TAG_BITS));
        words.push(r.sym.raw());
    }
    let mut rest = r.len - first;
    while rest > 0 {
        let take = rest.min(MAX_PAYLOAD);
        words.push(TAG_EXTEND | ((take as u32) << TAG_BITS));
        rest -= take;
    }
}

/// Iterator over a [`PackedRuns`]'s logical runs.
pub struct RunIter<'a> {
    words: &'a [u32],
    k: usize,
}

impl Iterator for RunIter<'_> {
    type Item = Run;

    fn next(&mut self) -> Option<Run> {
        let words = self.words;
        let &w = words.get(self.k)?;
        let tag = w & ((1 << TAG_BITS) - 1);
        let payload = (w >> TAG_BITS) as u64;
        self.k += 1;
        let mut run = match tag {
            TAG_ZEROS => Run { sym: SYM_ZERO, len: payload },
            TAG_ONES => Run { sym: SYM_ONE, len: payload },
            TAG_LIT => Run { sym: Sym::from_raw(payload as u32), len: 1 },
            TAG_LIT_RUN => {
                let sym = Sym::from_raw(words[self.k]);
                self.k += 1;
                Run { sym, len: payload }
            }
            _ => unreachable!("tag {tag} cannot start a run"),
        };
        // Fold any spill continuation into the logical run.
        while let Some(&w) = words.get(self.k) {
            if w & ((1 << TAG_BITS) - 1) != TAG_EXTEND {
                break;
            }
            run.len += (w >> TAG_BITS) as u64;
            self.k += 1;
        }
        Some(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbp_aob::ChunkId;

    fn run(sym: u32, len: u64) -> Run {
        Run { sym: ChunkId::from_raw(sym), len }
    }

    fn roundtrip(runs: &[Run]) -> PackedRuns {
        let p = PackedRuns::pack(runs);
        assert_eq!(p.decode(), runs, "decode(pack) must be exact");
        assert_eq!(p.runs(), runs.len());
        assert_eq!(p.chunks(), runs.iter().map(|r| r.len).sum::<u64>());
        p
    }

    #[test]
    fn constant_runs_cost_one_word() {
        let p = roundtrip(&[run(0, 1000), run(1, 7)]);
        assert_eq!(p.words(), 2);
    }

    #[test]
    fn literal_forms() {
        // Single odd chunk: one word. Multi-chunk odd symbol: two words.
        let p = roundtrip(&[run(9, 1)]);
        assert_eq!(p.words(), 1);
        let p = roundtrip(&[run(9, 5)]);
        assert_eq!(p.words(), 2);
    }

    #[test]
    fn spill_rule_splits_giant_runs() {
        // 2^33 chunks: base word + Extend continuations, one logical run.
        let p = roundtrip(&[run(0, 1 << 33), run(1, 1)]);
        assert_eq!(p.runs(), 2);
        assert!(p.words() > 2, "giant run must spill");
    }

    #[test]
    fn aperiodic_lists_stay_exact() {
        // No structure: every run distinct. Must round-trip exactly and
        // cost at most two words per run.
        let runs: Vec<Run> = (0..100).map(|i| run(6 + i, 1 + (i as u64 % 9))).collect();
        let p = roundtrip(&runs);
        assert!(p.words() <= 2 * runs.len());
    }

    #[test]
    fn packing_is_deterministic() {
        let mut runs = Vec::new();
        for i in 0..200u32 {
            runs.push(run(i % 5, 1 + u64::from(i % 3)));
        }
        let mut merged: Vec<Run> = Vec::new();
        for r in runs {
            match merged.last_mut() {
                Some(l) if l.sym == r.sym => l.len += r.len,
                _ => merged.push(r),
            }
        }
        let a = PackedRuns::pack(&merged);
        let b = PackedRuns::pack(&merged);
        assert_eq!(a, b);
        assert_eq!(a.decode(), b.decode());
    }
}
