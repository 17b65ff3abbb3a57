//! Non-destructive measurement operations (paper §2.7).
//!
//! Measuring a pbit never collapses it: [`Aob::meas`] reads one channel,
//! [`Aob::next`] returns the next 1-valued channel after a given position,
//! and [`Aob::pop_after`] counts 1s after a position (the paper's proposed
//! `pop` instruction). On top of these, the summary reductions ANY / ALL /
//! POP from the LCPC'20 PBP model are provided both directly
//! ([`Aob::any`], [`Aob::all`], [`Aob::pop_all`]) and by the exact
//! `next`+`meas` recipes the paper prescribes
//! ([`Aob::any_via_next`], [`Aob::all_via_next`], [`Aob::pop_via_parts`]).

use crate::bitvec::Aob;

impl Aob {
    /// `meas $d,@a`: the value of entanglement channel `d` — simply
    /// `@a[$d]`. Non-destructive. Equivalent to [`Aob::get`]; kept as a
    /// named alias so simulator code reads like the ISA.
    #[inline]
    pub fn meas(&self, d: u64) -> bool {
        self.get(d)
    }

    /// `next $d,@a`: the lowest entanglement channel number **strictly
    /// greater than** `d` holding a 1; `None` if no such channel exists
    /// (paper §2.7).
    ///
    /// # The hardware `0` sentinel
    ///
    /// The paper's ISA overloads a return value of `0` to mean "no later
    /// 1-channel". That in-band sentinel is unambiguous only because a
    /// real hit on channel 0 is unreachable — results are strictly greater
    /// than `d` and `d` is unsigned, so the smallest reportable channel is
    /// 1 — yet it kept leaking ambiguity into callers (a 1-valued channel
    /// 0 is *invisible* to `next`; §2.7 pairs it with `meas(0)`, see
    /// [`Aob::any_via_next`]). The software model therefore returns a
    /// typed [`Option`]: `None` is "no further channel", and the in-band
    /// `0` encoding exists **only** at the ISA register boundary, where
    /// the Qat dispatcher maps `None` back to `0` for the destination
    /// GPR. Three consequences pinned by tests:
    ///
    /// * `d >= len - 1` always returns `None` (nothing lies strictly
    ///   after),
    /// * an all-zeros vector returns `None` for every `d`,
    /// * a vector whose only 1 is channel 0 returns `None` everywhere — a
    ///   caller must follow up with `meas(0)` to distinguish it from
    ///   all-zeros,
    ///
    /// and a real hit is always `Some(e)` with `e > d > 0` possible —
    /// `Some(0)` never occurs.
    ///
    /// The implementation mirrors the Figure-8 hardware: mask off channels
    /// `0..=d` (the barrel-shifter step), then count trailing zeros
    /// word-by-word (the recursive-decomposition step).
    pub fn next(&self, d: u64) -> Option<u64> {
        let n = self.len();
        let start = d.saturating_add(1);
        if start >= n {
            return None;
        }
        let mut w = (start / 64) as usize;
        let bit = start % 64;
        // First (partial) word: clear bits below `start`.
        let mut cur = self.words()[w] & (u64::MAX << bit);
        loop {
            if cur != 0 {
                return Some((w as u64) * 64 + cur.trailing_zeros() as u64);
            }
            w += 1;
            if w >= self.words().len() {
                return None;
            }
            cur = self.words()[w];
        }
    }

    /// Per-bit reference for [`Aob::next`] — the oracle used in
    /// differential tests.
    pub fn next_reference(&self, d: u64) -> Option<u64> {
        (d.saturating_add(1)..self.len()).find(|&e| self.get(e))
    }

    /// `pop $d,@a` (§2.7, specified but left out of the class projects):
    /// the number of 1 bits in channels **strictly after** `d`.
    pub fn pop_after(&self, d: u64) -> u64 {
        let n = self.len();
        let start = d.saturating_add(1);
        if start >= n {
            return 0;
        }
        let w0 = (start / 64) as usize;
        let bit = start % 64;
        let mut count = (self.words()[w0] & (u64::MAX << bit)).count_ones() as u64;
        for w in &self.words()[w0 + 1..] {
            count += w.count_ones() as u64;
        }
        count
    }

    /// Total population count: the probability of the pbit being 1 in
    /// parts per `2^ways`. Note that for a 16-way value this ranges to
    /// 65,536, one more than fits in a 16-bit Tangled register — which is
    /// exactly why the paper splits POP into `pop_after` + `meas(0)`.
    pub fn pop_all(&self) -> u64 {
        self.words().iter().map(|w| w.count_ones() as u64).sum()
    }

    /// The paper's overflow-safe POP recipe: `pop(0) + meas(0)`, returned
    /// as `(low_16_bits, overflowed)` exactly as 16-bit Tangled software
    /// would see it.
    pub fn pop_via_parts(&self) -> (u16, bool) {
        let total = self.pop_after(0) + self.meas(0) as u64;
        ((total & 0xFFFF) as u16, total > 0xFFFF)
    }

    /// ANY reduction: 1 if the pbit has a non-zero probability of being 1.
    pub fn any(&self) -> bool {
        self.words().iter().any(|&w| w != 0)
    }

    /// ALL reduction: 1 if the pbit has zero probability of being 0.
    pub fn all(&self) -> bool {
        let (last, rest) = self.words().split_last().unwrap();
        rest.iter().all(|&w| w == u64::MAX) && *last == self.last_word_mask()
    }

    /// ANY implemented with Tangled-visible operations only, following
    /// §2.7 verbatim: "if next is used to search for the next 1 after
    /// entanglement channel 0 and returns a non-0 value, ANY is true.
    /// However, if that returned 0, we would still need to test
    /// entanglement channel 0, which can be done using meas."
    pub fn any_via_next(&self) -> bool {
        self.next(0).is_some() || self.meas(0)
    }

    /// ALL implemented per §2.7: "essentially the same logic can be used
    /// to test for ALL, except ALL of @a would essentially be computed as
    /// not of the result of applying ANY to not @a."
    pub fn all_via_next(&self) -> bool {
        let n = self.not_of();
        !(n.next(0).is_some() || n.meas(0))
    }

    /// Enumerate every 1-valued channel using only `meas`/`next`-style
    /// access, as Tangled software would (the `O(2^E)` read-out loop the
    /// paper contrasts with O(1) summaries). Starts by measuring channel 0,
    /// then follows `next` until it reports no further channel.
    pub fn enumerate_ones(&self) -> Vec<u64> {
        let mut out = Vec::new();
        if self.meas(0) {
            out.push(0);
        }
        let mut e = 0u64;
        while let Some(nx) = self.next(e) {
            out.push(nx);
            e = nx;
        }
        out
    }

    /// Full read-out by looping `meas` over every channel — the
    /// brute-force `O(2^E)` enumeration of §2.7, kept as the oracle that
    /// `tests/properties.rs` checks [`Aob::enumerate_ones`] against.
    pub fn enumerate_ones_by_meas(&self) -> Vec<u64> {
        (0..self.len()).filter(|&e| self.meas(e)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_worked_example_next() {
        // §2.7: had @123,4 ; lex $8,42 ; next $8,@123  =>  48.
        // "had @123,4 creates a repeating pattern of sixteen 0 followed by
        // sixteen 1, and the first non-0 bit after position 42 in that
        // pattern is in entanglement channel 48."
        let a = Aob::hadamard(16, 4);
        assert_eq!(a.next(42), Some(48));
    }

    #[test]
    fn next_strictly_after() {
        let mut a = Aob::zeros(8);
        a.set(10, true);
        assert_eq!(a.next(9), Some(10));
        assert_eq!(a.next(10), None); // strictly after — 10 itself not seen
        assert_eq!(a.next(0), Some(10));
    }

    #[test]
    fn next_returns_none_when_empty() {
        let a = Aob::zeros(10);
        for d in [0u64, 5, 1022, 1023] {
            assert_eq!(a.next(d), None);
        }
    }

    #[test]
    fn next_never_reports_channel_zero_as_found() {
        // Channel 0's value is invisible to next (the §2.7 ambiguity that
        // meas resolves); the typed result makes "not found" explicit
        // instead of reusing 0.
        let mut a = Aob::zeros(8);
        a.set(0, true);
        assert_eq!(a.next(0), None);
        assert!(a.meas(0));
    }

    #[test]
    fn next_word_boundaries() {
        let mut a = Aob::zeros(10);
        for &e in &[63u64, 64, 127, 128, 1023] {
            a.set(e, true);
        }
        assert_eq!(a.next(0), Some(63));
        assert_eq!(a.next(63), Some(64));
        assert_eq!(a.next(64), Some(127));
        assert_eq!(a.next(127), Some(128));
        assert_eq!(a.next(128), Some(1023));
        assert_eq!(a.next(1023), None);
    }

    #[test]
    fn next_matches_reference_on_patterns() {
        for ways in [4u32, 6, 8, 11] {
            for k in 0..ways {
                let a = Aob::hadamard(ways, k);
                for d in 0..a.len().min(300) {
                    assert_eq!(a.next(d), a.next_reference(d), "ways={ways} k={k} d={d}");
                }
            }
        }
    }

    #[test]
    fn next_sentinel_edge_cases_match_reference() {
        // The three formerly-sentinel-ambiguous cases from the `next`
        // docs, each checked against the per-bit oracle so the invariant
        // can't silently drift between the fast path and the reference.
        for ways in [3u32, 6, 8, 10] {
            let len = 1u64 << ways;

            // d >= len-1: nothing can lie strictly after.
            let full = Aob::ones(ways);
            for d in [len - 1, len, len + 7, u64::MAX] {
                assert_eq!(full.next(d), None, "ways={ways} d={d}");
                assert_eq!(full.next(d), full.next_reference(d));
            }

            // All-zeros: None for every probe position.
            let zero = Aob::zeros(ways);
            for d in [0u64, 1, len / 2, len - 2, len - 1, u64::MAX] {
                assert_eq!(zero.next(d), None, "ways={ways} d={d}");
                assert_eq!(zero.next(d), zero.next_reference(d));
            }

            // Channel-0-only: indistinguishable from all-zeros via next
            // alone; meas(0) is the §2.7 disambiguator.
            let mut only0 = Aob::zeros(ways);
            only0.set(0, true);
            for d in [0u64, 1, len - 2, len - 1] {
                assert_eq!(only0.next(d), None, "ways={ways} d={d}");
                assert_eq!(only0.next(d), only0.next_reference(d));
            }
            assert_ne!(only0.meas(0), zero.meas(0));
            assert_ne!(only0.any_via_next(), zero.any_via_next());

            // Top-bit-only: the last channel is reachable from every
            // earlier probe but not from itself.
            let mut top = Aob::zeros(ways);
            top.set(len - 1, true);
            for d in [0u64, len / 2, len - 2] {
                assert_eq!(top.next(d), Some(len - 1), "ways={ways} d={d}");
                assert_eq!(top.next(d), top.next_reference(d));
            }
            assert_eq!(top.next(len - 1), None);
            assert_eq!(top.next(len - 1), top.next_reference(len - 1));
        }
    }

    #[test]
    fn next_none_means_empty_suffix_and_some_is_never_zero() {
        // Sweep assorted patterns: whenever next returns None the suffix
        // strictly after d really is all-zeros, and a Some hit is never
        // channel 0 (so the ISA's 0 encoding stays unambiguous).
        for ways in [4u32, 8] {
            for k in 0..ways {
                let a = Aob::hadamard(ways, k);
                for d in 0..a.len() {
                    match a.next(d) {
                        None => {
                            assert_eq!(a.pop_after(d), 0, "ways={ways} k={k} d={d}")
                        }
                        Some(e) => assert!(e > d && e != 0, "ways={ways} k={k} d={d}"),
                    }
                }
            }
        }
    }

    #[test]
    fn pop_after_semantics() {
        let mut a = Aob::zeros(8);
        a.set(0, true);
        a.set(5, true);
        a.set(200, true);
        assert_eq!(a.pop_after(0), 2); // channel 0 excluded
        assert_eq!(a.pop_after(4), 2);
        assert_eq!(a.pop_after(5), 1);
        assert_eq!(a.pop_after(200), 0);
        assert_eq!(a.pop_all(), 3);
    }

    #[test]
    fn pop_via_parts_overflow() {
        // A full 16-way ones vector has POP = 65,536 = 0x10000: the value
        // that cannot fit a 16-bit register.
        let a = Aob::ones(16);
        let (low, ovf) = a.pop_via_parts();
        assert_eq!(low, 0);
        assert!(ovf);
        let h = Aob::hadamard(16, 3);
        let (low, ovf) = h.pop_via_parts();
        assert_eq!(low, 32_768);
        assert!(!ovf);
    }

    #[test]
    fn any_all_direct_and_via_next_agree() {
        let cases = [
            Aob::zeros(8),
            Aob::ones(8),
            Aob::hadamard(8, 0),
            Aob::hadamard(8, 7),
            {
                let mut v = Aob::zeros(8);
                v.set(0, true);
                v
            },
            {
                let mut v = Aob::ones(8);
                v.set(0, false);
                v
            },
            {
                let mut v = Aob::zeros(8);
                v.set(255, true);
                v
            },
        ];
        for a in &cases {
            assert_eq!(a.any(), a.any_via_next(), "{a:?}");
            assert_eq!(a.all(), a.all_via_next(), "{a:?}");
            assert_eq!(a.any(), a.pop_all() > 0);
            assert_eq!(a.all(), a.pop_all() == a.len());
        }
    }

    #[test]
    fn all_respects_padding_for_small_ways() {
        // ways=3 vector: only 8 valid bits, the rest of the word is padding.
        let a = Aob::ones(3);
        assert!(a.all());
        let mut b = a.clone();
        b.set(7, false);
        assert!(!b.all());
    }

    #[test]
    fn enumerate_ones_both_ways_agree() {
        let mut a = Aob::zeros(9);
        for &e in &[0u64, 1, 2, 100, 300, 511] {
            a.set(e, true);
        }
        let via_next = a.enumerate_ones();
        let via_meas = a.enumerate_ones_by_meas();
        assert_eq!(via_next, vec![0, 1, 2, 100, 300, 511]);
        assert_eq!(via_next, via_meas);
    }

    #[test]
    fn enumerate_empty_and_full() {
        assert!(Aob::zeros(6).enumerate_ones().is_empty());
        let full = Aob::ones(4);
        assert_eq!(full.enumerate_ones(), (0..16u64).collect::<Vec<_>>());
    }
}
