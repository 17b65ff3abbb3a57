//! Packed bit-vector storage for AoB values.
//!
//! An [`Aob`] holds exactly `2^ways` bits ("entanglement channels"), packed
//! 64 per `u64` word, channel 0 in the least-significant bit of word 0. All
//! unused high bits of the final word (only possible when `ways < 6`) are
//! kept zero as a structural invariant, so word-level reductions never see
//! garbage.

use std::fmt;

/// Largest supported entanglement degree. `2^26` bits = 8 MiB per value,
/// comfortably beyond the paper's 16-way hardware while keeping one value
/// cache-friendly for tests.
pub const MAX_WAYS: u32 = 26;

const WORD_BITS: u64 = 64;

/// An Array-of-Bits value: the explicit representation of a `ways`-way
/// entangled superposed pbit.
///
/// The paper's Qat hardware fixes `ways = 16` (65,536-bit vectors); student
/// implementations used `ways = 8`. Here `ways` is per-value so the same
/// code exercises every configuration.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Aob {
    ways: u32,
    words: Vec<u64>,
}

impl Aob {
    /// Number of `u64` words needed for a `ways`-way value.
    #[inline]
    pub fn words_for(ways: u32) -> usize {
        assert!(ways <= MAX_WAYS, "ways {ways} exceeds MAX_WAYS {MAX_WAYS}");
        if ways >= 6 {
            1usize << (ways - 6)
        } else {
            1
        }
    }

    /// The all-zeros value (the Qat `zero` instruction).
    pub fn zeros(ways: u32) -> Self {
        Aob {
            ways,
            words: vec![0; Self::words_for(ways)],
        }
    }

    /// The all-ones value (the Qat `one` instruction): the pbit is 1 in
    /// every entanglement channel.
    pub fn ones(ways: u32) -> Self {
        let mut v = Self::zeros(ways);
        v.fill(true);
        v
    }

    /// Build from a channel-indexed bit closure (reference constructor used
    /// by tests and by the per-bit Hadamard reference).
    pub fn from_fn(ways: u32, mut f: impl FnMut(u64) -> bool) -> Self {
        let mut v = Self::zeros(ways);
        for e in 0..v.len() {
            if f(e) {
                v.set(e, true);
            }
        }
        v
    }

    /// Build a small value from the low `2^ways` bits of `bits`
    /// (channel 0 = bit 0). Only valid for `ways <= 6`.
    pub fn from_bits(ways: u32, bits: u64) -> Self {
        assert!(ways <= 6, "from_bits only supports ways <= 6");
        let mut v = Self::zeros(ways);
        v.words[0] = bits & v.last_word_mask();
        v
    }

    /// Build from a pre-computed word buffer (single-pass kernel output).
    /// The buffer must be exactly [`Aob::words_for`]`(ways)` long; padding
    /// bits are masked off so the zero-padding invariant holds regardless
    /// of what the kernel left there.
    pub(crate) fn from_raw_words(ways: u32, words: Vec<u64>) -> Self {
        debug_assert_eq!(words.len(), Self::words_for(ways));
        let mut v = Aob { ways, words };
        v.normalize();
        v
    }

    /// The backing word buffer itself (for kernels that exchange whole
    /// buffers). Callers must keep the length equal to [`Aob::words_for`]
    /// and re-establish the padding invariant.
    #[inline]
    pub(crate) fn words_vec_mut(&mut self) -> &mut Vec<u64> {
        &mut self.words
    }

    /// Entanglement degree of this value.
    #[inline]
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Number of entanglement channels, `2^ways`.
    #[inline]
    pub fn len(&self) -> u64 {
        1u64 << self.ways
    }

    /// True when the vector has no channels — never the case (there is
    /// always at least channel 0), provided for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Backing words, channel 0 in bit 0 of word 0.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable backing words. Callers must preserve the zero-padding
    /// invariant; [`Aob::normalize`] re-establishes it.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Mask of the valid bits within the final word.
    #[inline]
    pub(crate) fn last_word_mask(&self) -> u64 {
        if self.ways >= 6 {
            u64::MAX
        } else {
            (1u64 << (1u64 << self.ways)) - 1
        }
    }

    /// Re-establish the invariant that bits beyond `2^ways` are zero.
    #[inline]
    pub fn normalize(&mut self) {
        let m = self.last_word_mask();
        if let Some(last) = self.words.last_mut() {
            *last &= m;
        }
    }

    /// Read the bit at entanglement channel `e` (non-destructive measure).
    /// Channel numbers wrap modulo `2^ways`, mirroring how the 16-bit
    /// Tangled register index addresses a possibly-smaller student AoB.
    #[inline]
    pub fn get(&self, e: u64) -> bool {
        let e = e & (self.len() - 1);
        (self.words[(e / WORD_BITS) as usize] >> (e % WORD_BITS)) & 1 != 0
    }

    /// Write the bit at channel `e` (channel index wraps like [`get`]).
    ///
    /// [`get`]: Aob::get
    #[inline]
    pub fn set(&mut self, e: u64, v: bool) {
        let e = e & (self.len() - 1);
        let w = (e / WORD_BITS) as usize;
        let b = e % WORD_BITS;
        if v {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Set every channel to `v`.
    pub fn fill(&mut self, v: bool) {
        let fill = if v { u64::MAX } else { 0 };
        for w in &mut self.words {
            *w = fill;
        }
        self.normalize();
    }

    /// Iterate the channel values from channel 0 upward.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len()).map(move |e| self.get(e))
    }

    /// Collect the low `n` channels into a `u64` (test/debug helper).
    pub fn low_bits(&self, n: u32) -> u64 {
        assert!(n <= 64);
        let mut r = 0u64;
        for e in 0..(n as u64).min(self.len()) {
            r |= (self.get(e) as u64) << e;
        }
        r
    }

    /// Assert two values are compatible for a channel-wise operation.
    #[inline]
    pub(crate) fn check_same_ways(&self, other: &Aob) {
        assert_eq!(
            self.ways, other.ways,
            "AoB operands must have identical entanglement degree ({} vs {})",
            self.ways, other.ways
        );
    }
}

impl fmt::Debug for Aob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Aob({}-way; ", self.ways)?;
        let show = self.len().min(64);
        for e in (0..show).rev() {
            write!(f, "{}", self.get(e) as u8)?;
        }
        if self.len() > 64 {
            write!(f, "… pop={}", self.pop_all())?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_for_all_ways() {
        assert_eq!(Aob::words_for(0), 1);
        assert_eq!(Aob::words_for(5), 1);
        assert_eq!(Aob::words_for(6), 1);
        assert_eq!(Aob::words_for(7), 2);
        assert_eq!(Aob::words_for(16), 1024);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_WAYS")]
    fn words_for_rejects_oversize() {
        Aob::words_for(MAX_WAYS + 1);
    }

    #[test]
    fn zeros_ones_len() {
        for ways in [0u32, 1, 3, 6, 8, 12] {
            let z = Aob::zeros(ways);
            let o = Aob::ones(ways);
            assert_eq!(z.len(), 1 << ways);
            assert!(z.iter().all(|b| !b));
            assert!(o.iter().all(|b| b));
            // The padding invariant holds on ones():
            assert_eq!(o.words().last().unwrap() & !o.last_word_mask(), 0);
        }
    }

    #[test]
    fn get_set_roundtrip() {
        let mut v = Aob::zeros(10);
        for e in [0u64, 1, 63, 64, 511, 1023] {
            v.set(e, true);
            assert!(v.get(e));
            v.set(e, false);
            assert!(!v.get(e));
        }
    }

    #[test]
    fn channel_index_wraps() {
        let mut v = Aob::zeros(4); // 16 channels
        v.set(3, true);
        assert!(v.get(3 + 16));
        assert!(v.get(3 + 32));
        v.set(5 + 16, true); // wraps to channel 5
        assert!(v.get(5));
    }

    #[test]
    fn from_bits_small() {
        let v = Aob::from_bits(2, 0b1010);
        assert_eq!(v.low_bits(4), 0b1010);
        assert!(!v.get(0) && v.get(1) && !v.get(2) && v.get(3));
    }

    #[test]
    fn from_fn_matches_get() {
        let v = Aob::from_fn(8, |e| e % 3 == 0);
        for e in 0..256u64 {
            assert_eq!(v.get(e), e % 3 == 0);
        }
    }

    #[test]
    fn ways_zero_is_single_channel() {
        let mut v = Aob::zeros(0);
        assert_eq!(v.len(), 1);
        v.set(0, true);
        assert!(v.get(0));
        assert!(v.get(17)); // wraps to channel 0
    }

    #[test]
    fn debug_format_is_bounded() {
        let v = Aob::ones(16);
        let s = format!("{v:?}");
        assert!(s.contains("16-way"));
        assert!(s.contains("pop=65536"));
        assert!(s.len() < 200);
    }
}
