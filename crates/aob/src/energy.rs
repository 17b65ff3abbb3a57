//! Switching-energy accounting (paper §2.2 and §5).
//!
//! The paper motivates the reversible (swap-based) gates by their suitability
//! for **adiabatic logic**: "adiabatic logic reduces power consumption by
//! balancing every logic 1 with a logic 0; thus, power is neither created
//! nor absorbed, but merely re-routed."
//!
//! This module provides a simple first-order energy model over AoB register
//! updates:
//!
//! * **Conventional CMOS model** — energy proportional to the number of bit
//!   *toggles* (output bits that change value), the classic `α·C·V²` dynamic
//!   power proxy.
//! * **Adiabatic model** — toggles that merely *re-route* charge are free;
//!   only the imbalance between created 1s and destroyed 1s costs energy.
//!   Under this model `swap`/`cswap` are exactly free ("billiard-ball
//!   conservancy"), while `not` of a biased vector is maximally expensive.
//!
//! The [`EnergyMeter`] accumulates both measures so the Qat coprocessor
//! can report the §5 trade-off quantitatively.

use crate::bitvec::Aob;
use crate::storage::WriteDelta;

/// Global telemetry mirrors of the energy counters. Additive across all
/// meters; `absorb` is deliberately not mirrored (the absorbed counts
/// were already reported when recorded).
mod telem {
    use tangled_telemetry::Counter;

    pub static TOGGLES: Counter = Counter::new("energy.toggles");
    pub static IMBALANCE: Counter = Counter::new("energy.imbalance");
    pub static WRITES: Counter = Counter::new("energy.writes");
}

/// Which first-order energy model to charge an update against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnergyModel {
    /// Dynamic-power proxy: each toggled output bit costs 1 unit.
    Conventional,
    /// Adiabatic logic: only the net imbalance of created vs destroyed 1s
    /// costs; re-routed charge is free.
    Adiabatic,
}

/// Accumulator of switching activity across a sequence of register writes.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct EnergyMeter {
    /// Total toggled bits (conventional-model units).
    pub toggles: u64,
    /// Total |Δ popcount| (adiabatic-model units).
    pub imbalance: u64,
    /// Number of register writes recorded.
    pub writes: u64,
}

impl EnergyMeter {
    /// Fresh meter with all counters zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one register update from `before` to `after`.
    pub fn record(&mut self, before: &Aob, after: &Aob) {
        self.add(crate::storage::meter_delta(before, after));
    }

    /// Add one operation's register writes: the toggles, the magnitude of
    /// its net population change, and the destinations written. Charging
    /// each instruction's delta separately is what keeps imbalance per
    /// instruction, so swap-family ops net zero.
    pub fn add(&mut self, d: WriteDelta) {
        let imbalance = d.pop_delta.unsigned_abs();
        self.toggles += d.toggles;
        self.imbalance += imbalance;
        self.writes += d.writes;
        telem::TOGGLES.add(d.toggles);
        telem::IMBALANCE.add(imbalance);
        telem::WRITES.add(d.writes);
    }

    /// Total energy under the chosen model.
    pub fn energy(&self, model: EnergyModel) -> u64 {
        match model {
            EnergyModel::Conventional => self.toggles,
            EnergyModel::Adiabatic => self.imbalance,
        }
    }

    /// Merge another meter's counts into this one.
    pub fn absorb(&mut self, other: &EnergyMeter) {
        self.toggles += other.toggles;
        self.imbalance += other.imbalance;
        self.writes += other.writes;
    }
}

impl Aob {
    /// Hamming distance between two same-degree values — the toggle count
    /// if one overwrote the other.
    pub fn hamming(&self, other: &Aob) -> u64 {
        self.check_same_ways(other);
        self.words()
            .iter()
            .zip(other.words())
            .map(|(a, b)| (a ^ b).count_ones() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn not_costs_full_toggle_but_is_balanced_only_for_hadamard() {
        let h = Aob::hadamard(8, 3); // exactly half ones
        let mut m = EnergyMeter::new();
        m.record(&h, &h.not_of());
        assert_eq!(m.toggles, 256); // every bit flips
        assert_eq!(m.imbalance, 0); // popcount unchanged: 128 -> 128

        let z = Aob::zeros(8);
        let mut m2 = EnergyMeter::new();
        m2.record(&z, &z.not_of());
        assert_eq!(m2.toggles, 256);
        assert_eq!(m2.imbalance, 256); // 0 ones -> 256 ones: maximally unbalanced
    }

    #[test]
    fn swap_is_adiabatically_free_in_aggregate() {
        let a0 = Aob::hadamard(8, 1);
        let b0 = Aob::hadamard(8, 5);
        let (mut a, mut b) = (a0.clone(), b0.clone());
        Aob::swap(&mut a, &mut b);
        let mut m = EnergyMeter::new();
        m.record(&a0, &a);
        m.record(&b0, &b);
        // Equal populations move in opposite directions; a swap of two
        // half-populated Hadamards nets zero imbalance.
        assert_eq!(m.imbalance, 0);
        assert!(m.toggles > 0);
    }

    #[test]
    fn cswap_conserves_total_population() {
        let a0 = Aob::hadamard(10, 2);
        let b0 = Aob::hadamard(10, 7);
        let c = Aob::hadamard(10, 4);
        let (mut a, mut b) = (a0.clone(), b0.clone());
        Aob::cswap(&mut a, &mut b, &c);
        let before = a0.pop_all() + b0.pop_all();
        let after = a.pop_all() + b.pop_all();
        assert_eq!(before, after);
    }

    #[test]
    fn meter_accumulates_and_absorbs() {
        let z = Aob::zeros(6);
        let o = Aob::ones(6);
        let mut m1 = EnergyMeter::new();
        m1.record(&z, &o);
        let mut m2 = EnergyMeter::new();
        m2.record(&o, &z);
        m1.absorb(&m2);
        assert_eq!(m1.writes, 2);
        assert_eq!(m1.toggles, 128);
        assert_eq!(m1.energy(EnergyModel::Conventional), 128);
        assert_eq!(m1.energy(EnergyModel::Adiabatic), 128);
    }

    #[test]
    fn hamming_basics() {
        let z = Aob::zeros(7);
        let o = Aob::ones(7);
        assert_eq!(z.hamming(&o), 128);
        assert_eq!(z.hamming(&z), 0);
        let h = Aob::hadamard(7, 0);
        assert_eq!(z.hamming(&h), 64);
    }
}
