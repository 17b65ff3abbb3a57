#![warn(missing_docs)]
//! # qsim-baseline — a state-vector quantum simulator
//!
//! The paper repeatedly contrasts PBP with real quantum computation:
//! destructive measurement ("only a single value is returned per qubit"),
//! no-cloning, mandatory reversibility, and the impossibility of
//! guaranteeing that repeated runs enumerate every superposed answer.
//! To *measure* those contrasts rather than assert them, this crate
//! provides a small but correct state-vector simulator with the same gate
//! set Qat mirrors (H, X/NOT, CNOT, CCNOT/Toffoli, SWAP, CSWAP/Fredkin)
//! and faithful destructive measurement.
//!
//! `tests/qsim_contrast.rs` uses it to reproduce the paper's §2.7 argument:
//! a quantum run of the factoring oracle yields ONE factor sampled from
//! the superposition and destroys the rest, so collecting all `k` answers
//! is a coupon-collector process (`k·H(k)` expected runs), while one
//! non-destructive PBP pass reads them all.

use rand::Rng;

/// A complex amplitude.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// 0 + 0i.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// 1 + 0i.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Construct from parts.
    pub fn new(re: f64, im: f64) -> Complex {
        Complex { re, im }
    }

    /// Squared magnitude (probability weight).
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Scale by a real factor.
    pub fn scale(self, k: f64) -> Complex {
        Complex::new(self.re * k, self.im * k)
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;

    /// Complex addition.
    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;

    /// Complex subtraction.
    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }
}

/// An `n`-qubit pure state: `2^n` complex amplitudes, little-endian qubit
/// indexing (qubit 0 is bit 0 of the basis index).
#[derive(Debug, Clone)]
pub struct QState {
    n: u32,
    amps: Vec<Complex>,
}

const FRAC_1_SQRT_2: f64 = std::f64::consts::FRAC_1_SQRT_2;

impl QState {
    /// |0…0⟩ on `n` qubits.
    pub fn new(n: u32) -> QState {
        assert!(n <= 24, "2^{n} amplitudes is beyond this simulator's remit");
        let mut amps = vec![Complex::ZERO; 1 << n];
        amps[0] = Complex::ONE;
        QState { n, amps }
    }

    /// Uniform superposition over an explicit set of basis states — the
    /// "post-oracle" state used by the measurement-semantics tests.
    pub fn uniform_over(n: u32, marked: &[u64]) -> QState {
        assert!(!marked.is_empty());
        let mut amps = vec![Complex::ZERO; 1 << n];
        let a = 1.0 / (marked.len() as f64).sqrt();
        for &m in marked {
            amps[m as usize] = Complex::new(a, 0.0);
        }
        QState { n, amps }
    }

    /// Qubit count.
    pub fn qubits(&self) -> u32 {
        self.n
    }

    /// Amplitude of a basis state.
    pub fn amp(&self, basis: u64) -> Complex {
        self.amps[basis as usize]
    }

    /// Probability of measuring `basis` exactly.
    pub fn prob(&self, basis: u64) -> f64 {
        self.amps[basis as usize].norm_sqr()
    }

    /// Σ|α|² — must stay 1 (checked by tests after every gate).
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Apply a single-qubit gate given by its 2×2 matrix rows.
    fn apply_1q(&mut self, q: u32, m00: Complex, m01: Complex, m10: Complex, m11: Complex) {
        let bit = 1usize << q;
        for i in 0..self.amps.len() {
            if i & bit == 0 {
                let a0 = self.amps[i];
                let a1 = self.amps[i | bit];
                self.amps[i] = Complex::new(
                    m00.re * a0.re - m00.im * a0.im + m01.re * a1.re - m01.im * a1.im,
                    m00.re * a0.im + m00.im * a0.re + m01.re * a1.im + m01.im * a1.re,
                );
                self.amps[i | bit] = Complex::new(
                    m10.re * a0.re - m10.im * a0.im + m11.re * a1.re - m11.im * a1.im,
                    m10.re * a0.im + m10.im * a0.re + m11.re * a1.im + m11.im * a1.re,
                );
            }
        }
    }

    /// Hadamard gate: the real thing, with interference (unlike Qat's
    /// `had`, which is an initializer).
    pub fn h(&mut self, q: u32) {
        let s = Complex::new(FRAC_1_SQRT_2, 0.0);
        let ns = Complex::new(-FRAC_1_SQRT_2, 0.0);
        self.apply_1q(q, s, s, s, ns);
    }

    /// Pauli-X (NOT).
    pub fn x(&mut self, q: u32) {
        let bit = 1usize << q;
        for i in 0..self.amps.len() {
            if i & bit == 0 {
                self.amps.swap(i, i | bit);
            }
        }
    }

    /// Controlled NOT.
    pub fn cnot(&mut self, control: u32, target: u32) {
        assert_ne!(control, target);
        let (c, t) = (1usize << control, 1usize << target);
        for i in 0..self.amps.len() {
            if i & c != 0 && i & t == 0 {
                self.amps.swap(i, i | t);
            }
        }
    }

    /// Toffoli (controlled-controlled NOT).
    pub fn ccnot(&mut self, c1: u32, c2: u32, target: u32) {
        assert!(c1 != target && c2 != target && c1 != c2);
        let (b1, b2, t) = (1usize << c1, 1usize << c2, 1usize << target);
        for i in 0..self.amps.len() {
            if i & b1 != 0 && i & b2 != 0 && i & t == 0 {
                self.amps.swap(i, i | t);
            }
        }
    }

    /// SWAP.
    pub fn swap(&mut self, a: u32, b: u32) {
        assert_ne!(a, b);
        let (ba, bb) = (1usize << a, 1usize << b);
        for i in 0..self.amps.len() {
            if i & ba != 0 && i & bb == 0 {
                self.amps.swap(i, (i & !ba) | bb);
            }
        }
    }

    /// Fredkin (controlled SWAP).
    pub fn cswap(&mut self, control: u32, a: u32, b: u32) {
        assert!(control != a && control != b && a != b);
        let (bc, ba, bb) = (1usize << control, 1usize << a, 1usize << b);
        for i in 0..self.amps.len() {
            if i & bc != 0 && i & ba != 0 && i & bb == 0 {
                self.amps.swap(i, (i & !ba) | bb);
            }
        }
    }

    /// Destructive full measurement: samples one basis state with the Born
    /// probabilities and **collapses** the state onto it. This is the §2.7
    /// contrast with PBP's non-destructive `meas`.
    pub fn measure_all(&mut self, rng: &mut impl Rng) -> u64 {
        let r: f64 = rng.gen::<f64>() * self.norm();
        let mut acc = 0.0;
        let mut picked = self.amps.len() - 1;
        for (i, a) in self.amps.iter().enumerate() {
            acc += a.norm_sqr();
            if r < acc {
                picked = i;
                break;
            }
        }
        for a in &mut self.amps {
            *a = Complex::ZERO;
        }
        self.amps[picked] = Complex::ONE;
        picked as u64
    }

    /// Destructive single-qubit measurement: returns the outcome and
    /// collapses (renormalizing the surviving branch). Entangled partners
    /// lock in, exactly as §2.7 describes.
    pub fn measure_qubit(&mut self, q: u32, rng: &mut impl Rng) -> bool {
        let bit = 1usize << q;
        let p1: f64 = self
            .amps
            .iter()
            .enumerate()
            .filter(|(i, _)| i & bit != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum();
        let outcome = rng.gen::<f64>() < p1;
        let keep_mask = if outcome { bit } else { 0 };
        let surviving: f64 = if outcome { p1 } else { 1.0 - p1 };
        let k = 1.0 / surviving.max(f64::MIN_POSITIVE).sqrt();
        for (i, a) in self.amps.iter_mut().enumerate() {
            if i & bit == keep_mask {
                *a = a.scale(k);
            } else {
                *a = Complex::ZERO;
            }
        }
        outcome
    }

    /// Memory footprint of the state vector in bytes (for the E14
    /// PBP-vs-quantum resource comparison).
    pub fn memory_bytes(&self) -> usize {
        self.amps.len() * std::mem::size_of::<Complex>()
    }
}

/// Expected number of independent runs to observe all `k` equiprobable
/// outcomes at least once (coupon collector): `k · H(k)`.
pub fn expected_runs_to_collect_all(k: u64) -> f64 {
    let k = k as f64;
    k * (1..=k as u64).map(|i| 1.0 / i as f64).sum::<f64>()
}

/// Empirically count runs of re-preparing `state` and destructively
/// measuring until every marked outcome has been seen.
pub fn runs_to_collect_all(state: &QState, marked: &[u64], rng: &mut impl Rng) -> u64 {
    let mut seen = std::collections::HashSet::new();
    let mut runs = 0u64;
    while seen.len() < marked.len() {
        let mut s = state.clone();
        seen.insert(s.measure_all(rng));
        runs += 1;
        assert!(runs < 1_000_000, "measurement never completed");
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(12345)
    }

    fn assert_normed(s: &QState) {
        assert!((s.norm() - 1.0).abs() < 1e-10, "norm = {}", s.norm());
    }

    #[test]
    fn initial_state_is_zero_ket() {
        let s = QState::new(3);
        assert_eq!(s.prob(0), 1.0);
        assert_normed(&s);
    }

    #[test]
    fn h_creates_uniform_superposition_and_is_self_inverse() {
        let mut s = QState::new(1);
        s.h(0);
        assert!((s.prob(0) - 0.5).abs() < 1e-12);
        assert!((s.prob(1) - 0.5).abs() < 1e-12);
        assert_normed(&s);
        s.h(0); // H² = I
        assert!((s.prob(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn x_flips() {
        let mut s = QState::new(2);
        s.x(1);
        assert_eq!(s.prob(0b10), 1.0);
        s.x(1);
        assert_eq!(s.prob(0), 1.0);
    }

    #[test]
    fn bell_state_correlations() {
        let mut s = QState::new(2);
        s.h(0);
        s.cnot(0, 1);
        assert!((s.prob(0b00) - 0.5).abs() < 1e-12);
        assert!((s.prob(0b11) - 0.5).abs() < 1e-12);
        assert_eq!(s.prob(0b01), 0.0);
        assert_eq!(s.prob(0b10), 0.0);
        // Measuring qubit 0 locks qubit 1 — entanglement collapse.
        let mut r = rng();
        for _ in 0..20 {
            let mut t = s.clone();
            let m0 = t.measure_qubit(0, &mut r);
            let m1 = t.measure_qubit(1, &mut r);
            assert_eq!(m0, m1);
            assert_normed(&t);
        }
    }

    #[test]
    fn ghz_three_qubits() {
        let mut s = QState::new(3);
        s.h(0);
        s.cnot(0, 1);
        s.cnot(1, 2);
        assert!((s.prob(0b000) - 0.5).abs() < 1e-12);
        assert!((s.prob(0b111) - 0.5).abs() < 1e-12);
        assert_normed(&s);
    }

    #[test]
    fn ccnot_truth_table() {
        for c1 in [false, true] {
            for c2 in [false, true] {
                for t in [false, true] {
                    let mut s = QState::new(3);
                    if c1 { s.x(0); }
                    if c2 { s.x(1); }
                    if t { s.x(2); }
                    s.ccnot(0, 1, 2);
                    let expect = (c1 as u64) | ((c2 as u64) << 1)
                        | (((t ^ (c1 && c2)) as u64) << 2);
                    assert_eq!(s.prob(expect), 1.0);
                }
            }
        }
    }

    #[test]
    fn swap_and_cswap() {
        let mut s = QState::new(3);
        s.x(0);
        s.swap(0, 2);
        assert_eq!(s.prob(0b100), 1.0);
        // Fredkin: control off → no-op; on → swap.
        let mut s = QState::new(3);
        s.x(1);
        s.cswap(0, 1, 2);
        assert_eq!(s.prob(0b010), 1.0);
        let mut s = QState::new(3);
        s.x(0);
        s.x(1);
        s.cswap(0, 1, 2);
        assert_eq!(s.prob(0b101), 1.0);
    }

    #[test]
    fn gates_are_self_inverse_on_random_states() {
        let mut s = QState::new(4);
        for q in 0..4 {
            s.h(q);
        }
        s.cnot(0, 2);
        s.ccnot(1, 2, 3);
        let reference = s.clone();
        s.ccnot(1, 2, 3);
        s.cnot(0, 2);
        s.cnot(0, 2);
        s.ccnot(1, 2, 3);
        for i in 0..16u64 {
            assert!((s.prob(i) - reference.prob(i)).abs() < 1e-12);
        }
    }

    #[test]
    fn destructive_measurement_collapses() {
        let mut r = rng();
        let mut s = QState::uniform_over(4, &[1, 5, 9, 13]);
        assert_normed(&s);
        let m = s.measure_all(&mut r);
        assert!([1u64, 5, 9, 13].contains(&m));
        // State is now a single basis ket: re-measuring yields the same.
        for _ in 0..5 {
            assert_eq!(s.measure_all(&mut r), m);
        }
    }

    #[test]
    fn measurement_statistics_follow_born_rule() {
        let mut r = rng();
        let marked = [3u64, 7, 11];
        let mut counts = [0u64; 3];
        for _ in 0..3000 {
            let mut s = QState::uniform_over(4, &marked);
            let m = s.measure_all(&mut r);
            let idx = marked.iter().position(|&x| x == m).expect("only marked outcomes");
            counts[idx] += 1;
        }
        for c in counts {
            let frac = c as f64 / 3000.0;
            assert!((frac - 1.0 / 3.0).abs() < 0.05, "frac = {frac}");
        }
    }

    #[test]
    fn coupon_collector_matches_theory() {
        // 4 factors of 15 → expected ≈ 8.33 runs; sample mean must land
        // near it (the headline PBP advantage: PBP needs exactly 1 pass).
        let marked = [1u64, 3, 5, 15];
        let s = QState::uniform_over(8, &marked);
        let mut r = rng();
        let trials = 400;
        let total: u64 = (0..trials).map(|_| runs_to_collect_all(&s, &marked, &mut r)).sum();
        let mean = total as f64 / trials as f64;
        let theory = expected_runs_to_collect_all(4);
        assert!((theory - 8.3333).abs() < 1e-3);
        assert!((mean - theory).abs() < 1.0, "mean {mean} vs theory {theory}");
    }

    #[test]
    fn memory_grows_exponentially() {
        assert_eq!(QState::new(10).memory_bytes(), (1 << 10) * 16);
        assert_eq!(QState::new(16).memory_bytes(), (1 << 16) * 16);
    }
}

// ---------------------------------------------------------------------
// Grover-style amplitude amplification
// ---------------------------------------------------------------------

impl QState {
    /// Apply a phase oracle: flip the amplitude sign of every marked
    /// basis state.
    pub fn phase_oracle(&mut self, marked: &[u64]) {
        for &m in marked {
            self.amps[m as usize] = self.amps[m as usize].scale(-1.0);
        }
    }

    /// The Grover diffusion operator: inversion about the mean amplitude.
    pub fn diffusion(&mut self) {
        let n = self.amps.len() as f64;
        let mean_re: f64 = self.amps.iter().map(|a| a.re).sum::<f64>() / n;
        let mean_im: f64 = self.amps.iter().map(|a| a.im).sum::<f64>() / n;
        for a in &mut self.amps {
            *a = Complex::new(2.0 * mean_re - a.re, 2.0 * mean_im - a.im);
        }
    }

    /// Total probability mass on the marked states.
    pub fn marked_probability(&self, marked: &[u64]) -> f64 {
        marked.iter().map(|&m| self.prob(m)).sum()
    }
}

/// Run Grover search: uniform superposition, then `iterations` rounds of
/// oracle + diffusion. Returns the final state.
///
/// This is what a *real* quantum computer must do before sampling even one
/// answer: ~(π/4)·√(N/k) oracle invocations to amplify the k marked states.
/// The PBP model needs exactly one oracle evaluation and then reads all k
/// answers non-destructively — the strongest form of the paper's §2.7
/// comparison.
pub fn grover_search(n_qubits: u32, marked: &[u64], iterations: u32) -> QState {
    let mut s = QState::new(n_qubits);
    for q in 0..n_qubits {
        s.h(q);
    }
    for _ in 0..iterations {
        s.phase_oracle(marked);
        s.diffusion();
    }
    s
}

/// The asymptotically optimal Grover iteration count for `k` marked states
/// out of `2^n`: round(π/4 · √(N/k) − 1/2).
pub fn grover_optimal_iterations(n_qubits: u32, k: u64) -> u32 {
    let n = (1u64 << n_qubits) as f64;
    let theta = (k as f64 / n).sqrt().asin();
    ((std::f64::consts::FRAC_PI_4 / theta) - 0.5).round().max(0.0) as u32
}

#[cfg(test)]
mod grover_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn grover_amplifies_single_marked_state() {
        // 8 qubits, one marked state: optimal ≈ 12 iterations, success
        // probability near 1.
        let marked = [137u64];
        let iters = grover_optimal_iterations(8, 1);
        assert!((11..=13).contains(&iters), "iters = {iters}");
        let s = grover_search(8, &marked, iters);
        assert!((s.norm() - 1.0).abs() < 1e-9);
        assert!(s.marked_probability(&marked) > 0.99, "p = {}", s.marked_probability(&marked));
    }

    #[test]
    fn grover_amplifies_factoring_answer_set() {
        // The four factoring-of-15 channels in an 8-qubit space.
        let marked = [31u64, 53, 83, 241];
        let iters = grover_optimal_iterations(8, 4);
        let s = grover_search(8, &marked, iters);
        assert!(s.marked_probability(&marked) > 0.95);
        // But a measurement still yields only ONE of them and collapses:
        let mut rng = StdRng::seed_from_u64(8);
        let mut t = s.clone();
        let m = t.measure_all(&mut rng);
        assert!(marked.contains(&m));
        assert_eq!(t.prob(m), 1.0);
    }

    #[test]
    fn over_rotation_hurts() {
        // Grover is periodic: doubling past the optimum reduces success
        // probability — a correctness signal for the diffusion operator.
        let marked = [42u64];
        let best = grover_optimal_iterations(8, 1);
        let good = grover_search(8, &marked, best).marked_probability(&marked);
        let over = grover_search(8, &marked, best * 2).marked_probability(&marked);
        assert!(good > 0.99);
        assert!(over < 0.5, "over-rotated p = {over}");
    }

    #[test]
    fn zero_iterations_is_uniform() {
        let s = grover_search(6, &[5], 0);
        for b in 0..64u64 {
            assert!((s.prob(b) - 1.0 / 64.0).abs() < 1e-12);
        }
    }

    #[test]
    fn diffusion_preserves_norm() {
        let mut s = grover_search(6, &[1, 2, 3], 2);
        s.diffusion();
        assert!((s.norm() - 1.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod complex_tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a.scale(2.0), Complex::new(2.0, 4.0));
        assert_eq!(a.norm_sqr(), 5.0);
        assert_eq!(Complex::ZERO.norm_sqr(), 0.0);
        assert_eq!(Complex::ONE.norm_sqr(), 1.0);
    }
}
