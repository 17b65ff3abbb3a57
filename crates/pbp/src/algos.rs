//! Quantum-inspired algorithms on the PBP model.
//!
//! The paper positions PBP as supporting "a broad class of algorithms
//! leveraging superposition and entanglement". This module implements the
//! canonical one beyond factoring: **exhaustive Boolean satisfiability**.
//! Each variable is a Hadamard pbit, so entanglement channel `e` carries
//! the assignment whose bits are the bits of `e`; evaluating the formula
//! once evaluates it in *all* `2^n` possible worlds, and non-destructive
//! measurement reads out every satisfying assignment (or counts them —
//! #SAT — with a single `pop`).

use crate::{PbpContext, Re};

/// A CNF formula in DIMACS convention: literal `+k` is variable `k-1`,
/// `-k` its negation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cnf {
    /// Number of variables (≤ 16: one entanglement dimension each).
    pub num_vars: u32,
    /// Clauses as non-empty literal lists.
    pub clauses: Vec<Vec<i32>>,
}

impl Cnf {
    /// New formula over `num_vars` variables.
    pub fn new(num_vars: u32) -> Cnf {
        assert!((1..=16).contains(&num_vars), "1..=16 variables supported");
        Cnf { num_vars, clauses: Vec::new() }
    }

    /// Add one clause (DIMACS literals, e.g. `&[1, -3]` = `x0 ∨ ¬x2`).
    pub fn clause(&mut self, lits: &[i32]) -> &mut Self {
        assert!(!lits.is_empty(), "empty clause is trivially unsatisfiable");
        for &l in lits {
            let v = l.unsigned_abs() - 1;
            assert!(l != 0 && v < self.num_vars, "literal {l} out of range");
        }
        self.clauses.push(lits.to_vec());
        self
    }

    /// Add pairwise at-most-one constraints over the given variables
    /// (0-based indices).
    pub fn at_most_one(&mut self, vars: &[u32]) -> &mut Self {
        for (i, &a) in vars.iter().enumerate() {
            for &b in &vars[i + 1..] {
                self.clause(&[-(a as i32 + 1), -(b as i32 + 1)]);
            }
        }
        self
    }

    /// Add an at-least-one clause over the given variables.
    pub fn at_least_one(&mut self, vars: &[u32]) -> &mut Self {
        let lits: Vec<i32> = vars.iter().map(|&v| v as i32 + 1).collect();
        self.clause(&lits)
    }

    /// Reference evaluation of the formula on one assignment bitmask.
    pub fn eval(&self, assignment: u64) -> bool {
        self.clauses.iter().all(|cl| {
            cl.iter().any(|&l| {
                let v = l.unsigned_abs() - 1;
                let bit = (assignment >> v) & 1 == 1;
                if l > 0 { bit } else { !bit }
            })
        })
    }
}

impl PbpContext {
    /// Evaluate a CNF over the full superposition: the returned pbit is 1
    /// exactly in the channels whose low `num_vars` bits satisfy the
    /// formula. Requires `universe_ways >= num_vars`.
    pub fn sat_predicate(&mut self, cnf: &Cnf) -> Re {
        assert!(
            self.universe_ways() >= cnf.num_vars,
            "universe too small for {} variables",
            cnf.num_vars
        );
        let vars: Vec<Re> = (0..cnf.num_vars).map(|k| self.hadamard(k)).collect();
        let mut formula = self.constant(true);
        for cl in &cnf.clauses {
            let mut clause = self.constant(false);
            for &l in cl {
                let v = &vars[(l.unsigned_abs() - 1) as usize];
                let lit = if l > 0 { v.clone() } else { self.not(v) };
                clause = self.or(&clause, &lit);
            }
            formula = self.and(&formula, &clause);
        }
        formula
    }

    /// All satisfying assignments, as bitmasks over the variables,
    /// ascending. One evaluation pass, one non-destructive read-out.
    pub fn sat_assignments(&mut self, cnf: &Cnf) -> Vec<u64> {
        let p = self.sat_predicate(cnf);
        let limit = 1u64 << cnf.num_vars;
        self.re_enumerate_ones(&p, limit as usize)
            .into_iter()
            .take_while(|&e| e < limit)
            .collect()
    }

    /// Model count (#SAT) in O(runs) via `pop`: the universe repeats every
    /// assignment `2^(E - n)` times, so divide the population accordingly.
    pub fn sat_count(&mut self, cnf: &Cnf) -> u64 {
        let p = self.sat_predicate(cnf);
        self.re_pop_all(&p) >> (self.universe_ways() - cnf.num_vars)
    }

    /// Satisfiability in O(runs): the paper's ANY reduction.
    pub fn sat_any(&mut self, cnf: &Cnf) -> bool {
        let p = self.sat_predicate(cnf);
        self.re_any(&p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force(cnf: &Cnf) -> Vec<u64> {
        (0..1u64 << cnf.num_vars).filter(|&a| cnf.eval(a)).collect()
    }

    #[test]
    fn tiny_formulas() {
        let mut ctx = PbpContext::new(8);
        // x0 ∧ ¬x1
        let mut cnf = Cnf::new(2);
        cnf.clause(&[1]).clause(&[-2]);
        assert_eq!(ctx.sat_assignments(&cnf), vec![0b01]);
        assert_eq!(ctx.sat_count(&cnf), 1);
        assert!(ctx.sat_any(&cnf));
    }

    #[test]
    fn unsatisfiable_formula() {
        let mut ctx = PbpContext::new(8);
        let mut cnf = Cnf::new(1);
        cnf.clause(&[1]).clause(&[-1]);
        assert!(ctx.sat_assignments(&cnf).is_empty());
        assert_eq!(ctx.sat_count(&cnf), 0);
        assert!(!ctx.sat_any(&cnf));
    }

    #[test]
    fn xor_chain_counts() {
        // x0 ⊕ x1 as CNF: (x0 ∨ x1) ∧ (¬x0 ∨ ¬x1) — 2 models.
        let mut ctx = PbpContext::new(8);
        let mut cnf = Cnf::new(2);
        cnf.clause(&[1, 2]).clause(&[-1, -2]);
        assert_eq!(ctx.sat_assignments(&cnf), vec![0b01, 0b10]);
        assert_eq!(ctx.sat_count(&cnf), 2);
    }

    #[test]
    fn matches_brute_force_on_3sat_batch() {
        // A handful of fixed 3-SAT instances over 6 variables.
        let instances: Vec<Vec<Vec<i32>>> = vec![
            vec![vec![1, 2, 3], vec![-1, 4, 5], vec![-2, -4, 6], vec![3, -5, -6]],
            vec![vec![1, -2, 3], vec![2, -3, 4], vec![-1, -4, 5], vec![-5, 6, 1]],
            vec![vec![-1, -2, -3], vec![1, 2, -4], vec![3, 4, 5], vec![-5, -6, 2]],
        ];
        for (i, cls) in instances.iter().enumerate() {
            let mut cnf = Cnf::new(6);
            for c in cls {
                cnf.clause(c);
            }
            let mut ctx = PbpContext::new(8);
            let got = ctx.sat_assignments(&cnf);
            assert_eq!(got, brute_force(&cnf), "instance {i}");
            assert_eq!(ctx.sat_count(&cnf), got.len() as u64);
        }
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // 3 pigeons, 2 holes: vars p*2+h means pigeon p in hole h.
        let mut cnf = Cnf::new(6);
        for p in 0..3u32 {
            cnf.at_least_one(&[p * 2, p * 2 + 1]);
        }
        for h in 0..2u32 {
            cnf.at_most_one(&[h, 2 + h, 4 + h]);
        }
        let mut ctx = PbpContext::new(8);
        assert!(!ctx.sat_any(&cnf));
    }

    #[test]
    fn exactly_one_helpers() {
        let mut cnf = Cnf::new(3);
        cnf.at_least_one(&[0, 1, 2]).at_most_one(&[0, 1, 2]);
        let mut ctx = PbpContext::new(8);
        assert_eq!(ctx.sat_assignments(&cnf), vec![0b001, 0b010, 0b100]);
    }

    #[test]
    fn works_at_16_variables_full_hardware_size() {
        // A chain x0→x1→…→x15 plus x0: exactly one model (all true).
        let mut cnf = Cnf::new(16);
        cnf.clause(&[1]);
        for v in 0..15i32 {
            cnf.clause(&[-(v + 1), v + 2]);
        }
        let mut ctx = PbpContext::new(16);
        assert_eq!(ctx.sat_assignments(&cnf), vec![0xFFFF]);
        assert_eq!(ctx.sat_count(&cnf), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn literal_range_checked() {
        Cnf::new(2).clause(&[3]);
    }
}
