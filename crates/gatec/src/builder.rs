//! Word-level program builder: the pint API, recording gates.
//!
//! [`PintProgram`] is a [`Pbits`] engine whose gates accumulate a netlist
//! instead of evaluating — the "slightly modified to output the gate-level
//! operations rather than to perform them" step of §4.1. The word ops
//! (ripple-carry add, shift-and-add multiply, XNOR-AND equality, ...) are
//! `pbp`'s own provided methods, so the compiled program and the RE
//! evaluation come from one implementation.

use std::convert::Infallible;

use pbp::Pbits;
use pbp_aob::GateOp;

use crate::netlist::{Netlist, NodeId};

/// A word-level program under construction.
#[derive(Debug, Clone, Default)]
pub struct PintProgram {
    nl: Netlist,
    outputs: Vec<(String, NodeId)>,
    next_dim: u32,
}

impl PintProgram {
    /// Optimizing builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder without CSE/folding (ref \[2\] ablation baseline).
    pub fn new_unoptimized() -> Self {
        PintProgram { nl: Netlist::new_unoptimized(), outputs: Vec::new(), next_dim: 0 }
    }

    /// Direct netlist access.
    pub fn netlist(&self) -> &Netlist {
        &self.nl
    }

    /// Named outputs registered so far.
    pub fn outputs(&self) -> &[(String, NodeId)] {
        &self.outputs
    }

    /// Mark a node as a program output.
    pub fn output(&mut self, name: &str, node: NodeId) {
        self.outputs.push((name.to_string(), node));
    }

    /// Dead-gate-eliminate with respect to the outputs; returns the pruned
    /// netlist and remapped outputs.
    pub fn optimized(&self) -> (Netlist, Vec<(String, NodeId)>) {
        let roots: Vec<NodeId> = self.outputs.iter().map(|(_, n)| *n).collect();
        let (nl, new_roots) = self.nl.eliminate_dead(&roots);
        let outputs = self
            .outputs
            .iter()
            .zip(new_roots)
            .map(|((name, _), n)| (name.clone(), n))
            .collect();
        (nl, outputs)
    }
}

impl Pbits for PintProgram {
    type Bit = NodeId;
    type Error = Infallible;

    fn constant(&mut self, bit: bool) -> NodeId {
        self.nl.constant(bit)
    }

    fn hadamard(&mut self, k: u32) -> NodeId {
        assert!(k < 16, "Hadamard channel-set is 4 bits");
        self.nl.had(k as u8)
    }

    fn gate(&mut self, op: GateOp, a: &NodeId, b: &NodeId) -> Result<NodeId, Infallible> {
        Ok(match op {
            GateOp::And => self.nl.and(*a, *b),
            GateOp::Or => self.nl.or(*a, *b),
            GateOp::Xor => self.nl.xor(*a, *b),
        })
    }

    fn not(&mut self, a: &NodeId) -> NodeId {
        self.nl.not(*a)
    }

    fn alloc_dims(&mut self, n: u32) -> u32 {
        let first = self.next_dim;
        assert!(first + n <= 16, "out of entanglement dimensions");
        self.next_dim += n;
        first
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_ops_evaluate_correctly() {
        // Build (b + 3) on 4-bit b = H over dims 0..3; check via AoB eval.
        let mut p = PintProgram::new();
        let b = p.pint_h(4, 0x0F);
        let three = p.pint_mk(4, 3);
        let Ok(s) = p.pint_add(&b, &three);
        let roots: Vec<NodeId> = s.bits().to_vec();
        let vals = p.netlist().evaluate_aob(8, &roots);
        for e in 0..256u64 {
            let mut got = 0u64;
            for (i, v) in vals.iter().enumerate() {
                got |= (v.get(e) as u64) << i;
            }
            assert_eq!(got, (e & 0xF) + 3, "e={e}");
        }
    }

    #[test]
    fn mul_and_eq_match_semantics() {
        let mut p = PintProgram::new();
        let b = p.pint_h(4, 0x0F);
        let c = p.pint_h(4, 0xF0);
        let Ok(d) = p.pint_mul(&b, &c);
        let fifteen = p.pint_mk(4, 15);
        let Ok(e) = p.pint_eq(&d, &fifteen);
        let vals = p.netlist().evaluate_aob(8, &[e]);
        for ch in 0..256u64 {
            let want = (ch & 0xF) * (ch >> 4) == 15;
            assert_eq!(vals[0].get(ch), want, "ch={ch}");
        }
    }

    #[test]
    fn optimizer_shrinks_gate_count() {
        // The same program built with and without optimization.
        let build = |opt| crate::factor::build_factoring(15, 4, opt).optimized().0.len();
        let (opt, unopt) = (build(true), build(false));
        assert!(
            opt * 2 < unopt,
            "optimization should at least halve the netlist: {opt} vs {unopt}"
        );
    }

    #[test]
    fn optimized_and_unoptimized_agree_semantically() {
        let build = |mut p: PintProgram| {
            let b = p.pint_h(3, 0b111);
            let c = p.pint_h(3, 0b111000);
            let Ok(s) = p.pint_add(&b, &c);
            let roots: Vec<NodeId> = s.bits().to_vec();
            p.netlist().evaluate_aob(6, &roots)
        };
        assert_eq!(build(PintProgram::new()), build(PintProgram::new_unoptimized()));
    }

    #[test]
    fn h_auto_allocates_disjoint_dims() {
        let mut p = PintProgram::new();
        let a = p.pint_h_auto(4);
        let b = p.pint_h_auto(4);
        let ra: Vec<NodeId> = a.bits().to_vec();
        let rb: Vec<NodeId> = b.bits().to_vec();
        // Evaluate: a tracks low nibble, b high nibble.
        let va = p.netlist().evaluate_aob(8, &ra);
        let vb = p.netlist().evaluate_aob(8, &rb);
        for e in 0..256u64 {
            let x: u64 = va.iter().enumerate().map(|(i, v)| (v.get(e) as u64) << i).sum();
            let y: u64 = vb.iter().enumerate().map(|(i, v)| (v.get(e) as u64) << i).sum();
            assert_eq!(x, e & 0xF);
            assert_eq!(y, e >> 4);
        }
    }
}
