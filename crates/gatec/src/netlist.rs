//! The gate netlist: an SSA DAG over single-pbit values.

use std::collections::HashMap;

/// Index of a node in a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// One gate (or leaf) in the netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gate {
    /// Constant 0 or 1 leaf.
    Const(bool),
    /// Hadamard leaf `H(k)`.
    Had(u8),
    /// Channel-wise AND.
    And(NodeId, NodeId),
    /// Channel-wise OR.
    Or(NodeId, NodeId),
    /// Channel-wise XOR.
    Xor(NodeId, NodeId),
    /// Channel-wise NOT.
    Not(NodeId),
}

/// Gate-count statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GateStats {
    /// Binary gates (`and`/`or`/`xor`).
    pub binary: usize,
    /// `not` gates.
    pub nots: usize,
    /// Hadamard leaves.
    pub hads: usize,
    /// Constant leaves.
    pub consts: usize,
}

impl GateStats {
    /// All nodes.
    pub fn total(&self) -> usize {
        self.binary + self.nots + self.hads + self.consts
    }
}

/// An SSA gate DAG with optional on-the-fly optimization.
#[derive(Debug, Clone)]
pub struct Netlist {
    nodes: Vec<Gate>,
    /// Structural hash-consing table (None when unoptimized).
    cse: Option<HashMap<Gate, NodeId>>,
    /// Algebraic folding enabled?
    fold: bool,
}

impl Netlist {
    /// Optimizing netlist: CSE + constant folding as nodes are built.
    pub fn new() -> Self {
        Netlist { nodes: Vec::new(), cse: Some(HashMap::new()), fold: true }
    }

    /// Baseline netlist: every requested gate is materialized — measures
    /// what the ref \[2\] optimizations buy.
    pub fn new_unoptimized() -> Self {
        Netlist { nodes: Vec::new(), cse: None, fold: false }
    }

    /// Node payload.
    #[inline]
    pub fn gate(&self, id: NodeId) -> Gate {
        self.nodes[id.0 as usize]
    }

    /// All nodes in SSA (topological) order.
    pub fn nodes(&self) -> &[Gate] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes exist yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Count nodes by kind.
    pub fn stats(&self) -> GateStats {
        let mut s = GateStats::default();
        for g in &self.nodes {
            match g {
                Gate::And(..) | Gate::Or(..) | Gate::Xor(..) => s.binary += 1,
                Gate::Not(..) => s.nots += 1,
                Gate::Had(..) => s.hads += 1,
                Gate::Const(..) => s.consts += 1,
            }
        }
        s
    }

    fn push(&mut self, g: Gate) -> NodeId {
        if let Some(cse) = &mut self.cse {
            if let Some(&id) = cse.get(&g) {
                return id;
            }
            let id = NodeId(self.nodes.len() as u32);
            self.nodes.push(g);
            cse.insert(g, id);
            id
        } else {
            let id = NodeId(self.nodes.len() as u32);
            self.nodes.push(g);
            id
        }
    }

    /// Constant leaf.
    pub fn constant(&mut self, v: bool) -> NodeId {
        self.push(Gate::Const(v))
    }

    /// Hadamard leaf.
    pub fn had(&mut self, k: u8) -> NodeId {
        assert!(k < 16, "Hadamard channel-set is 4 bits");
        self.push(Gate::Had(k))
    }

    fn as_const(&self, id: NodeId) -> Option<bool> {
        match self.gate(id) {
            Gate::Const(v) => Some(v),
            _ => None,
        }
    }

    /// AND with algebraic folding (`x&0=0`, `x&1=x`, `x&x=x`).
    pub fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if self.fold {
            let (a, b) = (a.min(b), a.max(b)); // commutativity canonical form
            match (self.as_const(a), self.as_const(b)) {
                (Some(false), _) | (_, Some(false)) => return self.constant(false),
                (Some(true), _) => return b,
                (_, Some(true)) => return a,
                _ => {}
            }
            if a == b {
                return a;
            }
            return self.push(Gate::And(a, b));
        }
        self.push(Gate::And(a, b))
    }

    /// OR with folding (`x|1=1`, `x|0=x`, `x|x=x`).
    pub fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if self.fold {
            let (a, b) = (a.min(b), a.max(b));
            match (self.as_const(a), self.as_const(b)) {
                (Some(true), _) | (_, Some(true)) => return self.constant(true),
                (Some(false), _) => return b,
                (_, Some(false)) => return a,
                _ => {}
            }
            if a == b {
                return a;
            }
            return self.push(Gate::Or(a, b));
        }
        self.push(Gate::Or(a, b))
    }

    /// XOR with folding (`x^0=x`, `x^1=!x`, `x^x=0`).
    pub fn xor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if self.fold {
            let (a, b) = (a.min(b), a.max(b));
            match (self.as_const(a), self.as_const(b)) {
                (Some(false), _) => return b,
                (_, Some(false)) => return a,
                (Some(true), _) => return self.not(b),
                (_, Some(true)) => return self.not(a),
                _ => {}
            }
            if a == b {
                return self.constant(false);
            }
            return self.push(Gate::Xor(a, b));
        }
        self.push(Gate::Xor(a, b))
    }

    /// NOT with folding (`!!x = x`, `!const`).
    pub fn not(&mut self, a: NodeId) -> NodeId {
        if self.fold {
            match self.gate(a) {
                Gate::Const(v) => return self.constant(!v),
                Gate::Not(x) => return x,
                _ => {}
            }
        }
        self.push(Gate::Not(a))
    }

    /// Dead-gate elimination: keep only nodes reachable from `roots`,
    /// renumbering densely. Returns the new netlist and the root remap.
    pub fn eliminate_dead(&self, roots: &[NodeId]) -> (Netlist, Vec<NodeId>) {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = roots.to_vec();
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut live[n.0 as usize], true) {
                continue;
            }
            match self.gate(n) {
                Gate::And(a, b) | Gate::Or(a, b) | Gate::Xor(a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
                Gate::Not(a) => stack.push(a),
                _ => {}
            }
        }
        let mut remap = vec![NodeId(u32::MAX); self.nodes.len()];
        let mut out = Netlist {
            nodes: Vec::new(),
            cse: self.cse.as_ref().map(|_| HashMap::new()),
            fold: self.fold,
        };
        for (i, g) in self.nodes.iter().enumerate() {
            if !live[i] {
                continue;
            }
            let g2 = match *g {
                Gate::And(a, b) => Gate::And(remap[a.0 as usize], remap[b.0 as usize]),
                Gate::Or(a, b) => Gate::Or(remap[a.0 as usize], remap[b.0 as usize]),
                Gate::Xor(a, b) => Gate::Xor(remap[a.0 as usize], remap[b.0 as usize]),
                Gate::Not(a) => Gate::Not(remap[a.0 as usize]),
                leaf => leaf,
            };
            let id = NodeId(out.nodes.len() as u32);
            out.nodes.push(g2);
            if let Some(cse) = &mut out.cse {
                cse.insert(g2, id);
            }
            remap[i] = id;
        }
        let new_roots = roots.iter().map(|r| remap[r.0 as usize]).collect();
        (out, new_roots)
    }

    /// Critical-path depth (in gate levels) from leaves to the given
    /// roots — the netlist analogue of the §3.3 pipeline-budget question,
    /// and the metric the ref \[2\] optimizations also shrink.
    pub fn depth(&self, roots: &[NodeId]) -> u64 {
        let mut d = vec![0u64; self.nodes.len()];
        for (i, g) in self.nodes.iter().enumerate() {
            d[i] = match *g {
                Gate::Const(..) | Gate::Had(..) => 0,
                Gate::Not(a) => d[a.0 as usize] + 1,
                Gate::And(a, b) | Gate::Or(a, b) | Gate::Xor(a, b) => {
                    d[a.0 as usize].max(d[b.0 as usize]) + 1
                }
            };
        }
        roots.iter().map(|r| d[r.0 as usize]).max().unwrap_or(0)
    }

    /// Evaluate the netlist on explicit AoB vectors (the correctness
    /// oracle for the compiler): returns the value of each requested node.
    pub fn evaluate_aob(&self, ways: u32, roots: &[NodeId]) -> Vec<pbp_aob::Aob> {
        use pbp_aob::Aob;
        let mut vals: Vec<Aob> = Vec::with_capacity(self.nodes.len());
        for g in &self.nodes {
            let v = match *g {
                Gate::Const(false) => Aob::zeros(ways),
                Gate::Const(true) => Aob::ones(ways),
                Gate::Had(k) => Aob::hadamard(ways, k as u32),
                Gate::And(a, b) => Aob::and_of(&vals[a.0 as usize], &vals[b.0 as usize]),
                Gate::Or(a, b) => Aob::or_of(&vals[a.0 as usize], &vals[b.0 as usize]),
                Gate::Xor(a, b) => Aob::xor_of(&vals[a.0 as usize], &vals[b.0 as usize]),
                Gate::Not(a) => vals[a.0 as usize].not_of(),
            };
            vals.push(v);
        }
        roots.iter().map(|r| vals[r.0 as usize].clone()).collect()
    }
}

impl Default for Netlist {
    fn default() -> Self {
        Netlist::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cse_dedupes_structurally() {
        let mut nl = Netlist::new();
        let a = nl.had(0);
        let b = nl.had(1);
        let x = nl.and(a, b);
        let y = nl.and(b, a); // commuted: same node
        assert_eq!(x, y);
        assert_eq!(nl.stats().binary, 1);
    }

    #[test]
    fn folding_rules() {
        let mut nl = Netlist::new();
        let a = nl.had(2);
        let zero = nl.constant(false);
        let one = nl.constant(true);
        assert_eq!(nl.and(a, zero), zero);
        assert_eq!(nl.and(a, one), a);
        assert_eq!(nl.and(a, a), a);
        assert_eq!(nl.or(a, one), one);
        assert_eq!(nl.or(a, zero), a);
        assert_eq!(nl.xor(a, zero), a);
        assert_eq!(nl.xor(a, a), zero);
        let na = nl.not(a);
        assert_eq!(nl.not(na), a);
        assert_eq!(nl.xor(a, one), na);
    }

    #[test]
    fn unoptimized_materializes_everything() {
        let mut nl = Netlist::new_unoptimized();
        let a = nl.had(0);
        let zero = nl.constant(false);
        let x = nl.and(a, zero);
        let y = nl.and(a, zero);
        assert_ne!(x, y);
        assert_eq!(nl.stats().binary, 2);
    }

    #[test]
    fn dead_elimination_prunes() {
        let mut nl = Netlist::new();
        let a = nl.had(0);
        let b = nl.had(1);
        let keep = nl.and(a, b);
        let _dead = nl.xor(a, b);
        let (nl2, roots) = nl.eliminate_dead(&[keep]);
        assert_eq!(roots.len(), 1);
        assert_eq!(nl2.len(), 3); // had, had, and
        assert_eq!(nl2.stats().binary, 1);
        // Semantics preserved:
        let before = nl.evaluate_aob(6, &[keep]);
        let after = nl2.evaluate_aob(6, &roots);
        assert_eq!(before, after);
    }

    #[test]
    fn depth_computation() {
        let mut nl = Netlist::new();
        let a = nl.had(0);
        let b = nl.had(1);
        let x = nl.and(a, b); // depth 1
        let y = nl.xor(x, a); // depth 2
        let z = nl.not(y); // depth 3
        assert_eq!(nl.depth(&[a]), 0);
        assert_eq!(nl.depth(&[x]), 1);
        assert_eq!(nl.depth(&[z]), 3);
        assert_eq!(nl.depth(&[x, z]), 3);
    }

    #[test]
    fn optimization_reduces_depth_too() {
        let build = |optimized| {
            let (nl, outs) = crate::factor::build_factoring(15, 4, optimized).optimized();
            let roots: Vec<NodeId> = outs.iter().map(|(_, n)| *n).collect();
            nl.depth(&roots)
        };
        let (opt, unopt) = (build(true), build(false));
        assert!(opt <= unopt, "{opt} vs {unopt}");
        assert!(opt > 5, "a 4x4 multiplier has real depth");
    }

    #[test]
    fn evaluate_matches_aob_algebra() {
        use pbp_aob::Aob;
        let mut nl = Netlist::new();
        let h0 = nl.had(0);
        let h3 = nl.had(3);
        let x = nl.xor(h0, h3);
        let n = nl.not(x);
        let vals = nl.evaluate_aob(8, &[n]);
        let expect = Aob::xor_of(&Aob::hadamard(8, 0), &Aob::hadamard(8, 3)).not_of();
        assert_eq!(vals[0], expect);
    }
}

/// Simulation-based equivalence check of two netlists' outputs: evaluates
/// both DAGs over the full AoB semantics at the given entanglement degree.
/// Because every leaf is a *fixed* pattern (constants and `H(k)`), AoB
/// evaluation at degree `ways > max k` is exhaustive over all leaf
/// valuations — this is a complete equivalence decision, not a sample.
pub fn equivalent(
    a: (&Netlist, &[NodeId]),
    b: (&Netlist, &[NodeId]),
    ways: u32,
) -> bool {
    if a.1.len() != b.1.len() {
        return false;
    }
    let va = a.0.evaluate_aob(ways, a.1);
    let vb = b.0.evaluate_aob(ways, b.1);
    va == vb
}

#[cfg(test)]
mod equiv_tests {
    use super::*;
    use crate::builder::PintProgram;
    use pbp::Pbits;

    fn roots(p: &PintProgram) -> (Netlist, Vec<NodeId>) {
        let (nl, outs) = p.optimized();
        let r = outs.iter().map(|(_, n)| *n).collect();
        (nl, r)
    }

    #[test]
    fn optimized_equals_unoptimized_factoring() {
        // The ref \[2\] optimizations must be semantics-preserving; check
        // the complete factoring predicate both ways.
        let (na, ra) = roots(&crate::factor::build_factoring(15, 4, true));
        let (nb, rb) = roots(&crate::factor::build_factoring(15, 4, false));
        assert!(equivalent((&na, &ra), (&nb, &rb), 8));
    }

    #[test]
    fn different_programs_are_distinguished() {
        let mut p1 = PintProgram::new();
        let a = p1.pint_h(2, 0b01 | 0b10);
        let k = p1.pint_mk(2, 3);
        let Ok(e1) = p1.pint_eq(&a, &k);
        p1.output("e", e1);
        let mut p2 = PintProgram::new();
        let a = p2.pint_h(2, 0b01 | 0b10);
        let k = p2.pint_mk(2, 2); // different constant
        let Ok(e2) = p2.pint_eq(&a, &k);
        p2.output("e", e2);
        let (na, ra) = roots(&p1);
        let (nb, rb) = roots(&p2);
        assert!(!equivalent((&na, &ra), (&nb, &rb), 8));
    }

    #[test]
    fn arity_mismatch_is_inequivalent() {
        let mut p1 = PintProgram::new();
        let a = p1.pint_h(2, 0b11);
        p1.output("x", *a.bit(0));
        let mut p2 = PintProgram::new();
        let b = p2.pint_h(2, 0b11);
        p2.output("x", *b.bit(0));
        p2.output("y", *b.bit(1));
        let (na, ra) = roots(&p1);
        let (nb, rb) = roots(&p2);
        assert!(!equivalent((&na, &ra), (&nb, &rb), 8));
    }
}
