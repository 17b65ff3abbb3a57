//! Qat register allocation for gate netlists.
//!
//! The paper's generator "greedily uses registers so that every
//! intermediate computation's value is still available in a register at
//! the end of the computation" — [`AllocStrategy::GreedyFresh`]. Its §4.2
//! remark that "far fewer registers, and fewer instructions, could have
//! been used" is realized by [`AllocStrategy::LinearScanReuse`], a
//! last-use free-list allocator.

use crate::emit::EmitOptions;
use crate::netlist::{Gate, Netlist, NodeId};

/// Allocation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocStrategy {
    /// Paper-faithful: every node gets a fresh register; all intermediates
    /// survive.
    GreedyFresh,
    /// Last-use linear scan with register reuse.
    LinearScanReuse,
}

/// Allocation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegAllocError {
    /// The program needs more than the 256 (minus reserved) Qat registers.
    OutOfRegisters {
        /// Node that could not be assigned.
        at: NodeId,
        /// Registers available.
        available: u16,
    },
}

impl std::fmt::Display for RegAllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegAllocError::OutOfRegisters { at, available } => write!(
                f,
                "out of Qat registers at node {at:?} ({available} available); \
                 try AllocStrategy::LinearScanReuse"
            ),
        }
    }
}

impl std::error::Error for RegAllocError {}

/// Result of allocation: one register per node.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Register number per node id.
    pub reg: Vec<u8>,
    /// Highest register number used + 1 (excluding reserved constants).
    pub regs_used: u16,
    /// Nodes that are reserved-constant references (emit no code).
    pub is_reserved: Vec<bool>,
}

fn leaf_reserved(g: Gate, opts: &EmitOptions) -> Option<u8> {
    if !opts.constant_registers {
        return None;
    }
    match g {
        Gate::Const(false) => Some(0),
        Gate::Const(true) => Some(1),
        Gate::Had(k) if (k as u32) < opts.ways => Some(2 + k),
        // H(k) beyond the machine's entanglement degree is all-zeros.
        Gate::Had(_) => Some(0),
        _ => None,
    }
}

/// Allocate registers for a netlist whose roots are `outputs`.
pub fn allocate(
    nl: &Netlist,
    outputs: &[(String, NodeId)],
    strategy: AllocStrategy,
    opts: &EmitOptions,
) -> Result<Allocation, RegAllocError> {
    let n = nl.len();
    let first_free: u16 = if opts.constant_registers { 2 + opts.ways as u16 } else { 0 };
    let mut reg = vec![0u8; n];
    let mut is_reserved = vec![false; n];

    // Last-use indices (outputs live forever).
    let mut last_use = vec![0usize; n];
    for (i, g) in nl.nodes().iter().enumerate() {
        let mut touch = |x: NodeId| last_use[x.0 as usize] = i;
        match *g {
            Gate::And(a, b) | Gate::Or(a, b) | Gate::Xor(a, b) => {
                touch(a);
                touch(b);
            }
            Gate::Not(a) => touch(a),
            _ => {}
        }
    }
    for (_, o) in outputs {
        last_use[o.0 as usize] = usize::MAX;
    }

    match strategy {
        AllocStrategy::GreedyFresh => {
            let mut next = first_free;
            for (i, g) in nl.nodes().iter().enumerate() {
                if let Some(r) = leaf_reserved(*g, opts) {
                    reg[i] = r;
                    is_reserved[i] = true;
                    continue;
                }
                if next > 255 {
                    return Err(RegAllocError::OutOfRegisters {
                        at: NodeId(i as u32),
                        available: 256 - first_free,
                    });
                }
                reg[i] = next as u8;
                next += 1;
            }
            Ok(Allocation { reg, regs_used: next - first_free, is_reserved })
        }
        AllocStrategy::LinearScanReuse => {
            // Free list of reusable registers; expire intervals whose last
            // use is at or before the current node (a consumer may reuse
            // an input's register — Qat reads before it writes).
            let mut free: Vec<u8> = Vec::new();
            let mut next = first_free;
            let mut active: Vec<(usize, u8)> = Vec::new(); // (last_use, reg)
            let mut peak = 0u16;
            for (i, g) in nl.nodes().iter().enumerate() {
                if let Some(r) = leaf_reserved(*g, opts) {
                    reg[i] = r;
                    is_reserved[i] = true;
                    continue;
                }
                active.retain(|&(lu, r)| {
                    if lu <= i {
                        free.push(r);
                        false
                    } else {
                        true
                    }
                });
                let r = if let Some(r) = free.pop() {
                    r
                } else {
                    if next > 255 {
                        return Err(RegAllocError::OutOfRegisters {
                            at: NodeId(i as u32),
                            available: 256 - first_free,
                        });
                    }
                    let r = next as u8;
                    next += 1;
                    r
                };
                reg[i] = r;
                if last_use[i] > i {
                    active.push((last_use[i], r));
                }
                peak = peak.max(next - first_free);
            }
            Ok(Allocation { reg, regs_used: peak, is_reserved })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PintProgram;
    use pbp::Pbits;

    fn factoring_netlist() -> (Netlist, Vec<(String, NodeId)>) {
        crate::factor::build_factoring(15, 4, true).optimized()
    }

    #[test]
    fn greedy_uses_one_register_per_node() {
        let (nl, outs) = factoring_netlist();
        let opts = EmitOptions::default();
        let a = allocate(&nl, &outs, AllocStrategy::GreedyFresh, &opts).unwrap();
        assert_eq!(a.regs_used as usize, nl.len());
        // All registers distinct.
        let mut seen = std::collections::HashSet::new();
        for (i, &r) in a.reg.iter().enumerate() {
            assert!(seen.insert(r), "node {i} shares register {r}");
        }
    }

    #[test]
    fn linear_scan_uses_far_fewer() {
        // §4.2: "far fewer registers … could have been used".
        let (nl, outs) = factoring_netlist();
        let opts = EmitOptions::default();
        let greedy = allocate(&nl, &outs, AllocStrategy::GreedyFresh, &opts).unwrap();
        let scan = allocate(&nl, &outs, AllocStrategy::LinearScanReuse, &opts).unwrap();
        assert!(
            scan.regs_used * 3 < greedy.regs_used,
            "reuse {} vs greedy {}",
            scan.regs_used,
            greedy.regs_used
        );
    }

    #[test]
    fn linear_scan_never_clobbers_live_values() {
        // Validity: no two overlapping live ranges share a register.
        let (nl, outs) = factoring_netlist();
        let opts = EmitOptions::default();
        let a = allocate(&nl, &outs, AllocStrategy::LinearScanReuse, &opts).unwrap();
        // Check by abstract interpretation: evaluate with registers and
        // compare against direct node evaluation.
        let roots: Vec<NodeId> = (0..nl.len() as u32).map(NodeId).collect();
        let direct = nl.evaluate_aob(8, &roots);
        let mut regs = vec![pbp_aob::Aob::zeros(8); 256];
        for (i, g) in nl.nodes().iter().enumerate() {
            let v = match *g {
                Gate::Const(false) => pbp_aob::Aob::zeros(8),
                Gate::Const(true) => pbp_aob::Aob::ones(8),
                Gate::Had(k) => pbp_aob::Aob::hadamard(8, k as u32),
                Gate::And(x, y) => pbp_aob::Aob::and_of(
                    &regs[a.reg[x.0 as usize] as usize],
                    &regs[a.reg[y.0 as usize] as usize],
                ),
                Gate::Or(x, y) => pbp_aob::Aob::or_of(
                    &regs[a.reg[x.0 as usize] as usize],
                    &regs[a.reg[y.0 as usize] as usize],
                ),
                Gate::Xor(x, y) => pbp_aob::Aob::xor_of(
                    &regs[a.reg[x.0 as usize] as usize],
                    &regs[a.reg[y.0 as usize] as usize],
                ),
                Gate::Not(x) => regs[a.reg[x.0 as usize] as usize].not_of(),
            };
            regs[a.reg[i] as usize] = v;
        }
        // Every OUTPUT register must hold the right value at the end.
        for (_, o) in &outs {
            assert_eq!(regs[a.reg[o.0 as usize] as usize], direct[o.0 as usize]);
        }
    }

    #[test]
    fn constant_register_mode_reserves_leaves() {
        let (nl, outs) = factoring_netlist();
        let opts = EmitOptions { constant_registers: true, ways: 8 };
        let a = allocate(&nl, &outs, AllocStrategy::LinearScanReuse, &opts).unwrap();
        for (i, g) in nl.nodes().iter().enumerate() {
            match g {
                Gate::Const(false) => assert_eq!((a.reg[i], a.is_reserved[i]), (0, true)),
                Gate::Const(true) => assert_eq!((a.reg[i], a.is_reserved[i]), (1, true)),
                Gate::Had(k) => {
                    assert_eq!((a.reg[i], a.is_reserved[i]), (2 + k, true));
                }
                _ => {
                    assert!(!a.is_reserved[i]);
                    assert!(a.reg[i] as u16 >= 2 + 8);
                }
            }
        }
    }

    #[test]
    fn out_of_registers_is_reported() {
        // A chain of 300 XORs with all intermediates as outputs cannot fit
        // 256 registers greedily.
        let mut p = PintProgram::new();
        let a = p.pint_h(1, 0b1);
        let b = p.pint_h(1, 0b10);
        let Ok(mut cur) = p.pint_xor(&a, &b);
        for i in 0..300 {
            let Ok(x) = p.pint_xor(&cur, &a);
            let Ok(y) = p.pint_xor(&x, &b);
            cur = y;
            p.output(&format!("t{i}"), *cur.bit(0));
        }
        let (nl, outs) = p.optimized();
        let opts = EmitOptions::default();
        let e = allocate(&nl, &outs, AllocStrategy::GreedyFresh, &opts);
        assert!(matches!(e, Err(RegAllocError::OutOfRegisters { .. })));
        // Reuse also fails here (every intermediate is an output), which
        // is the correct answer, not a panic.
        let e2 = allocate(&nl, &outs, AllocStrategy::LinearScanReuse, &opts);
        assert!(matches!(e2, Err(RegAllocError::OutOfRegisters { .. })));
    }
}
