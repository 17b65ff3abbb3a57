//! Gate-count and gate-delay cost model for the Qat ALU (paper §3.2–§3.3).
//!
//! The paper reasons analytically about the hardware cost of each ALU
//! function for `WAYS`-way entanglement (`N = 2^WAYS` bits):
//!
//! * bitwise gates are one gate per bit, delay 1;
//! * `ccnot` needs an AND feeding an XOR per bit (delay 2);
//! * `cswap` is a masked-swap network (delay 3 as XOR/AND/XOR);
//! * `had` is a constant multiplexor selecting one of `WAYS+1` patterns —
//!   a mux tree of depth `⌈log2(WAYS+1)⌉` per output bit (the student
//!   "case statement" solution), or zero gates in the §5
//!   constant-register design;
//! * `next` (Figure 8) is a barrel shifter (`O(log N) = O(WAYS)` delay,
//!   `N·WAYS` mux gates) followed by a count-trailing-zeros recursion of
//!   `WAYS` steps, where step `k` OR-reduces `2^k` bits. With a wide OR
//!   (single-level) each step costs delay 1 → total `O(WAYS)`; with a tree
//!   of 2-input ORs step `k` costs delay `k` → total `O(WAYS²)`. Both
//!   variants are modelled so `gen_results` can tabulate the §3.3 comparison.
//!
//! Delays are in "gate levels"; [`pipeline_stages`] converts a delay into
//! the §3.3 suggestion of splitting `next` across pipeline stages.

/// How the `next` circuit's OR-reductions are realized (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrReduction {
    /// A single wide OR gate per test: step `k` costs one gate delay.
    WideOr,
    /// A balanced tree of 2-input ORs: step `k` costs `max(k,1)` delays.
    TreeOr,
}

/// Gate classes whose costs the model reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// `and` / `or` / `xor` / `not` / `cnot` — single-level bitwise.
    Bitwise,
    /// `ccnot` — AND into XOR.
    Ccnot,
    /// `swap` — pure wiring (zero gates) but two write ports.
    Swap,
    /// `cswap` — masked swap network.
    Cswap,
    /// `had` — pattern multiplexor.
    Had,
    /// `meas` — channel-select multiplexor (N-to-1 mux).
    Meas,
    /// `next` — barrel shifter + count-trailing-zeros.
    Next,
    /// `pop` — masked popcount tree (shares the shifter with `next`).
    Pop,
}

/// Number of AoB bits for a given entanglement degree.
#[inline]
pub fn aob_bits(ways: u32) -> u64 {
    1u64 << ways
}

/// Estimated 2-input-equivalent gate count for one ALU operation.
pub fn gate_count(op: AluOp, ways: u32, or_model: OrReduction) -> u64 {
    let n = aob_bits(ways);
    let w = ways as u64;
    match op {
        AluOp::Bitwise => n,
        AluOp::Ccnot => 2 * n,
        AluOp::Swap => 0,
        AluOp::Cswap => 3 * n, // t = (a^b)&m; a^=t; b^=t
        // One (WAYS+1)-way mux per output bit ≈ log2(WAYS+1) 2-input levels.
        AluOp::Had => n * (64 - (w + 1).leading_zeros() as u64),
        // N-to-1 mux tree: N-1 2-input muxes (≈ 3 gates each; count muxes).
        AluOp::Meas => n - 1,
        AluOp::Next => {
            // Barrel shifter: WAYS stages of N muxes, then the CTZ recursion.
            let shifter = w * n;
            let ctz = match or_model {
                // wide OR: one gate per tested block, 2 blocks per step
                OrReduction::WideOr => 2 * w,
                // tree: step k OR-reduces 2^k bits twice ≈ 2·(2^k - 1) gates
                OrReduction::TreeOr => (0..w).map(|k| 2 * ((1u64 << k) - 1).max(1)).sum(),
            };
            shifter + ctz
        }
        // Popcount: a tree of adders over N bits ≈ 2N gates, plus the shifter.
        AluOp::Pop => ways as u64 * n + 2 * n,
    }
}

/// Estimated gate-delay (levels of logic) for one ALU operation.
pub fn gate_delay(op: AluOp, ways: u32, or_model: OrReduction) -> u64 {
    let w = ways as u64;
    match op {
        AluOp::Bitwise => 1,
        AluOp::Ccnot => 2,
        AluOp::Swap => 0,
        AluOp::Cswap => 3,
        AluOp::Had => (64 - (w + 1).leading_zeros() as u64).max(1),
        AluOp::Meas => w.max(1), // mux-tree depth = WAYS
        AluOp::Next => {
            // Shifter: O(WAYS) levels; CTZ: WAYS steps whose OR cost varies.
            let shifter = w;
            let ctz: u64 = match or_model {
                OrReduction::WideOr => w, // 1 level per step
                OrReduction::TreeOr => (0..w).map(|k| k.max(1)).sum(), // Σk → O(WAYS²)
            };
            shifter + ctz
        }
        AluOp::Pop => w + w, // shifter + adder-tree depth
    }
}

/// §3.3: "the next ALU function for 16-way entanglement might more
/// appropriately be split into several pipeline stages". Given a clock
/// budget in gate levels, how many stages does the op need?
pub fn pipeline_stages(op: AluOp, ways: u32, or_model: OrReduction, levels_per_stage: u64) -> u64 {
    assert!(levels_per_stage > 0);
    gate_delay(op, ways, or_model).div_ceil(levels_per_stage).max(1)
}

/// Total pattern-generator gates saved by the §5 constant-register design:
/// the `had` generator disappears entirely (plus `zero`/`one` drivers),
/// traded for `ways + 2` reserved registers.
pub fn constant_register_savings(ways: u32) -> u64 {
    gate_count(AluOp::Had, ways, OrReduction::WideOr) + 2 * aob_bits(ways)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitwise_scales_linearly_in_bits() {
        assert_eq!(gate_count(AluOp::Bitwise, 8, OrReduction::WideOr), 256);
        assert_eq!(gate_count(AluOp::Bitwise, 16, OrReduction::WideOr), 65_536);
        assert_eq!(gate_delay(AluOp::Bitwise, 16, OrReduction::WideOr), 1);
    }

    #[test]
    fn next_delay_asymptotics_match_section_3_3() {
        // Wide-OR: O(WAYS) — exactly 2·WAYS levels in this model.
        for ways in [8u32, 16] {
            assert_eq!(
                gate_delay(AluOp::Next, ways, OrReduction::WideOr),
                2 * ways as u64
            );
        }
        // Tree-OR: O(WAYS²) — grows ~4x when WAYS doubles.
        let d8 = gate_delay(AluOp::Next, 8, OrReduction::TreeOr);
        let d16 = gate_delay(AluOp::Next, 16, OrReduction::TreeOr);
        assert!(d16 > 3 * d8, "tree-OR should be superlinear: {d8} -> {d16}");
        // And tree is never faster than wide.
        for ways in 1..=20u32 {
            assert!(
                gate_delay(AluOp::Next, ways, OrReduction::TreeOr)
                    >= gate_delay(AluOp::Next, ways, OrReduction::WideOr)
            );
        }
    }

    #[test]
    fn student_8way_next_fits_one_stage_but_16way_tree_does_not() {
        // §3.3: students limited WAYS to 8, "easily viable within a single
        // pipeline stage". Take a generous 40-level clock budget:
        let budget = 40;
        assert_eq!(
            pipeline_stages(AluOp::Next, 8, OrReduction::TreeOr, budget),
            1
        );
        assert!(pipeline_stages(AluOp::Next, 16, OrReduction::TreeOr, budget) > 1);
        // With wide ORs even 16-way fits:
        assert_eq!(
            pipeline_stages(AluOp::Next, 16, OrReduction::WideOr, budget),
            1
        );
    }

    #[test]
    fn swap_is_free_gates_but_needs_ports() {
        assert_eq!(gate_count(AluOp::Swap, 16, OrReduction::WideOr), 0);
        assert_eq!(gate_delay(AluOp::Swap, 16, OrReduction::WideOr), 0);
    }

    #[test]
    fn constant_register_savings_positive_and_growing() {
        let s8 = constant_register_savings(8);
        let s16 = constant_register_savings(16);
        assert!(s8 > 0);
        assert!(s16 > 100 * s8 / 2, "savings scale with 2^WAYS");
    }

    #[test]
    fn delay_monotone_in_ways() {
        for op in [AluOp::Had, AluOp::Meas, AluOp::Next, AluOp::Pop] {
            for ways in 2..20u32 {
                assert!(
                    gate_delay(op, ways + 1, OrReduction::TreeOr)
                        >= gate_delay(op, ways, OrReduction::TreeOr),
                    "{op:?} ways={ways}"
                );
            }
        }
    }

    #[test]
    fn pipeline_stages_requires_budget() {
        assert_eq!(pipeline_stages(AluOp::Bitwise, 16, OrReduction::WideOr, 10), 1);
        let d = gate_delay(AluOp::Next, 16, OrReduction::TreeOr);
        assert_eq!(pipeline_stages(AluOp::Next, 16, OrReduction::TreeOr, d), 1);
        assert_eq!(pipeline_stages(AluOp::Next, 16, OrReduction::TreeOr, d.div_ceil(2)), 2);
    }
}
