#![warn(missing_docs)]
//! # gatec — the gate-level compiler for Tangled/Qat
//!
//! The paper's Figure 10 program was produced by "the software-only PBP
//! implementation … slightly modified to output the gate-level operations
//! rather than to perform them". This crate rebuilds that pipeline as a
//! proper compiler:
//!
//! 1. **Build**: a word-level [`PintProgram`] runs the `pbp` crate's pint
//!    algorithm (it is a [`pbp::Pbits`] engine) but records a gate
//!    **netlist** instead of evaluating — Hadamard leaves, constants, and
//!    `AND`/`OR`/`XOR`/`NOT` over single pbits.
//! 2. **Optimize**: hash-consing (CSE), algebraic constant folding, and
//!    dead-gate elimination — the aggressive bit-level optimization the
//!    paper's ref \[2\] ("How Low Can You Go?") argues can cut gate counts
//!    by orders of magnitude. Folding can be disabled to measure exactly
//!    how much it buys ([`Netlist::new_unoptimized`]).
//! 3. **Allocate**: Qat register allocation, either the paper-faithful
//!    [`AllocStrategy::GreedyFresh`] ("the register allocation scheme
//!    greedily uses registers so that every intermediate computation's
//!    value is still available … at the end") or a last-use
//!    [`AllocStrategy::LinearScanReuse`] allocator showing "far fewer
//!    registers … could have been used".
//! 4. **Emit**: Tangled/Qat assembly. `NOT` nodes emit the paper's own
//!    copy-then-invert idiom (`or @d,@s,@s ; not @d` — Figure 10's
//!    `or @80,@79,@79`); with constant-register mode the Hadamard and
//!    constant leaves cost zero instructions.
//!
//! [`factor::compile_factoring`] assembles the complete prime-factoring
//! program for any small modulus, including the Figure-10-style `next`/
//! `and` read-out tail, and [`factor::FIGURE_10`] is the paper's program
//! verbatim for conformance testing.

pub mod builder;
pub mod emit;
pub mod factor;
pub mod netlist;
pub mod regalloc;
pub mod verilog;

pub use builder::PintProgram;
pub use emit::{emit_asm, EmitOptions, EmitResult};
pub use netlist::{Gate, Netlist, NodeId};
pub use regalloc::{allocate, AllocStrategy, Allocation, RegAllocError};
pub use netlist::equivalent;
pub use verilog::to_verilog;

/// End-to-end convenience: optimize, allocate, and emit a program.
pub struct Compiler {
    /// Register-allocation strategy.
    pub strategy: AllocStrategy,
    /// Emission options (constant-register mode etc.).
    pub emit: EmitOptions,
}

impl Default for Compiler {
    fn default() -> Self {
        Compiler { strategy: AllocStrategy::LinearScanReuse, emit: EmitOptions::default() }
    }
}

impl Compiler {
    /// Compile a finished program to assembly text plus output-register map.
    pub fn compile(&self, prog: &PintProgram) -> Result<EmitResult, RegAllocError> {
        let (nl, outputs) = prog.optimized();
        let alloc = allocate(&nl, &outputs, self.strategy, &self.emit)?;
        Ok(emit_asm(&nl, &outputs, &alloc, &self.emit))
    }
}
