#![warn(missing_docs)]
//! # tangled-qat — facade crate
//!
//! Re-exports the full Tangled/Qat reproduction: the AoB substrate, the PBP
//! model, the ISA, assembler, processor simulators, gate compiler, and the
//! state-vector baseline. See the workspace README for the architecture
//! overview and DESIGN.md for the paper-to-crate mapping.
//!
//! ## The paper's worked example, end to end
//!
//! ```
//! use tangled_qat::prelude::*;
//!
//! // §2.7: had @123,4 ; lex $8,42 ; next $8,@123  =>  $8 = 48
//! let img = assemble("had @123,4\nlex $8,42\nnext $8,@123\nsys\n").unwrap();
//! let mut m = Machine::with_image(Default::default(), &img.words);
//! m.run().unwrap();
//! assert_eq!(m.regs[8], 48);
//! ```
//!
//! ## Factoring 15 the Figure 9 way
//!
//! ```
//! use tangled_qat::pbp::{Pbits, PbpContext};
//!
//! let mut ctx = PbpContext::new(8);
//! let n = ctx.pint_mk(4, 15);
//! let b = ctx.pint_h(4, 0x0f);
//! let c = ctx.pint_h(4, 0xf0);
//! let Ok(d) = ctx.pint_mul(&b, &c);
//! let Ok(e) = ctx.pint_eq(&d, &n);
//! let factors: Vec<u64> =
//!     ctx.pint_measure_where(&b, &e).into_iter().map(|v| v.value).collect();
//! assert_eq!(factors, vec![1, 3, 5, 15]);
//! ```

pub mod runner;

pub use gatec;
pub use pbp;
pub use pbp_aob as aob;
pub use qat_coproc as qat;
pub use qsim_baseline as qsim;
pub use tangled_asm as asm;
pub use tangled_bench as bench;
pub use tangled_bfloat as bfloat;
pub use tangled_isa as isa;
pub use tangled_serve as serve;
pub use tangled_sim as sim;
pub use tangled_telemetry as telemetry;

/// Convenience prelude bringing the most-used types into scope.
pub mod prelude {
    pub use gatec::{Compiler, PintProgram};
    pub use pbp::{Pbits, PbpContext, Pint};
    pub use pbp_aob::Aob;
    pub use qat_coproc::{QatConfig, QatCoprocessor};
    pub use tangled_asm::assemble;
    pub use tangled_sim::{Machine, MultiCycleSim, PipelineConfig, PipelinedSim};
}
