#![warn(missing_docs)]
//! # pbp-aob — the Array-of-Bits substrate for parallel bit pattern computing
//!
//! This crate implements the **AoB** (Array of Bits) representation from the
//! Tangled/Qat paper (Dietz, ICPP Workshops 2021) and its predecessor PBP
//! papers. An `E`-way entangled *pbit* (pattern bit) is represented as a
//! vector of `2^E` bits. Each position within the vector is an
//! *entanglement channel*: the bit at channel `e` of a pbit is the value
//! that pbit takes in the possible world labelled `e`.
//!
//! All Qat coprocessor operations reduce to operations on AoB vectors:
//!
//! * bitwise gates (`not`, `and`, `or`, `xor`) and their reversible
//!   relatives (`cnot`, `ccnot`, `swap`, `cswap`) act channel-wise,
//! * the Hadamard initializers `H(k)` produce the standard entangled
//!   superpositions (bit `e` of `H(k)` is bit `k` of the binary number `e`),
//! * measurement is **non-destructive**: [`Aob::meas`] reads one channel,
//!   [`Aob::next`] scans for the next 1-valued channel, and the summary
//!   reductions `ANY`/`ALL`/`POP` are provided both directly and via the
//!   paper's `next`+`meas` recipes.
//!
//! The vectors are stored packed, 64 channels per `u64` word, and all gate
//! operations are word-parallel — this is the software rendering of the
//! paper's "bit-level, massively-parallel, SIMD hardware". There is no
//! multithreaded path: at 4 Mbit a scalar pass already beats splitting the
//! words across threads (EXPERIMENTS.md).
//!
//! ## Example
//!
//! ```
//! use pbp_aob::Aob;
//!
//! // Figure 1 of the paper: two 2-way entangled pbits.
//! let lo = Aob::hadamard(2, 0); // {0,1,0,1}
//! let hi = Aob::hadamard(2, 1); // {0,0,1,1}
//! // Channel e pairs bit e of `lo` with bit e of `hi`; as a 2-bit value the
//! // channels encode 0,1,2,3 — four equiprobable values.
//! for e in 0..4u64 {
//!     let v = lo.meas(e) as u64 | ((hi.meas(e) as u64) << 1);
//!     assert_eq!(v, e);
//! }
//! ```

pub mod adaptive;
pub mod bitvec;
pub mod energy;
pub mod gates;
pub mod hadamard;
pub mod intern;
pub mod measure;
pub mod storage;
pub mod warm;

pub use adaptive::AdaptiveFile;
pub use bitvec::{Aob, MAX_WAYS};
pub use energy::{EnergyMeter, EnergyModel};
pub use intern::{ChunkId, ChunkStore, GateOp, InternStats, SnapshotError, ID_ONE, ID_ZERO};
pub use warm::WarmStoreId;
pub use storage::{
    AdaptiveStats, AobStorage, ConstKind, EagerFile, GateAction, InternedFile, PackedStats,
    StorageBackend, WaysError, WriteDelta, HW_MAX_WAYS,
};
