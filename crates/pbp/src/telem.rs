//! Crate-internal telemetry handles for the RE and tree representations.

use tangled_telemetry::{Counter, Histogram};

/// RE-layer gate operations (binary ops through `PbpContext::binop`).
pub static RE_GATES: Counter = Counter::new("pbp.re.gates");
/// Compression ratio of each RE gate result: universe chunks divided by
/// stored runs (higher = better compression).
pub static RE_COMPRESSION: Histogram = Histogram::new("pbp.re.compression");
/// Packed period footprint of each RE gate result, in `u32` command
/// words.
pub static RE_PACKED_WORDS: Histogram = Histogram::new("pbp.re.packed.words");
/// Packed-encoding win of each RE gate result: flat `Vec<Run>` words
/// divided by packed command words (>= 1 means the packed form never
/// loses to the flat-run baseline).
pub static RE_PACKED_RATIO: Histogram = Histogram::new("pbp.re.packed.ratio");
/// Tree builds from explicit values (`TreeCtx::from_aob`).
pub static TREE_BUILDS: Counter = Counter::new("pbp.tree.builds");
/// Tree binop calls answered from the node memo table.
pub static TREE_MEMO_HITS: Counter = Counter::new("pbp.tree.memo_hits");
