#![warn(missing_docs)]
//! # tangled-store — the persistent artifact layer
//!
//! Interned chunk stores, which the simulator would otherwise rebuild per
//! process, persist through this crate as ChunkStore snapshots. The
//! building block is [`container`], the `tangled-store/v1` binary
//! container: magic, format version, a typed *kind* tag, a section table,
//! and a 64-bit checksum per section. A snapshot serializes into one
//! container and is validated wholesale on load.
//!
//! Every failure on the read path is a typed [`StoreError`] — hostile or
//! truncated bytes must never panic. Writers go through [`io::ByteWriter`]
//! / readers through [`io::Cursor`], which bounds-check every field.
//!
//! The checksum is [`hash64`]: an xxhash-style word-at-a-time
//! multiply-rotate hash with avalanche finalization. It only has to catch
//! corruption (bit flips, truncation, torn writes), not resist attackers,
//! and it must stay dependency-free — the build environment has no
//! crates.io access.

pub mod container;
pub mod io;

/// Telemetry mirrors of the container read/write paths.
pub(crate) mod telem {
    use tangled_telemetry::Counter;

    pub static SAVE_BYTES: Counter = Counter::new("store.save.bytes");
    pub static LOAD_BYTES: Counter = Counter::new("store.load.bytes");
}

pub use container::{Container, ContainerWriter, Section, MAGIC, VERSION};

/// Why a store operation failed. Read paths return these for *any* byte
/// sequence — a corrupted, truncated, or adversarial file is an error, not
/// a panic.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file does not start with the `tangled-store` magic.
    BadMagic,
    /// The container's format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The container is of a different kind than the caller expected
    /// (e.g. a foreign container opened as a ChunkStore snapshot).
    WrongKind {
        /// Kind the caller asked for.
        expected: String,
        /// Kind recorded in the file.
        found: String,
    },
    /// The byte stream ended before a field or payload was complete.
    Truncated(&'static str),
    /// A section's stored checksum does not match its payload.
    ChecksumMismatch {
        /// Name of the failing section (`<table>` for the section table).
        section: String,
    },
    /// A required section is absent from the container.
    MissingSection(&'static str),
    /// The bytes parsed but violate a structural invariant.
    Malformed(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::BadMagic => write!(f, "not a tangled-store container (bad magic)"),
            StoreError::UnsupportedVersion(v) => {
                write!(f, "unsupported tangled-store format version {v} (this build reads {VERSION})")
            }
            StoreError::WrongKind { expected, found } => {
                write!(f, "container kind mismatch: expected `{expected}`, found `{found}`")
            }
            StoreError::Truncated(ctx) => write!(f, "truncated container: {ctx}"),
            StoreError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section `{section}`")
            }
            StoreError::MissingSection(name) => write!(f, "missing section `{name}`"),
            StoreError::Malformed(what) => write!(f, "malformed container: {what}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// 64-bit payload checksum: xxhash-style word-at-a-time multiply-rotate
/// with a murmur-style avalanche, seeded by the length so that an empty
/// payload and a zero-filled one differ.
pub fn hash64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = (bytes.len() as u64).wrapping_mul(PRIME) ^ 0x51_7c_c1_b7_27_22_0a_95;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        let v = u64::from_le_bytes(w.try_into().expect("chunks_exact(8)"));
        h = (h.rotate_left(27) ^ v).wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        h = (h.rotate_left(11) ^ b as u64).wrapping_mul(PRIME);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 29;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash64_discriminates() {
        assert_ne!(hash64(b""), hash64(&[0]));
        assert_ne!(hash64(&[0; 8]), hash64(&[0; 9]));
        assert_ne!(hash64(b"abcdefgh"), hash64(b"abcdefgi"));
        // Single-bit flips anywhere move the hash.
        let base = vec![0xA5u8; 37];
        let h0 = hash64(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut m = base.clone();
                m[byte] ^= 1 << bit;
                assert_ne!(hash64(&m), h0, "flip at {byte}.{bit} undetected");
            }
        }
    }
}
