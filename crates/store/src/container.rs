//! The `tangled-store/v1` container: magic, version, kind, section table,
//! per-section checksums.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  = "TGLSTORE"
//! 8       4     format version (currently 1)
//! 12      8     kind — NUL-padded ASCII tag naming the client format
//!               (e.g. "chunks")
//! 20      4     section count N
//! 24      8     table checksum — hash64 of the 32·N entry bytes below
//! 32      32·N  section table entries:
//!                 name      8  NUL-padded ASCII
//!                 offset    8  absolute byte offset of the payload
//!                 len       8  payload length in bytes
//!                 checksum  8  hash64 of the payload bytes
//! ...           section payloads (in table order, no gaps required)
//! ```
//!
//! The checksum rule: every section's payload is covered by its own
//! [`crate::hash64`]; [`Container::from_bytes`] verifies all of them up
//! front, so a client that got a `Container` never sees corrupt bytes.
//! Version-bump policy: additive changes (new sections, new trailing
//! fields inside a section) keep version 1 — readers ignore unknown
//! sections and clients tolerate longer payloads they understand a prefix
//! of only if they explicitly choose to; any change to existing field
//! meaning bumps the version, and readers reject newer versions with
//! [`StoreError::UnsupportedVersion`] rather than guessing.

use crate::io::{pad_name, unpad_name, Cursor};
use crate::{hash64, telem, StoreError};
use std::path::Path;

/// The 8-byte file magic.
pub const MAGIC: &[u8; 8] = b"TGLSTORE";

/// Current container format version.
pub const VERSION: u32 = 1;

/// Width of the fixed name fields (kind and section names).
const NAME_LEN: usize = 8;

/// Bytes per section-table entry.
const ENTRY_LEN: usize = NAME_LEN + 8 + 8 + 8;

/// Fixed header size before the section table (magic, version, kind,
/// section count, table checksum).
const HEADER_LEN: usize = 8 + 4 + NAME_LEN + 4 + 8;

/// Cap on the section count a reader will accept: the table must describe
/// a real file, and hostile counts must not drive huge allocations.
const MAX_SECTIONS: u32 = 1 << 10;

/// One parsed section: a named, checksum-verified payload.
#[derive(Debug, Clone)]
pub struct Section {
    /// Section name (≤ 8 ASCII bytes).
    pub name: String,
    /// Payload bytes (already checksum-verified).
    pub bytes: Vec<u8>,
}

/// Builder for a container of the given kind.
#[derive(Debug)]
pub struct ContainerWriter {
    kind: String,
    sections: Vec<Section>,
}

impl ContainerWriter {
    /// Start a container of `kind` (≤ 8 ASCII bytes, e.g. `"chunks"`).
    pub fn new(kind: &str) -> Self {
        assert!(kind.len() <= NAME_LEN, "container kind `{kind}` exceeds {NAME_LEN} bytes");
        ContainerWriter { kind: kind.to_string(), sections: Vec::new() }
    }

    /// Append a section. Names must be unique within the container.
    pub fn section(&mut self, name: &str, bytes: Vec<u8>) -> &mut Self {
        assert!(name.len() <= NAME_LEN, "section name `{name}` exceeds {NAME_LEN} bytes");
        assert!(
            self.sections.iter().all(|s| s.name != name),
            "duplicate section `{name}`"
        );
        self.sections.push(Section { name: name.to_string(), bytes });
        self
    }

    /// Serialize the container to bytes.
    pub fn finish(self) -> Vec<u8> {
        let table_end = HEADER_LEN + ENTRY_LEN * self.sections.len();
        let total = table_end + self.sections.iter().map(|s| s.bytes.len()).sum::<usize>();
        let mut table = Vec::with_capacity(ENTRY_LEN * self.sections.len());
        let mut offset = table_end as u64;
        for s in &self.sections {
            table.extend_from_slice(&pad_name::<NAME_LEN>(&s.name));
            table.extend_from_slice(&offset.to_le_bytes());
            table.extend_from_slice(&(s.bytes.len() as u64).to_le_bytes());
            table.extend_from_slice(&hash64(&s.bytes).to_le_bytes());
            offset += s.bytes.len() as u64;
        }
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&pad_name::<NAME_LEN>(&self.kind));
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        out.extend_from_slice(&hash64(&table).to_le_bytes());
        out.extend_from_slice(&table);
        for s in &self.sections {
            out.extend_from_slice(&s.bytes);
        }
        debug_assert_eq!(out.len(), total);
        out
    }

    /// Serialize and write to `path` (atomically, via a sibling temp file
    /// renamed into place). Returns the bytes written; accounted under
    /// `store.save.bytes`.
    pub fn write(self, path: &Path) -> Result<u64, StoreError> {
        let bytes = self.finish();
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)?;
        telem::SAVE_BYTES.add(bytes.len() as u64);
        Ok(bytes.len() as u64)
    }
}

/// Account container bytes a client wrote through its own I/O path (e.g.
/// an atomic temp-file rename over [`ContainerWriter::finish`] bytes)
/// under `store.save.bytes`.
pub fn account_save(n: u64) {
    telem::SAVE_BYTES.add(n);
}

/// A parsed, fully checksum-verified container.
#[derive(Debug)]
pub struct Container {
    kind: String,
    sections: Vec<Section>,
}

impl Container {
    /// Parse a container, requiring it to be of `expected_kind`. Every
    /// section's checksum is verified before this returns.
    pub fn from_bytes(bytes: &[u8], expected_kind: &str) -> Result<Container, StoreError> {
        let mut c = Cursor::new(bytes);
        let magic = c.bytes(8, "magic")?;
        if magic != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = c.u32("version")?;
        if version != VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let kind = unpad_name(c.bytes(NAME_LEN, "kind")?);
        if kind != expected_kind {
            return Err(StoreError::WrongKind {
                expected: expected_kind.to_string(),
                found: kind,
            });
        }
        let count = c.u32("section count")?;
        if count > MAX_SECTIONS {
            return Err(StoreError::Malformed(format!(
                "section count {count} exceeds the {MAX_SECTIONS}-section cap"
            )));
        }
        let table_checksum = c.u64("table checksum")?;
        let table = {
            let mut peek = c;
            peek.bytes(ENTRY_LEN * count as usize, "section table")?
        };
        if hash64(table) != table_checksum {
            return Err(StoreError::ChecksumMismatch { section: "<table>".to_string() });
        }
        let mut sections = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let name = unpad_name(c.bytes(NAME_LEN, "section name")?);
            let offset = c.u64("section offset")?;
            let len = c.u64("section length")?;
            let checksum = c.u64("section checksum")?;
            let (start, end) = (offset as usize, offset.checked_add(len).map(|e| e as usize));
            let end = end.filter(|&e| e <= bytes.len() && start <= e).ok_or(
                StoreError::Truncated("section payload extends past end of file"),
            )?;
            let payload = &bytes[start..end];
            if hash64(payload) != checksum {
                return Err(StoreError::ChecksumMismatch { section: name });
            }
            if sections.iter().any(|s: &Section| s.name == name) {
                return Err(StoreError::Malformed(format!("duplicate section `{name}`")));
            }
            sections.push(Section { name, bytes: payload.to_vec() });
        }
        telem::LOAD_BYTES.add(bytes.len() as u64);
        Ok(Container { kind, sections })
    }

    /// Read and parse a container file.
    pub fn open(path: &Path, expected_kind: &str) -> Result<Container, StoreError> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes, expected_kind)
    }

    /// The container's kind tag.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// All sections, in table order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// A required section's payload, or [`StoreError::MissingSection`].
    ///
    /// Lifetime note: `name` must be a `'static` literal so the error can
    /// carry it without allocation — section names are protocol constants.
    pub fn section(&self, name: &'static str) -> Result<&[u8], StoreError> {
        self.sections
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.bytes.as_slice())
            .ok_or(StoreError::MissingSection(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = ContainerWriter::new("testkind");
        w.section("alpha", vec![1, 2, 3, 4, 5]);
        w.section("beta", (0..200u8).collect());
        w.finish()
    }

    #[test]
    fn round_trip() {
        let bytes = sample();
        let c = Container::from_bytes(&bytes, "testkind").unwrap();
        assert_eq!(c.kind(), "testkind");
        assert_eq!(c.section("alpha").unwrap(), &[1, 2, 3, 4, 5]);
        assert_eq!(c.section("beta").unwrap().len(), 200);
        assert!(matches!(c.section("gamma"), Err(StoreError::MissingSection("gamma"))));
    }

    #[test]
    fn bad_magic() {
        let mut bytes = sample();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Container::from_bytes(&bytes, "testkind"),
            Err(StoreError::BadMagic)
        ));
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = sample();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Container::from_bytes(&bytes, "testkind"),
            Err(StoreError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn wrong_kind_rejected() {
        let bytes = sample();
        match Container::from_bytes(&bytes, "other") {
            Err(StoreError::WrongKind { expected, found }) => {
                assert_eq!(expected, "other");
                assert_eq!(found, "testkind");
            }
            other => panic!("expected WrongKind, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_is_typed() {
        let bytes = sample();
        for n in 0..bytes.len() {
            let err = Container::from_bytes(&bytes[..n], "testkind")
                .expect_err("truncated container must not parse");
            assert!(
                matches!(
                    err,
                    StoreError::BadMagic
                        | StoreError::Truncated(_)
                        | StoreError::ChecksumMismatch { .. }
                ),
                "prefix of {n} bytes gave unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_detected_or_structural() {
        let bytes = sample();
        // Flipping any payload bit must surface as a checksum mismatch (or,
        // when the flip lands in the header/table, a structural error).
        for byte in 0..bytes.len() {
            let mut m = bytes.clone();
            m[byte] ^= 0x10;
            assert!(
                Container::from_bytes(&m, "testkind").is_err(),
                "flip at byte {byte} went unnoticed"
            );
        }
    }
}
