//! Bounds-checked little-endian readers/writers for the container format.
//!
//! Every read goes through [`Cursor`], which returns
//! [`StoreError::Truncated`] instead of panicking when the buffer runs
//! out — the invariant the whole crate's "hostile bytes never panic"
//! promise rests on.

use crate::StoreError;

/// Append-only little-endian byte writer over a `Vec<u8>`.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Fresh empty writer.
    pub fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    /// Finish and take the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Bounds-checked little-endian reader over a byte slice.
#[derive(Debug, Clone, Copy)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor consumed the whole buffer.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Take the next `n` raw bytes.
    pub fn bytes(&mut self, n: usize, ctx: &'static str) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated(ctx));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self, ctx: &'static str) -> Result<u8, StoreError> {
        Ok(self.bytes(1, ctx)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self, ctx: &'static str) -> Result<u32, StoreError> {
        let b = self.bytes(4, ctx)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self, ctx: &'static str) -> Result<u64, StoreError> {
        let b = self.bytes(8, ctx)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
}

/// Decode a NUL-padded fixed-width ASCII name field.
pub fn unpad_name(raw: &[u8]) -> String {
    let end = raw.iter().position(|&b| b == 0).unwrap_or(raw.len());
    String::from_utf8_lossy(&raw[..end]).into_owned()
}

/// Encode a name into a NUL-padded `N`-byte field. Panics if the name is
/// too long — names are compile-time constants on the write path.
pub fn pad_name<const N: usize>(name: &str) -> [u8; N] {
    assert!(name.len() <= N, "name `{name}` exceeds {N} bytes");
    let mut out = [0u8; N];
    out[..name.len()].copy_from_slice(name.as_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_bytes(b"hello");
        let bytes = w.into_bytes();
        let mut c = Cursor::new(&bytes);
        assert_eq!(c.u8("a").unwrap(), 7);
        assert_eq!(c.u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(c.u64("c").unwrap(), u64::MAX - 3);
        assert_eq!(c.bytes(5, "d").unwrap(), b"hello");
        assert!(c.is_exhausted());
    }

    #[test]
    fn truncation_is_typed() {
        let mut c = Cursor::new(&[1, 2, 3]);
        assert!(matches!(c.u64("short"), Err(StoreError::Truncated("short"))));
    }

    #[test]
    fn name_padding() {
        let p = pad_name::<8>("meta");
        assert_eq!(&p, b"meta\0\0\0\0");
        assert_eq!(unpad_name(&p), "meta");
    }
}
