//! The on-disk snapshot container and its primitive codec.
//!
//! A checkpoint file is:
//!
//! ```text
//! magic    8 bytes   b"HIRECKPT"
//! version  4 bytes   u32 LE (currently 1)
//! length   8 bytes   u64 LE, payload byte count
//! payload  N bytes   snapshot fields (see `snapshot`)
//! crc32    4 bytes   u32 LE, IEEE CRC-32 of the payload
//! ```
//!
//! Truncation is caught by the length field (and by the missing trailer),
//! bit flips anywhere in the payload by the CRC, and header damage by the
//! magic/version/length validation. [`decode_container`] never panics on
//! hostile bytes — every malformed input is a typed
//! [`HireError::CorruptCheckpoint`].

use hire_error::{HireError, HireResult};

/// File magic identifying a HIRE checkpoint.
pub(crate) const MAGIC: [u8; 8] = *b"HIRECKPT";

/// Current snapshot format version. Bump on any payload layout change.
pub(crate) const FORMAT_VERSION: u32 = 1;

/// Bytes before the payload: magic + version + length.
pub(crate) const HEADER_LEN: usize = 8 + 4 + 8;

/// Bytes after the payload: the CRC-32 trailer.
pub(crate) const TRAILER_LEN: usize = 4;

/// IEEE CRC-32 (the polynomial used by zip/PNG), bitwise-reflected,
/// computed with a lazily built 256-entry table.
pub fn crc32(bytes: &[u8]) -> u32 {
    const POLY: u32 = 0xEDB8_8320;
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        table
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Wraps a payload in the versioned, checksummed container.
pub fn encode_container(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// Validates the container and returns the payload slice. `path` only
/// labels the error.
pub fn decode_container<'a>(bytes: &'a [u8], path: &str) -> HireResult<&'a [u8]> {
    let corrupt = |message: String| HireError::corrupt_checkpoint(path, message);
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(corrupt(format!(
            "file too short ({} bytes) to hold a snapshot header",
            bytes.len()
        )));
    }
    if bytes[..8] != MAGIC {
        return Err(corrupt("bad magic — not a HIRE checkpoint".to_string()));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(corrupt(format!(
            "unsupported format version {version} (supported: {FORMAT_VERSION})"
        )));
    }
    let payload_len = u64::from_le_bytes(bytes[12..HEADER_LEN].try_into().expect("8 bytes"));
    let expected_total = (HEADER_LEN as u64)
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(TRAILER_LEN as u64))
        .ok_or_else(|| corrupt(format!("absurd payload length {payload_len}")))?;
    if bytes.len() as u64 != expected_total {
        return Err(corrupt(format!(
            "length mismatch: header promises {payload_len} payload bytes, file holds {}",
            bytes.len()
        )));
    }
    let payload = &bytes[HEADER_LEN..HEADER_LEN + payload_len as usize];
    let stored_crc = u32::from_le_bytes(
        bytes[HEADER_LEN + payload_len as usize..]
            .try_into()
            .expect("4 bytes"),
    );
    let actual_crc = crc32(payload);
    if stored_crc != actual_crc {
        return Err(corrupt(format!(
            "CRC mismatch: stored {stored_crc:08x}, computed {actual_crc:08x}"
        )));
    }
    Ok(payload)
}

/// Append-only encoder for snapshot payload fields.
#[derive(Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes, returning the payload bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32` (LE).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` (LE).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f32` as its raw bits (LE) — round-trips NaN payloads.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Writes a length-prefixed `f32` slice.
    pub(crate) fn put_f32_slice(&mut self, vs: &[f32]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_f32(v);
        }
    }

    /// Writes a length-prefixed `u64` slice.
    pub(crate) fn put_u64_slice(&mut self, vs: &[u64]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_u64(v);
        }
    }
}

/// Cursor-based decoder mirroring [`PayloadWriter`]. Every read is
/// bounds-checked; running off the end is a typed corruption error, never a
/// panic.
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
    path: &'a str,
}

impl<'a> PayloadReader<'a> {
    /// Wraps a payload slice; `path` labels errors.
    pub fn new(buf: &'a [u8], path: &'a str) -> Self {
        PayloadReader { buf, pos: 0, path }
    }

    /// True when every byte has been consumed.
    pub(crate) fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn short(&self, what: &str) -> HireError {
        HireError::corrupt_checkpoint(
            self.path,
            format!(
                "payload truncated reading {what} at byte {} of {}",
                self.pos,
                self.buf.len()
            ),
        )
    }

    fn take(&mut self, n: usize, what: &str) -> HireResult<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.short(what))?;
        if end > self.buf.len() {
            return Err(self.short(what));
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads a `u8`.
    pub fn take_u8(&mut self, what: &str) -> HireResult<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a `u32` (LE).
    pub fn take_u32(&mut self, what: &str) -> HireResult<u32> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a `u64` (LE).
    pub fn take_u64(&mut self, what: &str) -> HireResult<u64> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `u64` and checks it fits a `usize` small enough to allocate.
    pub fn take_len(&mut self, what: &str) -> HireResult<usize> {
        let n = self.take_u64(what)?;
        // Every counted element takes at least one byte, so a length can
        // never exceed the bytes left in the payload; this keeps a
        // bit-flipped length from driving a huge allocation.
        let left = self.buf.len() - self.pos;
        if n > left as u64 {
            return Err(HireError::corrupt_checkpoint(
                self.path,
                format!("implausible {what} length {n} ({left} payload bytes left)"),
            ));
        }
        Ok(n as usize)
    }

    /// Reads an `f32` from its raw bits.
    pub fn take_f32(&mut self, what: &str) -> HireResult<f32> {
        Ok(f32::from_bits(self.take_u32(what)?))
    }

    /// Reads a length-prefixed `f32` vector.
    pub(crate) fn take_f32_vec(&mut self, what: &str) -> HireResult<Vec<f32>> {
        let n = self.take_len(what)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.take_f32(what)?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed `u64` vector.
    pub(crate) fn take_u64_vec(&mut self, what: &str) -> HireResult<Vec<u64>> {
        let n = self.take_len(what)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.take_u64(what)?);
        }
        Ok(out)
    }

    /// The error for unconsumed trailing bytes — a layout mismatch.
    pub fn expect_exhausted(&self) -> HireResult<()> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(HireError::corrupt_checkpoint(
                self.path,
                format!(
                    "{} unread bytes after the last field — payload layout mismatch",
                    self.buf.len() - self.pos
                ),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn container_round_trip() {
        let payload = b"snapshot payload bytes";
        let file = encode_container(payload);
        assert_eq!(decode_container(&file, "t").unwrap(), payload);
    }

    #[test]
    fn container_rejects_every_single_byte_corruption() {
        let file = encode_container(b"some payload");
        for i in 0..file.len() {
            let mut bad = file.clone();
            bad[i] ^= 0x40;
            assert!(
                decode_container(&bad, "t").is_err(),
                "byte {i} corruption went undetected"
            );
        }
    }

    #[test]
    fn container_rejects_truncation_at_every_length() {
        let file = encode_container(b"some payload");
        for n in 0..file.len() {
            assert!(
                decode_container(&file[..n], "t").is_err(),
                "truncation to {n} bytes went undetected"
            );
        }
    }

    #[test]
    fn container_rejects_wrong_version() {
        let mut file = encode_container(b"p");
        file[8] = 99;
        let err = decode_container(&file, "t").unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn payload_codec_round_trips() {
        let mut w = PayloadWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_f32(-0.5);
        w.put_f32(f32::NAN);
        w.put_f32_slice(&[1.0, 2.0, 3.0]);
        w.put_u64_slice(&[4, 5]);
        let bytes = w.finish();
        let mut r = PayloadReader::new(&bytes, "t");
        assert_eq!(r.take_u8("a").unwrap(), 7);
        assert_eq!(r.take_u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64("c").unwrap(), u64::MAX);
        assert_eq!(r.take_f32("d").unwrap(), -0.5);
        assert!(r.take_f32("e").unwrap().is_nan());
        assert_eq!(r.take_f32_vec("f").unwrap(), vec![1.0, 2.0, 3.0]);
        assert_eq!(r.take_u64_vec("g").unwrap(), vec![4, 5]);
        r.expect_exhausted().unwrap();
    }

    #[test]
    fn reader_errors_on_overrun_instead_of_panicking() {
        let mut r = PayloadReader::new(&[1, 2], "t");
        assert!(r.take_u64("x").is_err());
        let mut r = PayloadReader::new(&[], "t");
        assert!(r.take_u8("x").is_err());
        // A length prefix larger than the payload is rejected before allocation.
        let mut w = PayloadWriter::new();
        w.put_u64(u64::MAX / 2);
        let bytes = w.finish();
        let mut r = PayloadReader::new(&bytes, "t");
        let err = r.take_f32_vec("vals").unwrap_err();
        assert!(err.to_string().contains("implausible"), "{err}");
    }

    /// The bound is the bytes *left*, not the whole payload: an 8-byte
    /// payload holding the length 8 has nothing left to count.
    #[test]
    fn a_length_is_bounded_by_the_bytes_left() {
        let mut w = PayloadWriter::new();
        w.put_u64(8);
        let bytes = w.finish();
        let err = PayloadReader::new(&bytes, "t")
            .take_len("count")
            .unwrap_err();
        assert!(err.to_string().contains("implausible"), "{err}");
        let mut w = PayloadWriter::new();
        w.put_u64(2);
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.finish();
        assert_eq!(
            PayloadReader::new(&bytes, "t").take_len("count").unwrap(),
            2
        );
    }
}
