//! Byte-level plumbing shared by every on-disk structure: CRC-32
//! checksums, the `[len | crc | payload]` record frame, and
//! [`FormatError`], the on-disk formats' semantic error.
//!
//! Payloads are written and read with [`genie_core::codec`] (every
//! count validated against the bytes actually present *before* any
//! allocation is sized from it); its failures convert into
//! [`FormatError`], and nothing in this module can panic on arbitrary
//! input — the property the truncate-at-every-byte and bit-flip suites
//! in `tests/recovery_props.rs` exercise end to end.

use genie_core::codec;
use genie_core::io::DecodeError;

/// Hard upper bound on one record's payload. Far above any record this
/// system writes; a length prefix past it is definitionally garbage
/// (e.g. a bit flip in the frame header), not a large record.
pub const MAX_RECORD: usize = 1 << 30;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the same
/// checksum ZIP/PNG use. Table-driven, built at first use.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        t
    });
    let mut crc = !0u32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Why a byte sequence failed to parse. Every decoding path in this
/// crate funnels into these variants — corrupt input can name *what*
/// was wrong but can never panic or over-allocate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// Input ended before the declared structure.
    Eof,
    /// A magic tag didn't match the expected structure.
    BadMagic,
    /// A structure version this build doesn't understand.
    UnsupportedVersion(u16),
    /// A semantic check failed (names the violated rule).
    Invalid(&'static str),
    /// An embedded [`genie_core::io`] index payload failed to decode.
    Index(DecodeError),
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Eof => write!(f, "unexpected end of input"),
            Self::BadMagic => write!(f, "bad magic"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            Self::Invalid(what) => write!(f, "invalid structure: {what}"),
            Self::Index(e) => write!(f, "embedded index: {e}"),
        }
    }
}

impl std::error::Error for FormatError {}

impl From<DecodeError> for FormatError {
    fn from(e: DecodeError) -> Self {
        Self::Index(e)
    }
}

impl From<codec::DecodeError> for FormatError {
    fn from(e: codec::DecodeError) -> Self {
        match e {
            // a count the remaining bytes cannot back is the input
            // ending early, whichever check noticed first
            codec::DecodeError::Truncated { .. } | codec::DecodeError::LengthOverrun { .. } => {
                Self::Eof
            }
            codec::DecodeError::BadUtf8 { .. } => Self::Invalid("non-UTF-8 string"),
            codec::DecodeError::BadTag { .. } => Self::Invalid("unknown tag"),
            codec::DecodeError::TrailingBytes { .. } => Self::Invalid("trailing bytes"),
        }
    }
}

/// Append one `[len u32 | crc u32 | payload]` frame to `out`.
pub fn frame(out: &mut Vec<u8>, payload: &[u8]) {
    assert!(
        !payload.is_empty() && payload.len() <= MAX_RECORD,
        "record payload out of bounds"
    );
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// How a [`scan_frame`] attempt ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame<'a> {
    /// A complete record whose checksum verified.
    Ok { payload: &'a [u8], next: usize },
    /// Input ended exactly on a record boundary.
    End,
    /// The frame header or payload runs past the end of input — the
    /// signature of a write torn by a crash. Only legal at the tail of
    /// the final journal file.
    Torn,
    /// A complete record whose stored CRC does not match its payload:
    /// bit rot, not a torn write.
    ChecksumMismatch,
    /// The length prefix itself is garbage (zero or past
    /// [`MAX_RECORD`]).
    BadLength,
}

/// Try to read one frame at `pos`.
pub fn scan_frame(buf: &[u8], pos: usize) -> Frame<'_> {
    let rest = &buf[pos..];
    if rest.is_empty() {
        return Frame::End;
    }
    if rest.len() < 8 {
        return Frame::Torn;
    }
    let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
    if len == 0 || len > MAX_RECORD {
        return Frame::BadLength;
    }
    let stored_crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
    if rest.len() < 8 + len {
        return Frame::Torn;
    }
    let payload = &rest[8..8 + len];
    if crc32(payload) != stored_crc {
        return Frame::ChecksumMismatch;
    }
    Frame::Ok {
        payload,
        next: pos + 8 + len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // the classic IEEE test vector
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn frame_roundtrip_and_boundary_scan() {
        let mut buf = Vec::new();
        frame(&mut buf, b"hello");
        frame(&mut buf, b"world!");
        let Frame::Ok { payload, next } = scan_frame(&buf, 0) else {
            panic!("first frame");
        };
        assert_eq!(payload, b"hello");
        let Frame::Ok { payload, next } = scan_frame(&buf, next) else {
            panic!("second frame");
        };
        assert_eq!(payload, b"world!");
        assert_eq!(scan_frame(&buf, next), Frame::End);
    }

    #[test]
    fn truncated_frames_read_as_torn_and_flips_as_mismatch() {
        let mut buf = Vec::new();
        frame(&mut buf, b"payload");
        for cut in 1..buf.len() {
            assert_eq!(scan_frame(&buf[..cut], 0), Frame::Torn, "cut {cut}");
        }
        for pos in 8..buf.len() {
            let mut flipped = buf.clone();
            flipped[pos] ^= 0x40;
            assert_eq!(
                scan_frame(&flipped, 0),
                Frame::ChecksumMismatch,
                "flip at {pos}"
            );
        }
        // a zeroed length prefix is garbage, not a record
        let mut zeroed = buf.clone();
        zeroed[..4].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(scan_frame(&zeroed, 0), Frame::BadLength);
    }

    /// The codec's structural failures land on the variants recovery
    /// distinguishes: anything the remaining bytes cannot back is
    /// [`FormatError::Eof`] (a torn tail), the rest is `Invalid`.
    #[test]
    fn reader_validates_counts_before_allocating() {
        // declares u32::MAX elements with 4 bytes of content
        let mut w = codec::Writer::new();
        w.put_u32(u32::MAX);
        w.put_u32(7);
        let bytes = w.into_vec();
        let eof = |e: codec::DecodeError| assert_eq!(FormatError::from(e), FormatError::Eof);
        eof(codec::Reader::new(&bytes).get_u32s("ids").unwrap_err());
        eof(codec::Reader::new(&bytes).get_bytes("blob").unwrap_err());
        eof(codec::Reader::new(&bytes[..3]).get_u32("n").unwrap_err());
    }

    #[test]
    fn reader_rejects_trailing_bytes() {
        let mut w = codec::Writer::new();
        w.put_u32(5);
        w.put_bytes(&[0xFF]);
        let bytes = w.into_vec();
        let mut r = codec::Reader::new(&bytes);
        assert_eq!(r.get_u32("n").unwrap(), 5);
        assert_eq!(
            FormatError::from(r.get_str("s").unwrap_err()),
            FormatError::Invalid("non-UTF-8 string")
        );
        let mut r = codec::Reader::new(&bytes);
        assert_eq!(r.get_u32("n").unwrap(), 5);
        assert_eq!(
            FormatError::from(r.finish().unwrap_err()),
            FormatError::Invalid("trailing bytes")
        );
    }
}
