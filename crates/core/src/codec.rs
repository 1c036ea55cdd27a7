//! The one byte codec: every byte this system puts on a socket, in the
//! journal, in a snapshot or in an [`encode_index`](crate::io) payload
//! is written by [`Writer`] and read back by [`Reader`].
//!
//! This module is the normative description of the primitives; the
//! per-format specs (`genie_net::protocol`, the `genie-store` crate
//! docs, [`crate::io`]) only say which primitives appear in which
//! order.
//!
//! ```text
//! u8 / u16 / u32 / u64      fixed width, little-endian
//! f64                       IEEE-754 bits, little-endian
//! usize                     travels as u64 (a host that cannot index
//!                           the value rejects it on read)
//! count                     u32 element count or byte length
//! bytes                     count | raw bytes
//! str                       bytes that must be valid UTF-8
//! u32s   (an id list)       count | u32 ...
//! objects (an Object list)  count | u32s ...
//! query                     count | (lo u32, hi u32) ...
//! ```
//!
//! **The count rule.** A count is only a *claim* about what follows,
//! and input from a socket or a damaged disk can claim anything.
//! [`Reader::count`] therefore takes the fewest bytes one element can
//! occupy and rejects, *before any allocation is sized from it*, a
//! count whose elements could not fit in the bytes that remain: a
//! reader never reserves more memory than a small multiple of its
//! input, however the input lies.
//!
//! Every failure is a typed [`DecodeError`] — truncation, overrunning
//! counts, invalid UTF-8, unknown tags and trailing bytes decode to
//! errors, never to a panic. The formats built on top keep their own
//! *semantic* errors (`genie_store::FormatError`,
//! [`crate::io::DecodeError`]) and convert from this one.

use crate::model::{Query, QueryItem};

/// Why a buffer failed to decode. [`std::fmt::Display`] gives the
/// human-readable detail the network layer carries in its `Protocol`
/// error frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the field being read.
    Truncated {
        /// What was being read when the bytes ran out.
        what: &'static str,
    },
    /// A count declares more elements than the remaining bytes could
    /// possibly hold (caught *before* allocating).
    LengthOverrun {
        what: &'static str,
        declared: u64,
        remaining: usize,
    },
    /// A string field holds invalid UTF-8.
    BadUtf8 { what: &'static str },
    /// A tag has no defined meaning (`tag` is its low byte).
    BadTag { what: &'static str, tag: u8 },
    /// The structure decoded fully but bytes were left over: the length
    /// that framed it and its content disagree.
    TrailingBytes { left: usize },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated { what } => write!(f, "truncated while reading {what}"),
            Self::LengthOverrun {
                what,
                declared,
                remaining,
            } => write!(
                f,
                "{what} declares {declared} elements but only {remaining} bytes remain"
            ),
            Self::BadUtf8 { what } => write!(f, "{what} is not valid UTF-8"),
            Self::BadTag { what, tag } => write!(f, "unknown {what} tag 0x{tag:02x}"),
            Self::TrailingBytes { left } => write!(f, "{left} trailing bytes after frame payload"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append-only little-endian buffer builder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes verbatim, no prefix (magic tags).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.put_raw(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.put_raw(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.put_raw(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.put_raw(&v.to_le_bytes());
    }

    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// A `u32` count prefix. Callers pass collection lengths; anything
    /// past `u32::MAX` is a logic error upstream, not valid data.
    pub fn put_count(&mut self, n: usize) {
        self.put_u32(u32::try_from(n).expect("collection too large for a u32 count"));
    }

    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_count(bytes.len());
        self.put_raw(bytes);
    }

    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// An id list (or any other `u32` sequence).
    pub fn put_u32s(&mut self, vs: &[u32]) {
        self.put_count(vs.len());
        for &v in vs {
            self.put_u32(v);
        }
    }

    /// An object list: each object is its keyword multiset.
    pub fn put_objects<'o>(&mut self, objects: impl ExactSizeIterator<Item = &'o [u32]>) {
        self.put_count(objects.len());
        for keywords in objects {
            self.put_u32s(keywords);
        }
    }

    pub fn put_query(&mut self, query: &Query) {
        self.put_count(query.items.len());
        for item in &query.items {
            self.put_u32(item.lo);
            self.put_u32(item.hi);
        }
    }
}

/// Bounds-checked cursor over received bytes. Reads consume;
/// [`finish`](Self::finish) asserts everything was consumed. Every
/// read names `what` it is reading, for the error.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume exactly `n` bytes.
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], DecodeError> {
        Ok(self
            .take(N, what)?
            .try_into()
            .expect("took exactly N bytes"))
    }

    pub fn get_u8(&mut self, what: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, what)?[0])
    }

    pub fn get_u16(&mut self, what: &'static str) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.array(what)?))
    }

    pub fn get_u32(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    pub fn get_u64(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    pub fn get_f64(&mut self, what: &'static str) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.array(what)?))
    }

    fn overrun(&self, what: &'static str, declared: u64) -> DecodeError {
        DecodeError::LengthOverrun {
            what,
            declared,
            remaining: self.remaining(),
        }
    }

    /// A size that must index host memory. No buffer backs a value
    /// past `usize::MAX` (32-bit hosts), so it is an overrun rather
    /// than a silent truncation through an `as` cast.
    pub fn get_usize(&mut self, what: &'static str) -> Result<usize, DecodeError> {
        let raw = self.get_u64(what)?;
        usize::try_from(raw).map_err(|_| self.overrun(what, raw))
    }

    /// A count of elements that each occupy at least `min_elem_bytes`
    /// more bytes — the count rule of the [module docs](self).
    pub fn count(
        &mut self,
        min_elem_bytes: usize,
        what: &'static str,
    ) -> Result<usize, DecodeError> {
        let n = self.get_u32(what)? as usize;
        match n.checked_mul(min_elem_bytes.max(1)) {
            Some(total) if total <= self.remaining() => Ok(n),
            _ => Err(self.overrun(what, n as u64)),
        }
    }

    pub fn get_bytes(&mut self, what: &'static str) -> Result<&'a [u8], DecodeError> {
        let n = self.count(1, what)?;
        self.take(n, what)
    }

    pub fn get_str(&mut self, what: &'static str) -> Result<String, DecodeError> {
        let raw = self.get_bytes(what)?;
        String::from_utf8(raw.to_vec()).map_err(|_| DecodeError::BadUtf8 { what })
    }

    pub fn get_u32s(&mut self, what: &'static str) -> Result<Vec<u32>, DecodeError> {
        let n = self.count(4, what)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_u32(what)?);
        }
        Ok(out)
    }

    /// An object list; even an empty object occupies its own 4-byte
    /// count.
    pub fn get_objects<T: From<Vec<u32>>>(
        &mut self,
        what: &'static str,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.count(4, what)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_u32s(what)?.into());
        }
        Ok(out)
    }

    /// The items as written: validation ([`Query::try_new`]) is the
    /// caller's, so a malformed query is answered with its typed
    /// `QueryBuildError`, not a decode failure.
    pub fn get_query(&mut self) -> Result<Query, DecodeError> {
        let n = self.count(8, "query items")?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            let lo = self.get_u32("item lo")?;
            let hi = self.get_u32("item hi")?;
            items.push(QueryItem { lo, hi });
        }
        Ok(Query::new(items))
    }

    /// Succeeds only when every byte was consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            left => Err(DecodeError::TrailingBytes { left }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Object;

    #[test]
    fn round_trips_every_primitive() {
        let query = Query::new(vec![QueryItem::range(2, 9), QueryItem::exact(40)]);
        let objects = [vec![1, 2], vec![], vec![3]];
        let mut w = Writer::new();
        w.put_raw(b"MAGC");
        w.put_u8(7);
        w.put_u16(u16::MAX);
        w.put_u32(123_456);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-2.5);
        w.put_usize(77);
        w.put_str("héllo");
        w.put_bytes(&[0xFF, 0x00]);
        w.put_u32s(&[1, 2, 3]);
        w.put_objects(objects.iter().map(Vec::as_slice));
        w.put_query(&query);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.take(4, "magic").unwrap(), b"MAGC");
        assert_eq!(r.get_u8("a").unwrap(), 7);
        assert_eq!(r.get_u16("b").unwrap(), u16::MAX);
        assert_eq!(r.get_u32("c").unwrap(), 123_456);
        assert_eq!(r.get_u64("d").unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f64("e").unwrap(), -2.5);
        assert_eq!(r.get_usize("f").unwrap(), 77);
        assert_eq!(r.get_str("g").unwrap(), "héllo");
        assert_eq!(r.get_bytes("h").unwrap(), &[0xFF, 0x00]);
        assert_eq!(r.get_u32s("i").unwrap(), vec![1, 2, 3]);
        let back: Vec<Object> = r.get_objects("j").unwrap();
        assert_eq!(
            back,
            objects.iter().cloned().map(Object::new).collect::<Vec<_>>()
        );
        assert_eq!(r.get_query().unwrap(), query);
        r.finish().unwrap();
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let mut w = Writer::new();
        w.put_str("payload");
        w.put_u32s(&[9, 8, 7]);
        w.put_objects([[1u32, 2].as_slice(), &[]].into_iter());
        w.put_query(&Query::from_keywords(&[4, 5]));
        let bytes = w.into_vec();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let ok = r
                .get_str("s")
                .and_then(|_| r.get_u32s("v"))
                .and_then(|_| r.get_objects::<Vec<u32>>("o"))
                .and_then(|_| r.get_query())
                .and_then(|_| r.finish());
            assert!(ok.is_err(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        let mut w = Writer::new();
        w.put_u32(u32::MAX); // declares 4 billion elements
        w.put_u32(7);
        let bytes = w.into_vec();
        let overrun = |r: Result<(), DecodeError>| {
            assert!(matches!(r, Err(DecodeError::LengthOverrun { .. })), "{r:?}")
        };
        overrun(Reader::new(&bytes).get_u32s("huge").map(drop));
        overrun(Reader::new(&bytes).get_str("huge").map(drop));
        overrun(Reader::new(&bytes).get_bytes("huge").map(drop));
        overrun(
            Reader::new(&bytes)
                .get_objects::<Vec<u32>>("huge")
                .map(drop),
        );
        overrun(Reader::new(&bytes).get_query().map(drop));
    }

    /// The count rule is per element width: a count that would fit at
    /// one byte per element is still an overrun when each element
    /// needs more, so no `Vec` is ever sized past `remaining /
    /// min_elem_bytes`.
    #[test]
    fn counts_are_bounded_by_the_element_width() {
        let mut w = Writer::new();
        w.put_u32(5);
        w.put_raw(&[0; 16]);
        let bytes = w.into_vec();
        assert_eq!(Reader::new(&bytes).count(1, "c").unwrap(), 5);
        assert_eq!(Reader::new(&bytes).count(0, "c").unwrap(), 5);
        assert_eq!(Reader::new(&bytes).count(3, "c").unwrap(), 5);
        assert_eq!(
            Reader::new(&bytes).count(4, "c").unwrap_err(),
            DecodeError::LengthOverrun {
                what: "c",
                declared: 5,
                remaining: 16
            }
        );
        // the multiplication itself cannot overflow into acceptance
        let huge = u32::MAX.to_le_bytes();
        assert!(Reader::new(&huge).count(usize::MAX, "c").is_err());
    }

    #[test]
    fn invalid_utf8_is_a_typed_error() {
        let mut w = Writer::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        assert_eq!(
            r.get_str("s").unwrap_err(),
            DecodeError::BadUtf8 { what: "s" }
        );
    }

    #[test]
    fn trailing_bytes_fail_finish() {
        let mut w = Writer::new();
        w.put_u32(1);
        w.put_u8(0);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        r.get_u32("v").unwrap();
        assert_eq!(
            r.finish().unwrap_err(),
            DecodeError::TrailingBytes { left: 1 }
        );
    }
}
