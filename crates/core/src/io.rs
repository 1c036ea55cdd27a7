//! Compact binary persistence for [`InvertedIndex`].
//!
//! Multiple loading (paper §III-D) keeps one prebuilt index per data
//! part in host memory and swaps them through the device. For data sets
//! whose parts are built offline, the parts need a storage format; this
//! module provides a versioned one (far denser than generic serde
//! encodings: the List Array is the payload and is written verbatim).
//!
//! Layout, in the primitives of [`crate::codec`]:
//!
//! ```text
//! magic "GNIE" | version u16 | flags u16 (bit0: load-balanced)
//! num_objects u32 | max_object_len u32 | longest_list usize
//! [max_list_len usize]               -- iff load-balanced
//! entries: count | (keyword, start, len) u32 triples
//! list_array: u32s
//! ```

use crate::codec::{self, Reader, Writer};
use crate::index::{InvertedIndex, LoadBalanceConfig, PostingsEntry};

const MAGIC: &[u8; 4] = b"GNIE";
const VERSION: u16 = 1;

/// Errors produced by [`decode_index`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer does not start with the `GNIE` magic.
    BadMagic,
    /// Encoded with an unsupported format version.
    UnsupportedVersion(u16),
    /// Buffer ended before the declared payload.
    Truncated,
    /// Internal lengths are inconsistent (e.g. an entry points past the
    /// List Array).
    Corrupt(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a GENIE index (bad magic)"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported index version {v}"),
            DecodeError::Truncated => write!(f, "index buffer truncated"),
            DecodeError::Corrupt(what) => write!(f, "corrupt index: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<codec::DecodeError> for DecodeError {
    fn from(e: codec::DecodeError) -> Self {
        match e {
            // a declared length the buffer cannot back is the buffer
            // ending early, whichever check noticed first
            codec::DecodeError::Truncated { .. } | codec::DecodeError::LengthOverrun { .. } => {
                Self::Truncated
            }
            _ => Self::Corrupt("malformed field"),
        }
    }
}

/// Serialise an index into a fresh buffer.
pub fn encode_index(index: &InvertedIndex) -> Vec<u8> {
    let entries = index.entries_raw();
    let list = index.list_array();
    let mut w = Writer::with_capacity(40 + entries.len() * 12 + list.len() * 4);
    w.put_raw(MAGIC);
    w.put_u16(VERSION);
    let lb = index.load_balance();
    w.put_u16(u16::from(lb.is_some()));
    w.put_u32(index.num_objects());
    w.put_u32(index.max_object_len() as u32);
    w.put_usize(index.longest_list());
    if let Some(cfg) = lb {
        w.put_usize(cfg.max_list_len);
    }
    w.put_count(entries.len());
    for e in entries {
        w.put_u32(e.keyword);
        w.put_u32(e.start);
        w.put_u32(e.len);
    }
    w.put_u32s(list);
    w.into_vec()
}

/// Deserialise an index previously produced by [`encode_index`].
///
/// Every count is validated against the bytes actually present
/// **before** any allocation is sized from it ([`Reader::count`]) — a
/// corrupt or adversarial buffer can produce only a typed
/// [`DecodeError`], never a huge allocation, an overflow or a panic.
pub fn decode_index(buf: &[u8]) -> Result<InvertedIndex, DecodeError> {
    let mut r = Reader::new(buf);
    if r.take(4, "magic")? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = r.get_u16("version")?;
    if version != VERSION {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    let flags = r.get_u16("flags")?;
    if flags & !1 != 0 {
        return Err(DecodeError::Corrupt("unknown flag bits set"));
    }
    let num_objects = r.get_u32("num_objects")?;
    let max_object_len = r.get_u32("max_object_len")? as usize;
    let longest_list = r.get_usize("longest_list")?;
    let load_balance = if flags & 1 != 0 {
        Some(LoadBalanceConfig {
            max_list_len: r.get_usize("max_list_len")?,
        })
    } else {
        None
    };
    let num_entries = r.count(12, "entries")?;
    let mut entries = Vec::with_capacity(num_entries);
    for _ in 0..num_entries {
        entries.push(PostingsEntry {
            keyword: r.get_u32("entry keyword")?,
            start: r.get_u32("entry start")?,
            len: r.get_u32("entry len")?,
        });
    }
    let list_array = r.get_u32s("list array")?;
    // structural validation
    let mut last_kw = None;
    for e in &entries {
        // u64 arithmetic: u32 start + u32 len cannot overflow it
        if (e.start as u64 + e.len as u64) > list_array.len() as u64 {
            return Err(DecodeError::Corrupt("entry points past the List Array"));
        }
        if e.len as usize > longest_list {
            return Err(DecodeError::Corrupt("entry longer than longest_list"));
        }
        if let Some(prev) = last_kw {
            if e.keyword < prev {
                return Err(DecodeError::Corrupt("entries not sorted by keyword"));
            }
        }
        last_kw = Some(e.keyword);
    }
    if list_array.iter().any(|&o| o >= num_objects) && num_objects > 0 {
        return Err(DecodeError::Corrupt("posting references unknown object"));
    }
    Ok(InvertedIndex::from_parts(
        entries,
        list_array,
        num_objects,
        max_object_len,
        longest_list,
        load_balance,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexBuilder;
    use crate::model::Object;

    fn sample(lb: Option<LoadBalanceConfig>) -> InvertedIndex {
        let mut b = IndexBuilder::new();
        for i in 0..50u32 {
            b.add_object(&Object::new(vec![i % 7, 100 + i % 3]));
        }
        b.build(lb)
    }

    #[test]
    fn round_trip_plain() {
        let idx = sample(None);
        let bytes = encode_index(&idx);
        let back = decode_index(&bytes).unwrap();
        assert_eq!(back.num_objects(), idx.num_objects());
        assert_eq!(back.list_array(), idx.list_array());
        assert_eq!(back.postings_of(3), idx.postings_of(3));
        assert_eq!(back.load_balance(), None);
    }

    #[test]
    fn round_trip_load_balanced() {
        let lb = LoadBalanceConfig { max_list_len: 4 };
        let idx = sample(Some(lb));
        let back = decode_index(&encode_index(&idx)).unwrap();
        assert_eq!(back.load_balance(), Some(lb));
        assert_eq!(back.postings_of(0), idx.postings_of(0));
        assert_eq!(back.num_lists(), idx.num_lists());
    }

    #[test]
    fn rejects_bad_magic() {
        assert_eq!(
            decode_index(b"NOPE........").unwrap_err(),
            DecodeError::BadMagic
        );
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = encode_index(&sample(None));
        // every strict prefix must fail cleanly, never panic
        for cut in 0..bytes.len() {
            let res = decode_index(&bytes[..cut]);
            assert!(res.is_err(), "prefix of {cut} bytes decoded successfully");
        }
    }

    /// A corrupt length prefix declaring ~4 billion entries on a tiny
    /// buffer must fail via the remaining-bytes validation *before* any
    /// allocation is sized from it (a huge `with_capacity` would abort
    /// the process — worse than a panic).
    #[test]
    fn absurd_length_prefixes_fail_without_allocating() {
        let mut raw = encode_index(&sample(None));
        let entry_count_at = 24; // header (no LB) ends here
        raw[entry_count_at..entry_count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_index(&raw[..]).unwrap_err(), DecodeError::Truncated);

        // same for the List Array length prefix
        let mut raw = encode_index(&sample(None));
        let n = raw.len();
        raw[n - 4 * 100 - 4..n - 4 * 100].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_index(&raw[..]).is_err());
    }

    #[test]
    fn rejects_unknown_flag_bits() {
        let mut raw = encode_index(&sample(None));
        raw[6] |= 0x02;
        assert!(matches!(
            decode_index(&raw[..]),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_inconsistent_longest_list() {
        let mut raw = encode_index(&sample(None));
        // longest_list lives at offset 16..24; zero it while entries
        // still carry non-empty lists
        raw[16..24].copy_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            decode_index(&raw[..]),
            Err(DecodeError::Corrupt(_))
        ));
    }

    /// Bit-flip torture at the codec layer: flipping any single bit
    /// must never panic; a successful decode must still uphold the
    /// structural invariants (checksums live a layer up, in
    /// genie-store's record frames).
    #[test]
    fn bit_flips_never_panic() {
        let bytes = encode_index(&sample(Some(LoadBalanceConfig { max_list_len: 4 })));
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut raw = bytes.clone();
                raw[pos] ^= 1 << bit;
                if let Ok(idx) = decode_index(&raw[..]) {
                    // decoded fine — invariants must hold
                    let n = idx.num_objects();
                    assert!(idx.list_array().iter().all(|&o| n == 0 || o < n));
                }
            }
        }
    }

    #[test]
    fn rejects_future_version() {
        let mut raw = encode_index(&sample(None));
        raw[4] = 0xFF; // bump version field
        assert!(matches!(
            decode_index(&raw[..]),
            Err(DecodeError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn detects_corrupt_entry_bounds() {
        let idx = sample(None);
        let mut raw = encode_index(&idx);
        // entry table starts at offset 24 (no LB); corrupt first entry's
        // start to point far past the list array
        let entry_start = 24 + 4;
        raw[entry_start..entry_start + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_index(&raw[..]),
            Err(DecodeError::Corrupt(_)) | Err(DecodeError::Truncated)
        ));
    }

    #[test]
    fn decoded_index_searches_identically() {
        use crate::exec::Engine;
        use crate::model::Query;
        use std::sync::Arc;

        let idx = sample(None);
        let back = decode_index(&encode_index(&idx)).unwrap();
        let engine = Engine::new(Arc::new(gpu_sim::Device::with_defaults()));
        let d1 = engine.upload(Arc::new(idx)).unwrap();
        let d2 = engine.upload(Arc::new(back)).unwrap();
        let q = vec![Query::from_keywords(&[2, 101])];
        let r1 = engine.search(&d1, &q, 5);
        let r2 = engine.search(&d2, &q, 5);
        assert_eq!(r1.results, r2.results);
    }
}
