//! The match-count model (paper §II-A).
//!
//! A data *object* is a multiset of elements of a universe `U`; after
//! encoding, every element is a [`KeywordId`]. A *query* is a set of
//! *items*, each item a contiguous (inclusive) range of keyword ids —
//! ranges are how every instantiation in the paper maps to the model:
//!
//! * relational attribute range `(d, [v_lo, v_hi])` → keyword range over
//!   the encoded `(attribute, value)` pairs,
//! * an LSH bucket `(i, r_i(h_i(q)))` → a single-keyword range,
//! * an n-gram / word → a single-keyword range.
//!
//! `MC(Q, O)` — the match count — is the number of elements of `O`
//! contained by at least one item of `Q`, summed per item (Definition
//! 2.1). [`match_count`] is the brute-force reference implementation used
//! by tests and CPU baselines; the device engine must agree with it
//! exactly.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

/// Identifier of an encoded universe element (a "keyword" of the
/// inverted index).
pub type KeywordId = u32;

/// Identifier of a data object (position in the data set).
pub type ObjectId = u32;

/// A data object: the multiset of keywords obtained by encoding its
/// elements. Duplicate keywords are allowed (ordered n-grams make them
/// unnecessary for sequences, but the model itself is multiset-based).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Object {
    pub keywords: Vec<KeywordId>,
}

impl Object {
    pub fn new(keywords: Vec<KeywordId>) -> Self {
        Self { keywords }
    }

    pub fn len(&self) -> usize {
        self.keywords.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keywords.is_empty()
    }
}

impl From<Vec<KeywordId>> for Object {
    fn from(keywords: Vec<KeywordId>) -> Self {
        Self { keywords }
    }
}

/// Why a query could not be encoded. Returned by the validated
/// constructors ([`QueryItem::try_range`], [`Query::try_new`]) and by
/// every `Domain::encode` implementation, so malformed specs surface as
/// a typed error at *encode* time instead of tripping `debug_assert`s
/// (or producing silently-wrong counts) deep inside the match kernel.
///
/// The same type travels the wire (`genie_net`'s `WireError::Build`):
/// the descriptive `what`/`expected` fields are `Cow` so a validator
/// names them with a literal and a decoder with the received string.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryBuildError {
    /// The query spec has no dimensions/items at all.
    EmptyQuery,
    /// An item's keyword range is empty (`lo > hi`).
    EmptyRange { lo: KeywordId, hi: KeywordId },
    /// A keyword id lies outside the universe the index was built over.
    KeywordOutOfRange {
        keyword: KeywordId,
        universe: KeywordId,
    },
    /// A numeric input that must be finite is NaN or infinite.
    NonFinite { what: Cow<'static, str> },
    /// A weight/value that must be non-negative is negative.
    Negative { what: Cow<'static, str> },
    /// An item's numeric range is empty (`lo > hi`), in attribute
    /// units.
    EmptyNumericRange { attr: usize, lo: f64, hi: f64 },
    /// A condition names an attribute the schema does not have.
    UnknownAttribute { attr: usize, num_attributes: usize },
    /// A condition's kind does not match its attribute's kind (e.g. a
    /// numeric range over a categorical attribute).
    TypeMismatch {
        attr: usize,
        expected: Cow<'static, str>,
    },
    /// A categorical value beyond its attribute's cardinality.
    ValueOutOfRange {
        attr: usize,
        value: u32,
        cardinality: u32,
    },
    /// An inserted row has a different number of cells than the schema
    /// has attributes (live-mutation item validation).
    RowArity { got: usize, expected: usize },
}

impl std::fmt::Display for QueryBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptyQuery => write!(f, "query spec has no items"),
            Self::EmptyRange { lo, hi } => {
                write!(f, "empty keyword range [{lo}, {hi}] (lo > hi)")
            }
            Self::KeywordOutOfRange { keyword, universe } => {
                write!(f, "keyword {keyword} outside the universe 0..{universe}")
            }
            Self::NonFinite { what } => write!(f, "{what} must be finite (got NaN or infinity)"),
            Self::Negative { what } => write!(f, "{what} must be non-negative"),
            Self::EmptyNumericRange { attr, lo, hi } => {
                write!(f, "empty numeric range [{lo}, {hi}] on attribute {attr}")
            }
            Self::TypeMismatch { attr, expected } => {
                write!(f, "attribute {attr} is not {expected}")
            }
            Self::UnknownAttribute {
                attr,
                num_attributes,
            } => write!(
                f,
                "attribute {attr} out of range (schema has {num_attributes})"
            ),
            Self::ValueOutOfRange {
                attr,
                value,
                cardinality,
            } => write!(
                f,
                "value {value} out of range for attribute {attr} (cardinality {cardinality})"
            ),
            Self::RowArity { got, expected } => write!(
                f,
                "row has {got} cells but the schema has {expected} attributes"
            ),
        }
    }
}

impl std::error::Error for QueryBuildError {}

/// One query item: an inclusive range `[lo, hi]` of keyword ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryItem {
    pub lo: KeywordId,
    pub hi: KeywordId,
}

impl QueryItem {
    /// Item matching exactly one keyword (LSH buckets, n-grams, words).
    pub fn exact(kw: KeywordId) -> Self {
        Self { lo: kw, hi: kw }
    }

    /// Item matching an inclusive keyword range (relational selections).
    pub fn range(lo: KeywordId, hi: KeywordId) -> Self {
        debug_assert!(lo <= hi, "query item range must be non-empty");
        Self { lo, hi }
    }

    /// Validated [`range`](Self::range): an empty range (`lo > hi`) is a
    /// typed error instead of a `debug_assert`.
    pub fn try_range(lo: KeywordId, hi: KeywordId) -> Result<Self, QueryBuildError> {
        if lo > hi {
            return Err(QueryBuildError::EmptyRange { lo, hi });
        }
        Ok(Self { lo, hi })
    }

    /// Whether `kw` falls inside this item.
    #[inline]
    pub fn contains(&self, kw: KeywordId) -> bool {
        self.lo <= kw && kw <= self.hi
    }
}

/// A query: a set of items. `MC(Q, O)` sums, over the items, the number
/// of object elements each item contains.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Query {
    pub items: Vec<QueryItem>,
}

impl Query {
    pub fn new(items: Vec<QueryItem>) -> Self {
        Self { items }
    }

    /// Validated construction: rejects a query with no items
    /// ([`QueryBuildError::EmptyQuery`]) and any item whose range is
    /// empty ([`QueryBuildError::EmptyRange`]). The unvalidated
    /// [`new`](Self::new) stays available for internal paths that
    /// construct items they already know are well-formed.
    pub fn try_new(items: Vec<QueryItem>) -> Result<Self, QueryBuildError> {
        if items.is_empty() {
            return Err(QueryBuildError::EmptyQuery);
        }
        for item in &items {
            if item.lo > item.hi {
                return Err(QueryBuildError::EmptyRange {
                    lo: item.lo,
                    hi: item.hi,
                });
            }
        }
        Ok(Self { items })
    }

    /// Query whose items each match exactly one of `keywords`.
    pub fn from_keywords(keywords: &[KeywordId]) -> Self {
        Self {
            items: keywords.iter().map(|&k| QueryItem::exact(k)).collect(),
        }
    }

    /// [`from_keywords`](Self::from_keywords) validated against a
    /// keyword universe of size `universe`: a keyword at or beyond the
    /// universe is a typed error, and an empty keyword list is
    /// [`QueryBuildError::EmptyQuery`].
    pub fn try_from_keywords(
        keywords: &[KeywordId],
        universe: KeywordId,
    ) -> Result<Self, QueryBuildError> {
        if keywords.is_empty() {
            return Err(QueryBuildError::EmptyQuery);
        }
        if let Some(&bad) = keywords.iter().find(|&&k| k >= universe) {
            return Err(QueryBuildError::KeywordOutOfRange {
                keyword: bad,
                universe,
            });
        }
        Ok(Self::from_keywords(keywords))
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// `C(r, O)`: the number of elements of `O` contained by item `r`
/// (Definition 2.1).
pub fn item_count(item: &QueryItem, object: &Object) -> u32 {
    object
        .keywords
        .iter()
        .filter(|&&k| item.contains(k))
        .count() as u32
}

/// Brute-force `MC(Q, O)` — the reference the whole system is tested
/// against.
pub fn match_count(query: &Query, object: &Object) -> u32 {
    query.items.iter().map(|r| item_count(r, object)).sum()
}

/// An upper bound on `MC(Q, ·)` over `queries`, used to size the c-PQ's
/// ZipperArray and bitmap fields (paper §III-C: "we usually can infer a
/// much smaller count bound than the number of postings lists" — e.g.
/// the number of dimensions for high-dimensional points).
///
/// When a query's items are pairwise disjoint, every object element is
/// contained by at most one item, so `MC <= max_object_len`. Overlapping
/// items can count an element once per covering item, giving the
/// conservative `items * max_object_len`. The bound must never be
/// undersized: the bitmap counter would saturate and the gate's
/// ZipperArray would be indexed past its end.
pub fn count_bound(queries: &[Query], max_object_len: usize) -> u32 {
    let mut worst = 1u64;
    for q in queries {
        if q.items.is_empty() {
            continue;
        }
        let mut spans: Vec<(KeywordId, KeywordId)> = q.items.iter().map(|i| (i.lo, i.hi)).collect();
        spans.sort_unstable();
        let disjoint = spans.windows(2).all(|w| w[0].1 < w[1].0);
        let bound = if disjoint {
            max_object_len as u64
        } else {
            q.items.len() as u64 * max_object_len as u64
        };
        worst = worst.max(bound);
    }
    worst.min(u32::MAX as u64 / 2).max(1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example of Figure 1: a 3-attribute relational table.
    /// Attribute d in {A=0,B=1,C=2} with values 0..=3 encoded as d*4+v.
    fn fig1_objects() -> Vec<Object> {
        let enc = |d: u32, v: u32| d * 4 + v;
        vec![
            Object::new(vec![enc(0, 1), enc(1, 2), enc(2, 1)]), // O1 = (A1,B2,C1)
            Object::new(vec![enc(0, 2), enc(1, 1), enc(2, 3)]), // O2 = (A2,B1,C3)
            Object::new(vec![enc(0, 1), enc(1, 3), enc(2, 2)]), // O3 = (A1,B3,C2)
        ]
    }

    fn fig1_query() -> Query {
        let enc = |d: u32, v: u32| d * 4 + v;
        // Q1 = {(A,[1,2]), (B,[1,1]), (C,[2,3])}
        Query::new(vec![
            QueryItem::range(enc(0, 1), enc(0, 2)),
            QueryItem::range(enc(1, 1), enc(1, 1)),
            QueryItem::range(enc(2, 2), enc(2, 3)),
        ])
    }

    #[test]
    fn paper_example_2_1_match_counts() {
        let objs = fig1_objects();
        let q1 = fig1_query();
        // the paper works through MC(Q1,O1) = 1; O2 matches all three
        // items; O3 matches A and C
        assert_eq!(match_count(&q1, &objs[0]), 1);
        assert_eq!(match_count(&q1, &objs[1]), 3);
        assert_eq!(match_count(&q1, &objs[2]), 2);
    }

    #[test]
    fn item_count_handles_duplicates() {
        let obj = Object::new(vec![5, 5, 7]);
        assert_eq!(item_count(&QueryItem::range(5, 6), &obj), 2);
        assert_eq!(item_count(&QueryItem::exact(7), &obj), 1);
        assert_eq!(item_count(&QueryItem::exact(9), &obj), 0);
    }

    #[test]
    fn empty_query_and_object() {
        assert_eq!(match_count(&Query::default(), &Object::new(vec![1])), 0);
        assert_eq!(
            match_count(&Query::from_keywords(&[1, 2]), &Object::default()),
            0
        );
    }

    #[test]
    fn from_keywords_builds_exact_items() {
        let q = Query::from_keywords(&[3, 9]);
        assert_eq!(q.items, vec![QueryItem::exact(3), QueryItem::exact(9)]);
    }

    #[test]
    fn try_range_rejects_empty_ranges() {
        assert_eq!(QueryItem::try_range(4, 4), Ok(QueryItem::exact(4)));
        assert_eq!(QueryItem::try_range(2, 9), Ok(QueryItem::range(2, 9)));
        assert_eq!(
            QueryItem::try_range(5, 3),
            Err(QueryBuildError::EmptyRange { lo: 5, hi: 3 })
        );
    }

    #[test]
    fn try_new_validates_items_and_emptiness() {
        assert_eq!(Query::try_new(vec![]), Err(QueryBuildError::EmptyQuery));
        let bad = QueryItem { lo: 7, hi: 2 };
        assert_eq!(
            Query::try_new(vec![QueryItem::exact(1), bad]),
            Err(QueryBuildError::EmptyRange { lo: 7, hi: 2 })
        );
        let ok = Query::try_new(vec![QueryItem::range(1, 3)]).unwrap();
        assert_eq!(ok, Query::new(vec![QueryItem::range(1, 3)]));
    }

    #[test]
    fn try_from_keywords_checks_the_universe() {
        assert_eq!(
            Query::try_from_keywords(&[], 10),
            Err(QueryBuildError::EmptyQuery)
        );
        assert_eq!(
            Query::try_from_keywords(&[3, 10], 10),
            Err(QueryBuildError::KeywordOutOfRange {
                keyword: 10,
                universe: 10
            })
        );
        assert_eq!(
            Query::try_from_keywords(&[3, 9], 10).unwrap(),
            Query::from_keywords(&[3, 9])
        );
    }

    #[test]
    fn query_build_errors_display_their_cause() {
        let shown = format!("{}", QueryBuildError::EmptyQuery);
        assert!(shown.contains("no items"), "{shown}");
        let shown = format!(
            "{}",
            QueryBuildError::ValueOutOfRange {
                attr: 1,
                value: 9,
                cardinality: 4
            }
        );
        assert!(
            shown.contains("attribute 1") && shown.contains('9'),
            "{shown}"
        );
    }

    #[test]
    fn count_bound_for_disjoint_items_is_object_len() {
        let q = Query::from_keywords(&[1, 2, 3, 4, 5]);
        assert_eq!(count_bound(std::slice::from_ref(&q), 3), 3);
        assert_eq!(count_bound(&[q], 10), 10);
        assert_eq!(count_bound(&[], 10), 1);
    }

    #[test]
    fn count_bound_inflates_for_overlapping_items() {
        // two overlapping ranges: an element at keyword 5 counts twice
        let q = Query::new(vec![QueryItem::range(0, 10), QueryItem::range(5, 15)]);
        assert_eq!(count_bound(std::slice::from_ref(&q), 4), 8);
        let obj = Object::new(vec![5, 5, 6, 7]);
        assert!(match_count(&q, &obj) <= 8);
        assert_eq!(match_count(&q, &obj), 8, "all four elements hit both items");
    }

    #[test]
    fn count_bound_is_never_undersized_on_random_inputs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let objects: Vec<Object> = (0..20)
                .map(|_| {
                    Object::new(
                        (0..rng.random_range(1..6))
                            .map(|_| rng.random_range(0..20u32))
                            .collect(),
                    )
                })
                .collect();
            let queries: Vec<Query> = (0..4)
                .map(|_| {
                    Query::new(
                        (0..rng.random_range(1..5))
                            .map(|_| {
                                let lo = rng.random_range(0..20u32);
                                QueryItem::range(lo, (lo + rng.random_range(0..6)).min(19))
                            })
                            .collect(),
                    )
                })
                .collect();
            let max_len = objects.iter().map(|o| o.len()).max().unwrap();
            let bound = count_bound(&queries, max_len);
            for q in &queries {
                for o in &objects {
                    assert!(match_count(q, o) <= bound, "bound {bound} violated");
                }
            }
        }
    }
}
