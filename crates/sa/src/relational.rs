//! Relational-table search (paper §II-A Figure 1, §V-C; Adult
//! experiment).
//!
//! Every `(attribute, value)` pair is a keyword: categorical attributes
//! contribute their category ids directly, continuous attributes are
//! discretised into equal-width buckets (the paper uses 1024 for Adult).
//! A range-selection query becomes one query item per attribute
//! condition — a contiguous keyword range — and GENIE's top-k by match
//! count is a top-k selection under the "number of satisfied conditions"
//! ranking, useful for tables mixing categorical and numerical columns.
//!
//! [`RelationalIndex`] implements [`Domain`]; its `encode` validates
//! conditions up front — unknown attributes, out-of-cardinality
//! categories, NaN/infinite numeric bounds and inverted ranges are typed
//! [`QueryBuildError`]s instead of panics inside the encoding maths.

use std::sync::Arc;

use genie_core::domain::{Domain, MatchHits};
use genie_core::index::{IndexBuilder, InvertedIndex, LoadBalanceConfig};
use genie_core::model::{KeywordId, Object, Query, QueryBuildError, QueryItem};
use genie_core::topk::TopHit;

/// Schema of one attribute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Attribute {
    /// Categorical with ids `0..cardinality`.
    Categorical { cardinality: u32 },
    /// Continuous, discretised into `buckets` equal-width intervals over
    /// `[min, max]`.
    Numeric { min: f64, max: f64, buckets: u32 },
}

impl Attribute {
    fn domain(&self) -> u32 {
        match *self {
            Attribute::Categorical { cardinality } => cardinality,
            Attribute::Numeric { buckets, .. } => buckets,
        }
    }
}

/// One cell of a row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    Cat(u32),
    Num(f64),
}

/// A query condition on one attribute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Condition {
    /// Categorical equality.
    CatEq { attr: usize, value: u32 },
    /// Numeric range `[lo, hi]` in attribute units.
    NumRange { attr: usize, lo: f64, hi: f64 },
    /// Range directly in bucket space `[lo, hi]` (what the Adult
    /// experiment's `[v−50, v+50]` discretised windows are). Clamped
    /// into the attribute's bucket domain, window-style.
    BucketRange { attr: usize, lo: u32, hi: u32 },
}

/// The schema a relational collection is created with: the attribute
/// list plus the optional postings-list length cap.
#[derive(Debug, Clone, Default)]
pub struct RelationalSchema {
    pub attrs: Vec<Attribute>,
    /// Caps postings-list length — essential for low-cardinality
    /// attributes (the paper's Fig. 12 experiment).
    pub load_balance: Option<LoadBalanceConfig>,
}

/// A relational table indexed for GENIE.
pub struct RelationalIndex {
    attrs: Vec<Attribute>,
    /// Keyword-space offset of each attribute (prefix sums of domains).
    offsets: Vec<u32>,
    index: Arc<InvertedIndex>,
    num_rows: usize,
}

impl RelationalIndex {
    /// Discretise and index `rows` under `attrs`. `load_balance` caps
    /// postings-list length.
    pub fn build(
        attrs: Vec<Attribute>,
        rows: &[Vec<Value>],
        load_balance: Option<LoadBalanceConfig>,
    ) -> Self {
        let mut offsets = Vec::with_capacity(attrs.len());
        let mut acc = 0u32;
        for a in &attrs {
            offsets.push(acc);
            acc += a.domain();
        }
        let mut builder = IndexBuilder::new();
        let this = Self {
            attrs,
            offsets,
            index: Arc::new(IndexBuilder::new().build(None)), // replaced below
            num_rows: rows.len(),
        };
        for row in rows {
            builder.add_object(&this.encode_row(row));
        }
        Self {
            index: Arc::new(builder.build(load_balance)),
            ..this
        }
    }

    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    pub fn num_attributes(&self) -> usize {
        self.attrs.len()
    }

    pub fn inverted_index(&self) -> &Arc<InvertedIndex> {
        &self.index
    }

    /// Bucket id of `value` under attribute `attr`.
    pub fn bucket_of(&self, attr: usize, value: Value) -> u32 {
        match (self.attrs[attr], value) {
            (Attribute::Categorical { cardinality }, Value::Cat(c)) => {
                assert!(c < cardinality, "category {c} out of range");
                c
            }
            (Attribute::Numeric { min, max, buckets }, Value::Num(v)) => {
                let span = (max - min).max(f64::MIN_POSITIVE);
                let frac = ((v - min) / span).clamp(0.0, 1.0);
                ((frac * buckets as f64) as u32).min(buckets - 1)
            }
            (a, v) => panic!("value {v:?} does not match attribute {a:?}"),
        }
    }

    /// Keyword of `(attr, bucket)`.
    pub fn keyword(&self, attr: usize, bucket: u32) -> KeywordId {
        debug_assert!(bucket < self.attrs[attr].domain());
        self.offsets[attr] + bucket
    }

    /// Encode a row as a match-count object (Example 2.1).
    pub fn encode_row(&self, row: &[Value]) -> Object {
        assert_eq!(row.len(), self.attrs.len(), "row arity mismatch");
        Object::new(
            row.iter()
                .enumerate()
                .map(|(a, &v)| self.keyword(a, self.bucket_of(a, v)))
                .collect(),
        )
    }

    /// The attribute behind condition index `attr`, validated.
    fn attribute(&self, attr: usize) -> Result<Attribute, QueryBuildError> {
        self.attrs
            .get(attr)
            .copied()
            .ok_or(QueryBuildError::UnknownAttribute {
                attr,
                num_attributes: self.attrs.len(),
            })
    }

    /// Encode one validated condition into a query item.
    fn encode_condition(&self, c: &Condition) -> Result<QueryItem, QueryBuildError> {
        match *c {
            Condition::CatEq { attr, value } => {
                let Attribute::Categorical { cardinality } = self.attribute(attr)? else {
                    return Err(QueryBuildError::TypeMismatch {
                        attr,
                        expected: "categorical".into(),
                    });
                };
                if value >= cardinality {
                    return Err(QueryBuildError::ValueOutOfRange {
                        attr,
                        value,
                        cardinality,
                    });
                }
                Ok(QueryItem::exact(self.keyword(attr, value)))
            }
            Condition::NumRange { attr, lo, hi } => {
                if !matches!(self.attribute(attr)?, Attribute::Numeric { .. }) {
                    return Err(QueryBuildError::TypeMismatch {
                        attr,
                        expected: "numeric".into(),
                    });
                }
                if !lo.is_finite() || !hi.is_finite() {
                    return Err(QueryBuildError::NonFinite {
                        what: "numeric range bound".into(),
                    });
                }
                if lo > hi {
                    return Err(QueryBuildError::EmptyNumericRange { attr, lo, hi });
                }
                let bl = self.bucket_of(attr, Value::Num(lo));
                let bh = self.bucket_of(attr, Value::Num(hi));
                QueryItem::try_range(self.keyword(attr, bl), self.keyword(attr, bh))
            }
            Condition::BucketRange { attr, lo, hi } => {
                let a = self.attribute(attr)?;
                if lo > hi {
                    return Err(QueryBuildError::EmptyRange { lo, hi });
                }
                let max = a.domain() - 1;
                QueryItem::try_range(
                    self.keyword(attr, lo.min(max)),
                    self.keyword(attr, hi.min(max)),
                )
            }
        }
    }

    /// Encode a selection query: one item per condition, validated.
    pub fn encode_query(&self, conditions: &[Condition]) -> Result<Query, QueryBuildError> {
        if conditions.is_empty() {
            return Err(QueryBuildError::EmptyQuery);
        }
        let items = conditions
            .iter()
            .map(|c| self.encode_condition(c))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Query::new(items))
    }
}

impl Domain for RelationalIndex {
    type Config = RelationalSchema;
    type Item = Vec<Value>;
    type QuerySpec = Vec<Condition>;
    type Response = MatchHits;

    fn name() -> &'static str {
        "relational"
    }

    fn create(config: RelationalSchema, items: Vec<Vec<Value>>) -> Self {
        Self::build(config.attrs, &items, config.load_balance)
    }

    fn index(&self) -> &Arc<InvertedIndex> {
        &self.index
    }

    fn encode(&self, spec: &Vec<Condition>) -> Result<Query, QueryBuildError> {
        self.encode_query(spec)
    }

    /// Decompose one row exactly like [`RelationalIndex::build`] does,
    /// with [`encode_row`](RelationalIndex::encode_row)'s panics
    /// surfaced as typed errors: wrong arity, kind mismatches,
    /// out-of-cardinality categories and non-finite numerics. The
    /// schema is fixed at build time, so nothing grows here.
    fn decompose(&self, item: &Vec<Value>) -> Result<Object, QueryBuildError> {
        if item.len() != self.attrs.len() {
            return Err(QueryBuildError::RowArity {
                got: item.len(),
                expected: self.attrs.len(),
            });
        }
        let mut kws = Vec::with_capacity(item.len());
        for (attr, &value) in item.iter().enumerate() {
            let bucket = match (self.attrs[attr], value) {
                (Attribute::Categorical { cardinality }, Value::Cat(c)) => {
                    if c >= cardinality {
                        return Err(QueryBuildError::ValueOutOfRange {
                            attr,
                            value: c,
                            cardinality,
                        });
                    }
                    c
                }
                (Attribute::Numeric { .. }, Value::Num(v)) => {
                    if !v.is_finite() {
                        return Err(QueryBuildError::NonFinite {
                            what: "row cell value".into(),
                        });
                    }
                    self.bucket_of(attr, Value::Num(v))
                }
                (Attribute::Categorical { .. }, Value::Num(_)) => {
                    return Err(QueryBuildError::TypeMismatch {
                        attr,
                        expected: "numeric".into(),
                    });
                }
                (Attribute::Numeric { .. }, Value::Cat(_)) => {
                    return Err(QueryBuildError::TypeMismatch {
                        attr,
                        expected: "categorical".into(),
                    });
                }
            };
            kws.push(self.keyword(attr, bucket));
        }
        Ok(Object::new(kws))
    }

    fn decode(
        &self,
        _spec: &Vec<Condition>,
        hits: Vec<TopHit>,
        audit_threshold: u32,
        _k_candidates: usize,
        k: usize,
    ) -> MatchHits {
        let mut hits = hits;
        hits.truncate(k);
        MatchHits {
            hits,
            audit_threshold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_core::backend::SearchBackend;
    use genie_core::exec::Engine;
    use gpu_sim::Device;

    /// The Figure 1 table: attributes A, B, C with small integer values.
    fn fig1() -> RelationalIndex {
        let attrs = vec![
            Attribute::Categorical { cardinality: 4 },
            Attribute::Categorical { cardinality: 4 },
            Attribute::Categorical { cardinality: 4 },
        ];
        let rows = vec![
            vec![Value::Cat(1), Value::Cat(2), Value::Cat(1)], // O1
            vec![Value::Cat(2), Value::Cat(1), Value::Cat(3)], // O2
            vec![Value::Cat(1), Value::Cat(3), Value::Cat(2)], // O3
        ];
        RelationalIndex::build(attrs, &rows, None)
    }

    fn search(
        rel: &RelationalIndex,
        backend: &dyn SearchBackend,
        queries: &[Vec<Condition>],
        k: usize,
    ) -> Vec<MatchHits> {
        let bindex = backend.upload(Arc::clone(Domain::index(rel))).unwrap();
        let qs: Vec<Query> = queries.iter().map(|q| rel.encode(q).unwrap()).collect();
        let out = backend.search_batch(&bindex, &qs, k);
        queries
            .iter()
            .zip(out.results.into_iter().zip(out.audit_thresholds))
            .map(|(q, (hits, at))| rel.decode(q, hits, at, k, k))
            .collect()
    }

    #[test]
    fn figure_1_query_ranks_o2_first() {
        let rel = fig1();
        let eng = Engine::new(Arc::new(Device::with_defaults()));
        // Q1: 1 <= A <= 2, B = 1, 2 <= C <= 3
        let q = vec![
            Condition::BucketRange {
                attr: 0,
                lo: 1,
                hi: 2,
            },
            Condition::CatEq { attr: 1, value: 1 },
            Condition::BucketRange {
                attr: 2,
                lo: 2,
                hi: 3,
            },
        ];
        let results = search(&rel, &eng, &[q], 3);
        assert_eq!(results[0].hits[0].id, 1, "O2 satisfies all three");
        assert_eq!(results[0].hits[0].count, 3);
        // O3 satisfies A and C; O1 satisfies only A
        assert_eq!(results[0].hits[1], TopHit { id: 2, count: 2 });
        assert_eq!(results[0].hits[2], TopHit { id: 0, count: 1 });
        // AT - 1 = third-best count = 1
        assert_eq!(results[0].audit_threshold, 2);
    }

    #[test]
    fn numeric_discretisation_clamps_and_buckets() {
        let attrs = vec![Attribute::Numeric {
            min: 0.0,
            max: 100.0,
            buckets: 10,
        }];
        let rows = vec![
            vec![Value::Num(5.0)],
            vec![Value::Num(95.0)],
            vec![Value::Num(-3.0)],
            vec![Value::Num(120.0)],
        ];
        let rel = RelationalIndex::build(attrs, &rows, None);
        assert_eq!(rel.bucket_of(0, Value::Num(5.0)), 0);
        assert_eq!(rel.bucket_of(0, Value::Num(95.0)), 9);
        assert_eq!(rel.bucket_of(0, Value::Num(-3.0)), 0, "clamps below");
        assert_eq!(rel.bucket_of(0, Value::Num(120.0)), 9, "clamps above");
    }

    #[test]
    fn numeric_range_query_hits_rows_in_window() {
        let attrs = vec![
            Attribute::Numeric {
                min: 0.0,
                max: 100.0,
                buckets: 100,
            },
            Attribute::Categorical { cardinality: 2 },
        ];
        let rows: Vec<Vec<Value>> = (0..50)
            .map(|i| vec![Value::Num(i as f64 * 2.0), Value::Cat(i % 2)])
            .collect();
        let rel = RelationalIndex::build(attrs, &rows, None);
        let eng = Engine::new(Arc::new(Device::with_defaults()));
        let q = vec![
            Condition::NumRange {
                attr: 0,
                lo: 10.0,
                hi: 20.0,
            },
            Condition::CatEq { attr: 1, value: 0 },
        ];
        let results = search(&rel, &eng, &[q], 5);
        // rows with value in [10,20]: ids 5..=10; among them even ids have
        // Cat 0 -> count 2
        let top = &results[0].hits[0];
        assert_eq!(top.count, 2);
        assert!(top.id.is_multiple_of(2) && (5..=10).contains(&top.id));
    }

    #[test]
    fn keyword_spaces_of_attributes_do_not_overlap() {
        let rel = fig1();
        assert_eq!(rel.keyword(0, 3), 3);
        assert_eq!(rel.keyword(1, 0), 4);
        assert_eq!(rel.keyword(2, 0), 8);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_is_rejected() {
        let rel = fig1();
        rel.encode_row(&[Value::Cat(1)]);
    }

    #[test]
    fn malformed_conditions_are_typed_errors_not_panics() {
        let rel = fig1();
        assert_eq!(rel.encode(&vec![]), Err(QueryBuildError::EmptyQuery));
        // unknown attribute
        assert_eq!(
            rel.encode(&vec![Condition::CatEq { attr: 9, value: 0 }]),
            Err(QueryBuildError::UnknownAttribute {
                attr: 9,
                num_attributes: 3
            })
        );
        // category beyond cardinality (used to be an assert deep in
        // bucket_of)
        assert_eq!(
            rel.encode(&vec![Condition::CatEq { attr: 1, value: 7 }]),
            Err(QueryBuildError::ValueOutOfRange {
                attr: 1,
                value: 7,
                cardinality: 4
            })
        );
        // inverted bucket range
        assert_eq!(
            rel.encode(&vec![Condition::BucketRange {
                attr: 0,
                lo: 3,
                hi: 1
            }]),
            Err(QueryBuildError::EmptyRange { lo: 3, hi: 1 })
        );
        // NaN numeric bound on a numeric attribute
        let attrs = vec![Attribute::Numeric {
            min: 0.0,
            max: 1.0,
            buckets: 8,
        }];
        let rel = RelationalIndex::build(attrs, &[vec![Value::Num(0.5)]], None);
        assert_eq!(
            rel.encode(&vec![Condition::NumRange {
                attr: 0,
                lo: f64::NAN,
                hi: 0.5
            }]),
            Err(QueryBuildError::NonFinite {
                what: "numeric range bound".into()
            })
        );
        // inverted numeric range reports the real bounds in attribute
        // units
        assert_eq!(
            rel.encode(&vec![Condition::NumRange {
                attr: 0,
                lo: 0.9,
                hi: 0.1
            }]),
            Err(QueryBuildError::EmptyNumericRange {
                attr: 0,
                lo: 0.9,
                hi: 0.1
            })
        );
    }

    #[test]
    fn condition_kind_must_match_attribute_kind() {
        // one categorical + one numeric attribute
        let rel = RelationalIndex::build(
            vec![
                Attribute::Categorical { cardinality: 4 },
                Attribute::Numeric {
                    min: 0.0,
                    max: 1.0,
                    buckets: 8,
                },
            ],
            &[vec![Value::Cat(1), Value::Num(0.5)]],
            None,
        );
        // a numeric range over the categorical attribute used to panic
        // inside bucket_of; now a typed error
        assert_eq!(
            rel.encode(&vec![Condition::NumRange {
                attr: 0,
                lo: 0.0,
                hi: 1.0
            }]),
            Err(QueryBuildError::TypeMismatch {
                attr: 0,
                expected: "numeric".into()
            })
        );
        // a categorical equality over the numeric attribute used to be
        // silently reinterpreted as a bucket index; now a typed error
        assert_eq!(
            rel.encode(&vec![Condition::CatEq { attr: 1, value: 3 }]),
            Err(QueryBuildError::TypeMismatch {
                attr: 1,
                expected: "categorical".into()
            })
        );
        // BucketRange is kind-agnostic (bucket space exists for both)
        assert!(rel
            .encode(&vec![Condition::BucketRange {
                attr: 1,
                lo: 0,
                hi: 3
            }])
            .is_ok());
    }

    #[test]
    fn bucket_ranges_clamp_window_style() {
        let rel = fig1();
        // hi beyond the domain clamps (the Adult experiment's v+50
        // windows run off the edge routinely)
        let q = rel
            .encode(&vec![Condition::BucketRange {
                attr: 0,
                lo: 2,
                hi: 99,
            }])
            .unwrap();
        assert_eq!(q.items[0], QueryItem::range(2, 3));
    }
}
