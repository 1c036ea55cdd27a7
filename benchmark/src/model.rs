//! The brute-force reference every answer is audited against.
//!
//! The model is the corpus as the harness knows it: every object ever
//! acknowledged, with the version (number of acknowledged mutation
//! batches) at which it was born and at which it died. Objects never
//! change and ids are never reused, so an object's match count for a
//! query is independent of the version; only liveness depends on it.
//!
//! A search that raced mutations observed *some* version between "the
//! batches acknowledged before it was sent" and "the batches sent before
//! its reply arrived". The audit accepts a reply that is exactly right
//! at one version of that window. On workloads without mutations the
//! window is `(0, 0)`.

use genie_core::model::Query;
use genie_core::topk::TopHit;

const ALIVE: u32 = u32::MAX;

struct Entry {
    keywords: Vec<u32>,
    born: u32,
    died: u32,
}

pub struct Model {
    entries: Vec<Entry>,
    version: u32,
}

/// `MC(Q, O)`: for each item, the object's keywords inside its range.
pub fn match_count(query: &Query, keywords: &[u32]) -> u32 {
    query
        .items
        .iter()
        .map(|item| {
            keywords
                .iter()
                .filter(|&&k| item.lo <= k && k <= item.hi)
                .count() as u32
        })
        .sum()
}

/// [`match_count`] for one query against many objects. A keyword `k`
/// is inside `#{lo <= k} - #{hi < k}` items, whatever the overlaps, so
/// two sorted endpoint lists answer it in two binary searches. Still
/// brute force — every object is visited, nothing is indexed — just
/// `log(items)` per keyword instead of `items`.
struct Counter {
    los: Vec<u32>,
    his: Vec<u32>,
}

impl Counter {
    fn new(query: &Query) -> Self {
        let mut los: Vec<u32> = query.items.iter().map(|i| i.lo).collect();
        let mut his: Vec<u32> = query.items.iter().map(|i| i.hi).collect();
        los.sort_unstable();
        his.sort_unstable();
        Self { los, his }
    }

    fn count(&self, keywords: &[u32]) -> u32 {
        keywords
            .iter()
            .map(|&k| {
                (self.los.partition_point(|&lo| lo <= k) - self.his.partition_point(|&hi| hi < k))
                    as u32
            })
            .sum()
    }
}

impl Model {
    /// Version 0: the base corpus, ids in corpus order.
    pub fn new<'a>(corpus: impl Iterator<Item = &'a [u32]>) -> Self {
        Self {
            entries: corpus
                .map(|keywords| Entry {
                    keywords: keywords.to_vec(),
                    born: 0,
                    died: ALIVE,
                })
                .collect(),
            version: 0,
        }
    }

    pub fn version(&self) -> u32 {
        self.version
    }

    /// Objects live at the newest version.
    pub fn live_len(&self) -> usize {
        self.entries.iter().filter(|e| e.died == ALIVE).count()
    }

    /// Keywords held by live objects at the newest version.
    pub fn live_keywords(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.died == ALIVE)
            .map(|e| e.keywords.len())
            .sum()
    }

    /// Record one acknowledged mutation batch; the new state is the next
    /// version. `assigned` are the ids the program gave the inserts —
    /// the model requires them dense and in order, as the contract says.
    pub fn apply(
        &mut self,
        deletes: &[u32],
        inserts: &[Vec<u32>],
        assigned: &[u32],
    ) -> Result<(), String> {
        self.version += 1;
        for &id in deletes {
            let entry = self
                .entries
                .get_mut(id as usize)
                .ok_or_else(|| format!("deleted unknown id {id}"))?;
            if entry.died != ALIVE {
                return Err(format!("deleted dead id {id}"));
            }
            entry.died = self.version;
        }
        if assigned.len() != inserts.len() {
            return Err(format!(
                "{} inserts acknowledged with {} ids",
                inserts.len(),
                assigned.len()
            ));
        }
        for (keywords, &id) in inserts.iter().zip(assigned) {
            if id as usize != self.entries.len() {
                return Err(format!(
                    "insert got id {id}, the next stable id is {}",
                    self.entries.len()
                ));
            }
            self.entries.push(Entry {
                keywords: keywords.clone(),
                born: self.version,
                died: ALIVE,
            });
        }
        Ok(())
    }

    /// Every object that ever matched `query`, best first
    /// (count descending, id ascending), with its lifetime.
    fn ranked(&self, query: &Query) -> Vec<(TopHit, u32, u32)> {
        let counter = Counter::new(query);
        let mut ranked: Vec<(TopHit, u32, u32)> = self
            .entries
            .iter()
            .enumerate()
            .filter_map(|(id, e)| {
                let count = counter.count(&e.keywords);
                (count > 0).then_some((
                    TopHit {
                        id: id as u32,
                        count,
                    },
                    e.born,
                    e.died,
                ))
            })
            .collect();
        ranked.sort_unstable_by(|a, b| b.0.count.cmp(&a.0.count).then(a.0.id.cmp(&b.0.id)));
        ranked
    }

    /// The right answer at `version`: top-`k` hits and `AT = MC_k + 1`
    /// (1 when fewer than `k` objects match).
    #[cfg(test)]
    pub fn expected(&self, query: &Query, k: usize, version: u32) -> (Vec<TopHit>, u32) {
        top_k_at(&self.ranked(query), k, version)
    }

    /// Audit one reply against every version in `window` (inclusive).
    ///
    /// Required: the reply's counts equal the reference's; it is
    /// ordered (count desc, id asc) without repeated ids; every hit is a
    /// live object whose true count is the reported one; and the
    /// AuditThreshold is `MC_k + 1`. Ids may differ from the reference
    /// only among objects tied at a count, which the contract allows.
    pub fn check(
        &self,
        query: &Query,
        k: usize,
        window: (u32, u32),
        hits: &[TopHit],
        audit_threshold: u32,
    ) -> Result<(), String> {
        let ordered = hits
            .windows(2)
            .all(|w| w[0].count > w[1].count || (w[0].count == w[1].count && w[0].id < w[1].id));
        if !ordered {
            return Err("hits are not ordered (count desc, id asc)".into());
        }
        for hit in hits {
            match self.entries.get(hit.id as usize) {
                None => return Err(format!("hit names unknown id {}", hit.id)),
                Some(e) if match_count(query, &e.keywords) != hit.count => {
                    return Err(format!(
                        "id {} reported with count {}, brute force says {}",
                        hit.id,
                        hit.count,
                        match_count(query, &e.keywords)
                    ))
                }
                Some(_) => {}
            }
        }
        let ranked = self.ranked(query);
        let mut why = String::new();
        for version in window.0..=window.1.min(self.version) {
            let live = hits.iter().all(|h| {
                let e = &self.entries[h.id as usize];
                e.born <= version && version < e.died
            });
            let (want, want_at) = top_k_at(&ranked, k, version);
            let same_counts =
                want.len() == hits.len() && want.iter().zip(hits).all(|(w, h)| w.count == h.count);
            if live && same_counts && want_at == audit_threshold {
                return Ok(());
            }
            why = format!(
                "at version {version}: live={live} counts_match={same_counts} AT {audit_threshold} vs {want_at}"
            );
        }
        Err(format!(
            "no version in {}..={} explains the reply ({why})",
            window.0, window.1
        ))
    }
}

fn top_k_at(ranked: &[(TopHit, u32, u32)], k: usize, version: u32) -> (Vec<TopHit>, u32) {
    let hits: Vec<TopHit> = ranked
        .iter()
        .filter(|(_, born, died)| *born <= version && version < *died)
        .map(|(hit, _, _)| *hit)
        .take(k)
        .collect();
    let at = if hits.len() == k && k > 0 {
        hits[k - 1].count + 1
    } else {
        1
    };
    (hits, at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use genie_core::backend::kernel::reference_search_one;
    use genie_core::index::IndexBuilder;
    use genie_core::model::{Object, QueryItem};
    use rand::Rng;

    fn small_corpus() -> Vec<Object> {
        gen::uniform_corpus(&mut gen::stream(21, 1), 400, 6, 60)
    }

    fn model_of(corpus: &[Object]) -> Model {
        Model::new(corpus.iter().map(|o| o.keywords.as_slice()))
    }

    #[test]
    fn brute_force_agrees_with_the_kernel_reference_on_a_small_corpus() {
        let corpus = small_corpus();
        let mut builder = IndexBuilder::new();
        builder.add_objects(corpus.iter());
        let index = builder.build(None);
        let model = model_of(&corpus);
        let mut rng = gen::stream(21, 2);
        for round in 0..50 {
            let query = if round % 2 == 0 {
                gen::exact_query(&mut rng, 5, 60)
            } else {
                Query::new(vec![QueryItem::range(3, 11), QueryItem::range(40, 44)])
            };
            for k in [1, 10, 500] {
                let (hits, at) = reference_search_one(&index, &query, k);
                assert_eq!(model.expected(&query, k, 0), (hits.clone(), at));
                model.check(&query, k, (0, 0), &hits, at).unwrap();
            }
        }
    }

    #[test]
    fn endpoint_counter_equals_the_definition_with_overlapping_items() {
        let mut rng = gen::stream(9, 9);
        for _ in 0..200 {
            let items = (0..rng.random_range(1..12usize))
                .map(|_| {
                    let lo = rng.random_range(0..40u32);
                    QueryItem::range(lo, lo + rng.random_range(0..15u32))
                })
                .collect();
            let query = Query::new(items);
            let object = gen::uniform_object(&mut rng, 10, 60);
            assert_eq!(
                Counter::new(&query).count(&object.keywords),
                match_count(&query, &object.keywords)
            );
        }
    }

    #[test]
    fn check_rejects_wrong_counts_order_threshold_and_dead_ids() {
        let corpus = small_corpus();
        let mut model = model_of(&corpus);
        let query = Query::new(vec![QueryItem::range(0, 20)]);
        let (hits, at) = model.expected(&query, 5, 0);
        assert_eq!(hits.len(), 5);
        model.check(&query, 5, (0, 0), &hits, at).unwrap();

        let mut wrong_count = hits.clone();
        wrong_count[0].count += 1;
        assert!(model.check(&query, 5, (0, 0), &wrong_count, at).is_err());

        let mut swapped = hits.clone();
        swapped.swap(0, 4);
        assert!(model.check(&query, 5, (0, 0), &swapped, at).is_err());

        assert!(model.check(&query, 5, (0, 0), &hits, at + 1).is_err());
        assert!(model.check(&query, 5, (0, 0), &hits[..4], at).is_err());

        // kill the best hit: the old answer is right at version 0 only
        model
            .apply(&[hits[0].id], &[vec![1, 2, 3]], &[400])
            .unwrap();
        model.check(&query, 5, (0, 1), &hits, at).unwrap();
        assert!(model.check(&query, 5, (1, 1), &hits, at).is_err());
        let (after, after_at) = model.expected(&query, 5, 1);
        assert!(after.iter().all(|h| h.id != hits[0].id));
        model.check(&query, 5, (1, 1), &after, after_at).unwrap();
    }

    #[test]
    fn apply_enforces_dense_stable_ids_and_live_deletes() {
        let mut model = model_of(&small_corpus());
        assert!(model.apply(&[], &[vec![1]], &[7]).is_err(), "id gap");
        let mut model2 = model_of(&small_corpus());
        model2.apply(&[3], &[vec![1]], &[400]).unwrap();
        assert_eq!(model2.live_len(), 400);
        assert_eq!(model2.version(), 1);
        assert!(model2.apply(&[3], &[], &[]).is_err(), "double delete");
        assert!(model.apply(&[9999], &[], &[]).is_err(), "unknown id");
    }
}
