//! Seeded input generators. The benchmark owns these: the program
//! under test receives only what they produce, the same seed always
//! produces the same inputs, and an FNV-64 checksum of them is recorded
//! with every result so input drift is visible.

use genie_core::model::{Object, Query, QueryItem};
use genie_datasets::documents::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Independent RNG stream `lane` of `seed` (corpus, queries per
/// generator thread, writer...).
pub fn stream(seed: u64, lane: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn objects(&mut self, objects: &[Object]) {
        for o in objects {
            self.u32(o.keywords.len() as u32);
            o.keywords.iter().for_each(|&k| self.u32(k));
        }
    }

    pub fn query(&mut self, q: &Query) {
        self.u32(q.items.len() as u32);
        for item in &q.items {
            self.u32(item.lo);
            self.u32(item.hi);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// `n` objects of `len` keywords each, uniform over `0..universe`.
pub fn uniform_corpus(rng: &mut StdRng, n: usize, len: usize, universe: u32) -> Vec<Object> {
    (0..n).map(|_| uniform_object(rng, len, universe)).collect()
}

pub fn uniform_object(rng: &mut StdRng, len: usize, universe: u32) -> Object {
    Object::new((0..len).map(|_| rng.random_range(0..universe)).collect())
}

/// A query of `items` exact items, uniform over `0..universe`.
pub fn exact_query(rng: &mut StdRng, items: usize, universe: u32) -> Query {
    Query::new(
        (0..items)
            .map(|_| QueryItem::exact(rng.random_range(0..universe)))
            .collect(),
    )
}

/// The query stream of `wire_point_open`: a share `hot_share` of the
/// draws are Zipf(1.0) picks from a fixed hot set (small enough to fit
/// the result cache), the rest are fresh and never repeat.
pub struct HotColdQueries {
    rng: StdRng,
    hot: Vec<Query>,
    zipf: Zipf,
    hot_share: f64,
    items: usize,
    universe: u32,
}

impl HotColdQueries {
    pub fn new(
        seed: u64,
        lane: u64,
        hot_set: usize,
        hot_share: f64,
        items: usize,
        universe: u32,
    ) -> Self {
        // the hot set is shared by every lane of a seed
        let mut hot_rng = stream(seed, 0x407);
        let hot = (0..hot_set)
            .map(|_| exact_query(&mut hot_rng, items, universe))
            .collect();
        Self {
            rng: stream(seed, lane),
            hot,
            zipf: Zipf::new(hot_set, 1.0),
            hot_share,
            items,
            universe,
        }
    }
}

impl Iterator for HotColdQueries {
    type Item = Query;

    fn next(&mut self) -> Option<Query> {
        Some(if self.rng.random_bool(self.hot_share) {
            self.hot[self.zipf.sample(&mut self.rng)].clone()
        } else {
            exact_query(&mut self.rng, self.items, self.universe)
        })
    }
}

/// The query stream of `wire_scan_pipelined`: `items` range items of
/// width `width` over `0..universe`, every query distinct by
/// construction (so the result cache can never answer one). Query `i`
/// is the base-`universe` digits of an affine bijection of `i`; lanes
/// interleave (`lane`, `lane + lanes`, ...).
pub struct UniqueRangeQueries {
    next: u64,
    lanes: u64,
    mul: u64,
    add: u64,
    modulus: u64,
    items: usize,
    width: u32,
    universe: u32,
}

impl UniqueRangeQueries {
    pub fn new(seed: u64, lane: u64, lanes: u64, items: usize, width: u32, universe: u32) -> Self {
        let modulus = u64::from(universe).pow(items as u32);
        let mut rng = stream(seed, 0x5ca);
        // a multiplier coprime to the modulus makes x -> mul*x + add a
        // bijection on 0..modulus
        let mut mul = rng.random_range(modulus / 3..modulus) | 1;
        while gcd(mul, modulus) != 1 {
            mul += 2;
        }
        Self {
            next: lane,
            lanes,
            mul: mul % modulus,
            add: rng.random_range(0..modulus),
            modulus,
            items,
            width,
            universe,
        }
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl Iterator for UniqueRangeQueries {
    type Item = Query;

    fn next(&mut self) -> Option<Query> {
        let i = self.next % self.modulus;
        self.next += self.lanes;
        let mut code = ((u128::from(self.mul) * u128::from(i) + u128::from(self.add))
            % u128::from(self.modulus)) as u64;
        let base = u64::from(self.universe);
        let items = (0..self.items)
            .map(|_| {
                let lo = (code % base) as u32;
                code /= base;
                QueryItem::range(lo, (lo + self.width - 1).min(self.universe - 1))
            })
            .collect();
        Some(Query::new(items))
    }
}

/// The reader stream of `wire_mixed_durable`: Zipf(1.0) over a fixed
/// query pool.
pub struct PoolQueries {
    rng: StdRng,
    pool: Vec<Query>,
    zipf: Zipf,
}

impl PoolQueries {
    pub fn new(seed: u64, lane: u64, pool: usize, items: usize, universe: u32) -> Self {
        let mut pool_rng = stream(seed, 0x9001);
        Self {
            rng: stream(seed, lane),
            pool: (0..pool)
                .map(|_| exact_query(&mut pool_rng, items, universe))
                .collect(),
            zipf: Zipf::new(pool, 1.0),
        }
    }
}

impl Iterator for PoolQueries {
    type Item = Query;

    fn next(&mut self) -> Option<Query> {
        Some(self.pool[self.zipf.sample(&mut self.rng)].clone())
    }
}

/// Checksum of a corpus and the first 1024 queries of a stream — both
/// are functions of the seed alone, unlike the number of queries a
/// closed loop gets to send.
pub fn checksum(corpus: &[Object], queries: impl Iterator<Item = Query>) -> u64 {
    let mut h = Fnv64::default();
    h.objects(corpus);
    queries.take(1024).for_each(|q| h.query(&q));
    h.finish()
}

/// A fresh τ-ANN query: a random corpus point plus Gaussian noise.
pub fn noisy_point(rng: &mut StdRng, points: &[Vec<f32>], sigma: f32) -> Vec<f32> {
    let base = &points[rng.random_range(0..points.len())];
    base.iter().map(|&c| c + gaussian(rng) * sigma).collect()
}

fn gaussian(rng: &mut StdRng) -> f32 {
    // Box-Muller; 1 - u keeps the logarithm's argument off zero
    let u1 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random();
    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn zipf_head_mass_matches_the_harmonic_series() {
        // Zipf(1.0) over 256 ranks: P(rank 1) = 1 / H_256, and the top
        // 16 ranks carry H_16 / H_256 of the mass
        let h = |n: usize| (1..=n).map(|i| 1.0 / i as f64).sum::<f64>();
        let zipf = Zipf::new(256, 1.0);
        let mut rng = stream(7, 1);
        let draws = 200_000;
        let mut first = 0usize;
        let mut top16 = 0usize;
        for _ in 0..draws {
            let r = zipf.sample(&mut rng);
            assert!(r < 256);
            first += usize::from(r == 0);
            top16 += usize::from(r < 16);
        }
        let first = first as f64 / draws as f64;
        let top16 = top16 as f64 / draws as f64;
        assert!((first - 1.0 / h(256)).abs() < 0.01, "head {first}");
        assert!((top16 - h(16) / h(256)).abs() < 0.01, "top16 {top16}");
    }

    #[test]
    fn same_seed_same_inputs_and_checksum() {
        let corpus = |seed| uniform_corpus(&mut stream(seed, 1), 500, 8, 2000);
        let queries = |seed| HotColdQueries::new(seed, 2, 256, 0.2, 8, 2000);
        assert_eq!(corpus(5), corpus(5));
        assert_eq!(
            checksum(&corpus(5), queries(5)),
            checksum(&corpus(5), queries(5))
        );
        assert_ne!(
            checksum(&corpus(5), queries(5)),
            checksum(&corpus(6), queries(6))
        );
    }

    #[test]
    fn hot_cold_stream_repeats_only_its_hot_share() {
        let n = 20_000;
        let mut seen = HashSet::new();
        let mut repeats = 0usize;
        for q in HotColdQueries::new(11, 2, 256, 0.2, 8, 1_000_000).take(n) {
            if !seen.insert(format!("{q:?}")) {
                repeats += 1;
            }
        }
        let share = repeats as f64 / n as f64;
        // 20 % hot draws, minus the first sighting of each hot query
        assert!((0.17..=0.21).contains(&share), "repeat share {share}");
    }

    #[test]
    fn range_queries_are_unique_across_lanes_and_stay_in_the_universe() {
        let mut seen = HashSet::new();
        for lane in 0..2 {
            for q in UniqueRangeQueries::new(3, lane, 2, 4, 8, 50).take(50_000) {
                assert_eq!(q.items.len(), 4);
                for item in &q.items {
                    assert!(item.lo <= item.hi && item.hi < 50);
                    assert!(item.hi - item.lo < 8);
                }
                assert!(seen.insert(format!("{q:?}")), "repeated query");
            }
        }
    }
}
