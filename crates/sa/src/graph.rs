//! Graph similarity search via star decomposition (paper §II-B2,
//! "stars for graphs"; star structures after Yan et al. and the star
//! mapping distance of Zeng et al., "Comparing stars: on approximating
//! graph edit distance", VLDB 2009).
//!
//! The SA decomposition for labelled undirected graphs: every node
//! contributes its *star* — the node's label plus the sorted multiset of
//! its neighbours' labels. Graphs sharing many stars share much local
//! structure, so the match count is a candidate filter for graph
//! similarity; retrieved candidates are verified with the *star mapping
//! distance* `μ(G1, G2)` — the minimum-cost assignment between the two
//! star multisets (computed exactly with the Hungarian algorithm) —
//! which lower-bounds graph edit distance by `μ / max(4, δ+1)` where δ
//! is the maximum degree.

use std::collections::HashMap;

use genie_core::model::{KeywordId, Object, Query};

/// A labelled undirected graph in adjacency form.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Graph {
    labels: Vec<u32>,
    adj: Vec<Vec<usize>>,
}

impl Graph {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node with `label`, returning its id.
    pub fn add_node(&mut self, label: u32) -> usize {
        self.labels.push(label);
        self.adj.push(Vec::new());
        self.labels.len() - 1
    }

    /// Add an undirected edge; duplicate edges are ignored.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        assert!(a != b, "self-loops are not supported");
        if !self.adj[a].contains(&b) {
            self.adj[a].push(b);
            self.adj[b].push(a);
        }
    }

    pub fn len(&self) -> usize {
        self.labels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    pub fn label(&self, node: usize) -> u32 {
        self.labels[node]
    }

    pub fn neighbors(&self, node: usize) -> &[usize] {
        &self.adj[node]
    }

    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(|n| n.len()).max().unwrap_or(0)
    }
}

/// A star: a node's label plus the sorted labels of its neighbours.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Star {
    pub root: u32,
    pub leaves: Vec<u32>,
}

/// Extract the star multiset of `g` (one star per node).
pub fn stars(g: &Graph) -> Vec<Star> {
    (0..g.len())
        .map(|v| {
            let mut leaves: Vec<u32> = g.adj[v].iter().map(|&u| g.labels[u]).collect();
            leaves.sort_unstable();
            Star {
                root: g.labels[v],
                leaves,
            }
        })
        .collect()
}

/// Edit cost between two stars (Zeng et al.):
/// `T(root) + |d1 - d2| + (max(d1, d2) - |leaf multiset intersection|)`.
pub fn star_distance(a: &Star, b: &Star) -> u32 {
    let root = u32::from(a.root != b.root);
    let (d1, d2) = (a.leaves.len(), b.leaves.len());
    // multiset intersection of two sorted vecs
    let mut inter = 0usize;
    let (mut i, mut j) = (0, 0);
    while i < d1 && j < d2 {
        match a.leaves[i].cmp(&b.leaves[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    root + d1.abs_diff(d2) as u32 + (d1.max(d2) - inter) as u32
}

/// Cost of deleting (or inserting) a whole star.
fn star_deletion_cost(s: &Star) -> u32 {
    1 + s.leaves.len() as u32
}

/// Star mapping distance `μ(G1, G2)`: the minimum-cost perfect matching
/// between the two star multisets, padded with empty slots costed as
/// whole-star insertions/deletions. Exact, via the Hungarian algorithm.
pub fn star_mapping_distance(a: &Graph, b: &Graph) -> u32 {
    let sa = stars(a);
    let sb = stars(b);
    let n = sa.len().max(sb.len());
    if n == 0 {
        return 0;
    }
    let mut cost = vec![vec![0i64; n]; n];
    for (i, row) in cost.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            *cell = match (sa.get(i), sb.get(j)) {
                (Some(x), Some(y)) => star_distance(x, y) as i64,
                (Some(x), None) => star_deletion_cost(x) as i64,
                (None, Some(y)) => star_deletion_cost(y) as i64,
                (None, None) => 0,
            };
        }
    }
    hungarian_min_cost(&cost) as u32
}

/// GED lower bound from the mapping distance: `μ / max(4, δ+1)`
/// (Zeng et al., Theorem 4.2-style normalisation).
pub fn ged_lower_bound(a: &Graph, b: &Graph) -> u32 {
    let mu = star_mapping_distance(a, b);
    let delta = a.max_degree().max(b.max_degree());
    mu / (4.max(delta + 1)) as u32
}

/// Hungarian algorithm (Kuhn–Munkres, O(n³)) for a square cost matrix;
/// returns the minimum total assignment cost.
pub fn hungarian_min_cost(cost: &[Vec<i64>]) -> i64 {
    let n = cost.len();
    if n == 0 {
        return 0;
    }
    const INF: i64 = i64::MAX / 4;
    // potentials and matching, 1-based internal arrays (classic e-maxx)
    let mut u = vec![0i64; n + 1];
    let mut v = vec![0i64; n + 1];
    let mut p = vec![0usize; n + 1]; // p[j]: row matched to column j
    let mut way = vec![0usize; n + 1];
    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![INF; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = INF;
            let mut j1 = 0usize;
            for j in 1..=n {
                if !used[j] {
                    let cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }
    (1..=n).map(|j| cost[p[j] - 1][j - 1]).sum()
}

/// A star inverted index over a set of graphs, searched through GENIE.
///
/// The stored graphs and the star vocabulary sit behind locks so live
/// inserts (`Domain::decompose` / `Domain::store_item`) can grow them
/// under `&self`; the store only appends and existing vocabulary
/// entries are never reassigned.
pub struct GraphIndex {
    graphs: std::sync::RwLock<Vec<Graph>>,
    vocab: std::sync::RwLock<HashMap<(Star, u32), KeywordId>>,
    index: std::sync::Arc<genie_core::index::InvertedIndex>,
}

/// One verified graph hit: id and star mapping distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphHit {
    pub id: u32,
    pub distance: u32,
}

impl GraphIndex {
    /// Decompose and index `graphs`.
    pub fn build(graphs: Vec<Graph>) -> Self {
        let mut vocab: HashMap<(Star, u32), KeywordId> = HashMap::new();
        let mut builder = genie_core::index::IndexBuilder::new();
        for g in &graphs {
            let kws = Self::keywords_of(g, &mut vocab);
            builder.add_object(&Object::new(kws));
        }
        Self {
            graphs: std::sync::RwLock::new(graphs),
            vocab: std::sync::RwLock::new(vocab),
            index: std::sync::Arc::new(builder.build(None)),
        }
    }

    fn keywords_of(g: &Graph, vocab: &mut HashMap<(Star, u32), KeywordId>) -> Vec<KeywordId> {
        let mut occ: HashMap<Star, u32> = HashMap::new();
        stars(g)
            .into_iter()
            .map(|s| {
                let o = occ.entry(s.clone()).or_insert(0);
                let key = (s, *o);
                *o += 1;
                let next = vocab.len() as KeywordId;
                *vocab.entry(key).or_insert(next)
            })
            .collect()
    }

    pub fn graph(&self, id: u32) -> Graph {
        self.graphs.read().unwrap()[id as usize].clone()
    }

    pub fn inverted_index(&self) -> &std::sync::Arc<genie_core::index::InvertedIndex> {
        &self.index
    }

    /// Query over the known stars of `q`.
    pub fn to_query(&self, q: &Graph) -> Query {
        let vocab = self.vocab.read().unwrap();
        let mut occ: HashMap<Star, u32> = HashMap::new();
        let kws: Vec<KeywordId> = stars(q)
            .into_iter()
            .filter_map(|s| {
                let o = occ.entry(s.clone()).or_insert(0);
                let key = (s, *o);
                *o += 1;
                vocab.get(&key).copied()
            })
            .collect();
        Query::from_keywords(&kws)
    }
}

impl genie_core::domain::Domain for GraphIndex {
    type Config = ();
    type Item = Graph;
    type QuerySpec = Graph;
    type Response = Vec<GraphHit>;

    fn name() -> &'static str {
        "graph"
    }

    fn create(_config: (), items: Vec<Graph>) -> Self {
        Self::build(items)
    }

    fn index(&self) -> &std::sync::Arc<genie_core::index::InvertedIndex> {
        &self.index
    }

    /// A graph with no nodes is a typed error; unknown stars match
    /// nothing and are skipped.
    fn encode(&self, spec: &Graph) -> Result<Query, genie_core::model::QueryBuildError> {
        if spec.is_empty() {
            return Err(genie_core::model::QueryBuildError::EmptyQuery);
        }
        Ok(self.to_query(spec))
    }

    /// Decompose one graph exactly like [`GraphIndex::build`] does:
    /// occurrence-tagged stars become keywords, unseen stars extend the
    /// vocabulary. A graph with no nodes is a typed error, mirroring
    /// `encode`.
    fn decompose(
        &self,
        item: &Graph,
    ) -> Result<genie_core::model::Object, genie_core::model::QueryBuildError> {
        if item.is_empty() {
            return Err(genie_core::model::QueryBuildError::EmptyQuery);
        }
        let mut vocab = self.vocab.write().unwrap();
        Ok(Object::new(Self::keywords_of(item, &mut vocab)))
    }

    /// Graphs must be stored for decode's verification pass; ids are
    /// dense and append-only.
    fn store_item(&self, id: genie_core::model::ObjectId, item: Graph) {
        let mut graphs = self.graphs.write().unwrap();
        debug_assert_eq!(graphs.len(), id as usize, "stable ids arrive dense");
        graphs.push(item);
    }

    /// Over-fetch candidates for the verify step (shared-star counts
    /// only *filter* for the star mapping distance).
    fn candidates_for(&self, k: usize) -> usize {
        (k * 8).max(32)
    }

    /// Verify the retrieved candidates with the Hungarian star-mapping
    /// distance and keep the top-k (ascending distance, ascending id).
    fn decode(
        &self,
        spec: &Graph,
        hits: Vec<genie_core::topk::TopHit>,
        _audit_threshold: u32,
        _k_candidates: usize,
        k: usize,
    ) -> Vec<GraphHit> {
        let graphs = self.graphs.read().unwrap();
        let mut verified: Vec<GraphHit> = hits
            .iter()
            .map(|h| GraphHit {
                id: h.id,
                distance: star_mapping_distance(spec, &graphs[h.id as usize]),
            })
            .collect();
        verified.sort_unstable_by(|a, b| a.distance.cmp(&b.distance).then(a.id.cmp(&b.id)));
        verified.truncate(k);
        verified
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A labelled path graph a-b-c.
    fn path3(l: [u32; 3]) -> Graph {
        let mut g = Graph::new();
        let a = g.add_node(l[0]);
        let b = g.add_node(l[1]);
        let c = g.add_node(l[2]);
        g.add_edge(a, b);
        g.add_edge(b, c);
        g
    }

    /// A labelled triangle.
    fn triangle(l: [u32; 3]) -> Graph {
        let mut g = Graph::new();
        let a = g.add_node(l[0]);
        let b = g.add_node(l[1]);
        let c = g.add_node(l[2]);
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(a, c);
        g
    }

    #[test]
    fn stars_capture_neighbourhoods() {
        let g = path3([7, 8, 9]);
        let ss = stars(&g);
        assert_eq!(
            ss[0],
            Star {
                root: 7,
                leaves: vec![8]
            }
        );
        assert_eq!(
            ss[1],
            Star {
                root: 8,
                leaves: vec![7, 9]
            }
        );
        assert_eq!(
            ss[2],
            Star {
                root: 9,
                leaves: vec![8]
            }
        );
    }

    #[test]
    fn star_distance_cases() {
        let a = Star {
            root: 1,
            leaves: vec![2, 3],
        };
        assert_eq!(star_distance(&a, &a), 0);
        let b = Star {
            root: 9,
            leaves: vec![2, 3],
        };
        assert_eq!(star_distance(&a, &b), 1, "root relabel");
        let c = Star {
            root: 1,
            leaves: vec![2],
        };
        assert_eq!(star_distance(&a, &c), 2, "degree diff + missing leaf");
        let d = Star {
            root: 1,
            leaves: vec![4, 5],
        };
        assert_eq!(star_distance(&a, &d), 2, "two leaf relabels");
    }

    #[test]
    fn identical_graphs_have_zero_mapping_distance() {
        let g = triangle([1, 2, 3]);
        assert_eq!(star_mapping_distance(&g, &g), 0);
    }

    #[test]
    fn mapping_distance_sees_structural_change() {
        let p = path3([1, 2, 3]);
        let t = triangle([1, 2, 3]);
        // closing the triangle adds one edge = two star changes
        let mu = star_mapping_distance(&p, &t);
        assert!(mu > 0);
        assert!(ged_lower_bound(&p, &t) <= 1, "one edge insertion suffices");
    }

    #[test]
    fn hungarian_solves_known_matrices() {
        assert_eq!(hungarian_min_cost(&[]), 0);
        assert_eq!(hungarian_min_cost(&[vec![5]]), 5);
        // classic example: optimal is 1 + 2 + 3 off-diagonal
        let cost = vec![vec![4, 1, 3], vec![2, 0, 5], vec![3, 2, 2]];
        assert_eq!(hungarian_min_cost(&cost), 5);
        // permutation matrix: must pick the zeros
        let cost = vec![vec![9, 0, 9], vec![0, 9, 9], vec![9, 9, 0]];
        assert_eq!(hungarian_min_cost(&cost), 0);
    }

    fn arb_graph() -> impl Strategy<Value = Graph> {
        (
            proptest::collection::vec(0u32..4, 1..8),
            proptest::collection::vec((0usize..8, 0usize..8), 0..12),
        )
            .prop_map(|(labels, edges)| {
                let mut g = Graph::new();
                for l in &labels {
                    g.add_node(*l);
                }
                for (a, b) in edges {
                    let (a, b) = (a % g.len(), b % g.len());
                    if a != b {
                        g.add_edge(a, b);
                    }
                }
                g
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// μ is symmetric, zero on identity, and the Hungarian optimum
        /// never exceeds the identity assignment's cost.
        #[test]
        fn mapping_distance_is_sane((a, b) in (arb_graph(), arb_graph())) {
            prop_assert_eq!(star_mapping_distance(&a, &a), 0);
            prop_assert_eq!(
                star_mapping_distance(&a, &b),
                star_mapping_distance(&b, &a)
            );
            // upper bound: match stars in index order, pad with deletions
            let sa = stars(&a);
            let sb = stars(&b);
            let naive: u32 = (0..sa.len().max(sb.len()))
                .map(|i| match (sa.get(i), sb.get(i)) {
                    (Some(x), Some(y)) => star_distance(x, y),
                    (Some(x), None) | (None, Some(x)) => 1 + x.leaves.len() as u32,
                    (None, None) => 0,
                })
                .sum();
            prop_assert!(star_mapping_distance(&a, &b) <= naive);
        }

        /// The Hungarian result is a true lower bound over random
        /// permutation assignments.
        #[test]
        fn hungarian_is_optimal_vs_sampled_permutations(
            seed in 0u64..1000,
            n in 1usize..6,
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let cost: Vec<Vec<i64>> = (0..n)
                .map(|_| (0..n).map(|_| rng.random_range(0..50i64)).collect())
                .collect();
            let best = hungarian_min_cost(&cost);
            // exhaustively enumerate permutations (n <= 5)
            let mut perm: Vec<usize> = (0..n).collect();
            let mut minimum = i64::MAX;
            loop {
                let total: i64 = perm.iter().enumerate().map(|(i, &j)| cost[i][j]).sum();
                minimum = minimum.min(total);
                if !next_permutation(&mut perm) {
                    break;
                }
            }
            prop_assert_eq!(best, minimum);
        }
    }

    fn next_permutation(p: &mut [usize]) -> bool {
        let n = p.len();
        if n < 2 {
            return false;
        }
        let mut i = n - 1;
        while i > 0 && p[i - 1] >= p[i] {
            i -= 1;
        }
        if i == 0 {
            return false;
        }
        let mut j = n - 1;
        while p[j] <= p[i - 1] {
            j -= 1;
        }
        p.swap(i - 1, j);
        p[i..].reverse();
        true
    }

    #[test]
    fn end_to_end_graph_search() {
        use genie_core::backend::SearchBackend;
        use genie_core::domain::Domain;
        use genie_core::exec::Engine;
        use gpu_sim::Device;
        use std::sync::Arc;

        let graphs = vec![
            path3([1, 2, 3]),
            path3([1, 2, 4]),
            triangle([1, 2, 3]),
            triangle([5, 6, 7]),
        ];
        let idx = GraphIndex::build(graphs.clone());
        let engine = Engine::new(Arc::new(Device::with_defaults()));
        let didx = SearchBackend::upload(&engine, Arc::clone(Domain::index(&idx))).unwrap();
        let spec = path3([1, 2, 3]);
        let q = idx.encode(&spec).unwrap();
        let out = SearchBackend::search_batch(&engine, &didx, &[q], 4);
        let hits = idx.decode(&spec, out.results[0].clone(), out.audit_thresholds[0], 4, 2);
        assert_eq!(hits[0], GraphHit { id: 0, distance: 0 });
        assert!(hits[1].distance > 0);
        assert_ne!(hits[1].id, 3, "disjoint-label triangle is farthest");
        assert!(
            idx.encode(&Graph::new()).is_err(),
            "empty graph is a typed error"
        );
    }
}
