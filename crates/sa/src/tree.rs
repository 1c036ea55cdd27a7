//! Tree similarity search via binary branches (paper §II-B2, citing
//! Yang, Kalnis & Tung, "Similarity evaluation on tree-structured
//! data", SIGMOD 2005).
//!
//! The SA decomposition for ordered labelled trees: transform the tree
//! to its binary representation (first child -> left, next sibling ->
//! right) and take every node's *binary branch* — the triple
//! `(label, left-label | ε, right-label | ε)` — as a sub-unit. Yang et
//! al. prove the L1 distance between two trees' binary-branch vectors is
//! at most `5 x` their tree edit distance, so the shared-branch count
//! GENIE computes is an edit-distance filter exactly like n-grams are
//! for strings:
//!
//! `common(T1, T2) >= (|T1| + |T2| - 5 * ted(T1, T2)) / 2`
//!
//! Verification runs the Zhang–Shasha ordered tree edit distance over
//! the retrieved candidates.

use std::collections::HashMap;

use genie_core::model::{KeywordId, Object, Query};

/// An ordered labelled tree in arena form. Node 0 is the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    labels: Vec<u32>,
    children: Vec<Vec<usize>>,
}

impl Tree {
    /// Single-node tree.
    pub fn leaf(label: u32) -> Self {
        Self {
            labels: vec![label],
            children: vec![Vec::new()],
        }
    }

    /// Append a new node under `parent`; returns its id.
    pub fn add_child(&mut self, parent: usize, label: u32) -> usize {
        let id = self.labels.len();
        self.labels.push(label);
        self.children.push(Vec::new());
        self.children[parent].push(id);
        id
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

    pub fn children(&self, node: usize) -> &[usize] {
        &self.children[node]
    }
}

/// The "no node" marker in a binary branch.
pub const EPSILON: u32 = u32::MAX;

/// One binary branch: a node's label with the labels of its first child
/// and next sibling in the binary-tree transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BinaryBranch {
    pub label: u32,
    pub left: u32,
    pub right: u32,
}

/// Extract the binary-branch multiset of `tree` (one branch per node).
pub fn binary_branches(tree: &Tree) -> Vec<BinaryBranch> {
    let mut out = Vec::with_capacity(tree.len());
    // next sibling of node i within its parent's child list
    let mut next_sibling = vec![EPSILON; tree.len()];
    for kids in &tree.children {
        for pair in kids.windows(2) {
            next_sibling[pair[0]] = tree.labels[pair[1]];
        }
    }
    for (node, &right) in next_sibling.iter().enumerate() {
        let left = tree.children[node]
            .first()
            .map(|&c| tree.labels[c])
            .unwrap_or(EPSILON);
        out.push(BinaryBranch {
            label: tree.labels[node],
            left,
            right,
        });
    }
    out
}

/// `Σ min counts` of shared binary branches — the quantity the
/// match-count model computes when branches are indexed with occurrence
/// tags.
pub fn common_branches(a: &Tree, b: &Tree) -> u32 {
    let mut ca: HashMap<BinaryBranch, u32> = HashMap::new();
    for br in binary_branches(a) {
        *ca.entry(br).or_insert(0) += 1;
    }
    let mut cb: HashMap<BinaryBranch, u32> = HashMap::new();
    for br in binary_branches(b) {
        *cb.entry(br).or_insert(0) += 1;
    }
    ca.iter()
        .map(|(br, &c)| c.min(cb.get(br).copied().unwrap_or(0)))
        .sum()
}

/// Yang et al.'s filter: trees within tree edit distance `tau` of a
/// query with `len_q` nodes share at least this many binary branches
/// with it (clamped at 0 when vacuous).
pub fn branch_lower_bound(len_q: usize, len_t: usize, tau: u32) -> u32 {
    let bound = (len_q as i64 + len_t as i64 - 5 * tau as i64) / 2;
    bound.max(0) as u32
}

/// Zhang–Shasha ordered tree edit distance (unit costs for insert,
/// delete and relabel).
pub fn tree_edit_distance(a: &Tree, b: &Tree) -> u32 {
    let pa = Postorder::of(a);
    let pb = Postorder::of(b);
    let (na, nb) = (pa.labels.len(), pb.labels.len());
    if na == 0 {
        return nb as u32;
    }
    if nb == 0 {
        return na as u32;
    }
    let mut tree_dist = vec![vec![0u32; nb]; na];
    for &kr_a in &pa.keyroots {
        for &kr_b in &pb.keyroots {
            forest_dist(&pa, &pb, kr_a, kr_b, &mut tree_dist);
        }
    }
    tree_dist[na - 1][nb - 1]
}

/// Postorder view of a tree: labels, leftmost-leaf indices, keyroots.
struct Postorder {
    labels: Vec<u32>,
    /// `lml[i]`: postorder index of the leftmost leaf of subtree `i`.
    lml: Vec<usize>,
    /// Nodes with a left sibling, plus the root — the LR keyroots.
    keyroots: Vec<usize>,
}

impl Postorder {
    fn of(tree: &Tree) -> Self {
        let mut order = Vec::with_capacity(tree.len());
        fn visit(tree: &Tree, node: usize, order: &mut Vec<usize>) {
            for &c in tree.children(node) {
                visit(tree, c, order);
            }
            order.push(node);
        }
        if !tree.is_empty() {
            visit(tree, 0, &mut order);
        }
        let post_of: HashMap<usize, usize> =
            order.iter().enumerate().map(|(p, &n)| (n, p)).collect();
        let mut labels = vec![0u32; order.len()];
        let mut lml = vec![0usize; order.len()];
        for (post, &node) in order.iter().enumerate() {
            labels[post] = tree.label(node);
            // leftmost leaf: descend first children
            let mut cur = node;
            while let Some(&first) = tree.children(cur).first() {
                cur = first;
            }
            lml[post] = post_of[&cur];
        }
        // keyroots: highest node of every distinct leftmost-leaf chain
        let mut seen: HashMap<usize, usize> = HashMap::new();
        for (post, &leftmost) in lml.iter().enumerate() {
            seen.insert(leftmost, post); // later (higher) wins
        }
        let mut keyroots: Vec<usize> = seen.into_values().collect();
        keyroots.sort_unstable();
        Self {
            labels,
            lml,
            keyroots,
        }
    }
}

fn forest_dist(a: &Postorder, b: &Postorder, i: usize, j: usize, tree_dist: &mut [Vec<u32>]) {
    let (li, lj) = (a.lml[i], b.lml[j]);
    let rows = i - li + 2;
    let cols = j - lj + 2;
    let mut fd = vec![vec![0u32; cols]; rows];
    for (r, row) in fd.iter_mut().enumerate().skip(1) {
        row[0] = r as u32;
    }
    for (c, cell) in fd[0].iter_mut().enumerate().skip(1) {
        *cell = c as u32;
    }
    for r in 1..rows {
        let ai = li + r - 1;
        for c in 1..cols {
            let bj = lj + c - 1;
            if a.lml[ai] == li && b.lml[bj] == lj {
                // both forests are whole trees: a relabel is possible
                let cost = u32::from(a.labels[ai] != b.labels[bj]);
                fd[r][c] = (fd[r - 1][c] + 1)
                    .min(fd[r][c - 1] + 1)
                    .min(fd[r - 1][c - 1] + cost);
                tree_dist[ai][bj] = fd[r][c];
            } else {
                let (ra, ca) = (a.lml[ai].saturating_sub(li), b.lml[bj].saturating_sub(lj));
                fd[r][c] = (fd[r - 1][c] + 1)
                    .min(fd[r][c - 1] + 1)
                    .min(fd[ra][ca] + tree_dist[ai][bj]);
            }
        }
    }
}

/// A binary-branch inverted index over a forest, searched through GENIE.
///
/// The stored trees and the branch vocabulary sit behind locks so live
/// inserts (`Domain::decompose` / `Domain::store_item`) can grow them
/// under `&self`; the store only appends and existing vocabulary
/// entries are never reassigned.
pub struct TreeIndex {
    trees: std::sync::RwLock<Vec<Tree>>,
    vocab: std::sync::RwLock<HashMap<(BinaryBranch, u32), KeywordId>>,
    index: std::sync::Arc<genie_core::index::InvertedIndex>,
}

/// One verified tree hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeHit {
    pub id: u32,
    pub distance: u32,
}

impl TreeIndex {
    /// Decompose and index `trees`.
    pub fn build(trees: Vec<Tree>) -> Self {
        let mut vocab: HashMap<(BinaryBranch, u32), KeywordId> = HashMap::new();
        let mut builder = genie_core::index::IndexBuilder::new();
        for tree in &trees {
            let kws = Self::keywords_of(tree, &mut vocab);
            builder.add_object(&Object::new(kws));
        }
        Self {
            trees: std::sync::RwLock::new(trees),
            vocab: std::sync::RwLock::new(vocab),
            index: std::sync::Arc::new(builder.build(None)),
        }
    }

    fn keywords_of(
        tree: &Tree,
        vocab: &mut HashMap<(BinaryBranch, u32), KeywordId>,
    ) -> Vec<KeywordId> {
        let mut occ: HashMap<BinaryBranch, u32> = HashMap::new();
        let mut kws = Vec::with_capacity(tree.len());
        for br in binary_branches(tree) {
            let o = occ.entry(br).or_insert(0);
            let key = (br, *o);
            *o += 1;
            let next = vocab.len() as KeywordId;
            kws.push(*vocab.entry(key).or_insert(next));
        }
        kws
    }

    fn lookup_keywords(&self, tree: &Tree) -> Vec<KeywordId> {
        let vocab = self.vocab.read().unwrap();
        let mut occ: HashMap<BinaryBranch, u32> = HashMap::new();
        let mut kws = Vec::with_capacity(tree.len());
        for br in binary_branches(tree) {
            let o = occ.entry(br).or_insert(0);
            let key = (br, *o);
            *o += 1;
            if let Some(&kw) = vocab.get(&key) {
                kws.push(kw);
            }
        }
        kws
    }

    pub fn tree(&self, id: u32) -> Tree {
        self.trees.read().unwrap()[id as usize].clone()
    }

    pub fn inverted_index(&self) -> &std::sync::Arc<genie_core::index::InvertedIndex> {
        &self.index
    }

    /// Query over the known branches of `q` (unknown branches match
    /// nothing and are skipped).
    pub fn to_query(&self, q: &Tree) -> Query {
        Query::from_keywords(&self.lookup_keywords(q))
    }
}

impl genie_core::domain::Domain for TreeIndex {
    type Config = ();
    type Item = Tree;
    type QuerySpec = Tree;
    type Response = Vec<TreeHit>;

    fn name() -> &'static str {
        "tree"
    }

    fn create(_config: (), items: Vec<Tree>) -> Self {
        Self::build(items)
    }

    fn index(&self) -> &std::sync::Arc<genie_core::index::InvertedIndex> {
        &self.index
    }

    /// An empty query tree is a typed error; a tree whose branches are
    /// all unknown encodes to a query matching nothing.
    fn encode(&self, spec: &Tree) -> Result<Query, genie_core::model::QueryBuildError> {
        if spec.is_empty() {
            return Err(genie_core::model::QueryBuildError::EmptyQuery);
        }
        Ok(self.to_query(spec))
    }

    /// Decompose one tree exactly like [`TreeIndex::build`] does:
    /// occurrence-tagged binary branches become keywords, unseen
    /// branches extend the vocabulary. An empty tree is a typed error,
    /// mirroring `encode`.
    fn decompose(
        &self,
        item: &Tree,
    ) -> Result<genie_core::model::Object, genie_core::model::QueryBuildError> {
        if item.is_empty() {
            return Err(genie_core::model::QueryBuildError::EmptyQuery);
        }
        let mut vocab = self.vocab.write().unwrap();
        Ok(Object::new(Self::keywords_of(item, &mut vocab)))
    }

    /// Trees must be stored for decode's verification pass; ids are
    /// dense and append-only.
    fn store_item(&self, id: genie_core::model::ObjectId, item: Tree) {
        let mut trees = self.trees.write().unwrap();
        debug_assert_eq!(trees.len(), id as usize, "stable ids arrive dense");
        trees.push(item);
    }

    /// Over-fetch candidates for the verify step (shared-branch counts
    /// only *filter* for tree edit distance).
    fn candidates_for(&self, k: usize) -> usize {
        (k * 8).max(32)
    }

    /// Verify the retrieved candidates with the Zhang–Shasha distance
    /// and keep the top-k (ascending distance, ascending id).
    fn decode(
        &self,
        spec: &Tree,
        hits: Vec<genie_core::topk::TopHit>,
        _audit_threshold: u32,
        _k_candidates: usize,
        k: usize,
    ) -> Vec<TreeHit> {
        let trees = self.trees.read().unwrap();
        let mut verified: Vec<TreeHit> = hits
            .iter()
            .map(|h| TreeHit {
                id: h.id,
                distance: tree_edit_distance(spec, &trees[h.id as usize]),
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

    /// The classic Zhang–Shasha example: f(d(a c(b)) e) vs f(c(d(a b)) e)
    /// has distance 2.
    fn zs_example() -> (Tree, Tree) {
        let mut t1 = Tree::leaf(b'f' as u32);
        let d = t1.add_child(0, b'd' as u32);
        t1.add_child(0, b'e' as u32);
        t1.add_child(d, b'a' as u32);
        let c = t1.add_child(d, b'c' as u32);
        t1.add_child(c, b'b' as u32);

        let mut t2 = Tree::leaf(b'f' as u32);
        let c = t2.add_child(0, b'c' as u32);
        t2.add_child(0, b'e' as u32);
        let d = t2.add_child(c, b'd' as u32);
        t2.add_child(d, b'a' as u32);
        t2.add_child(d, b'b' as u32);
        (t1, t2)
    }

    #[test]
    fn zhang_shasha_classic_example() {
        let (t1, t2) = zs_example();
        assert_eq!(tree_edit_distance(&t1, &t2), 2);
        assert_eq!(tree_edit_distance(&t1, &t1), 0);
        assert_eq!(tree_edit_distance(&t2, &t2), 0);
    }

    #[test]
    fn ted_simple_cases() {
        let a = Tree::leaf(1);
        let b = Tree::leaf(2);
        assert_eq!(tree_edit_distance(&a, &b), 1, "relabel");
        let mut c = Tree::leaf(1);
        c.add_child(0, 3);
        assert_eq!(tree_edit_distance(&a, &c), 1, "insert one node");
        assert_eq!(tree_edit_distance(&c, &a), 1, "delete one node");
    }

    #[test]
    fn binary_branches_capture_structure() {
        // root(a b): branches are (root, a, eps), (a, eps, b), (b, eps, eps)
        let mut t = Tree::leaf(0);
        t.add_child(0, 1);
        t.add_child(0, 2);
        let brs = binary_branches(&t);
        assert_eq!(brs.len(), 3);
        assert_eq!(
            brs[0],
            BinaryBranch {
                label: 0,
                left: 1,
                right: EPSILON
            }
        );
        assert_eq!(
            brs[1],
            BinaryBranch {
                label: 1,
                left: EPSILON,
                right: 2
            }
        );
    }

    #[test]
    fn identical_trees_share_all_branches() {
        let (t1, _) = zs_example();
        assert_eq!(common_branches(&t1, &t1), t1.len() as u32);
    }

    fn arb_tree() -> impl Strategy<Value = Tree> {
        // random parent-pointer encoding: node i attaches to parent in 0..i
        proptest::collection::vec((0u32..5, 0usize..8), 0..12).prop_map(|spec| {
            let mut t = Tree::leaf(0);
            for (label, ppick) in spec {
                let parent = ppick % t.len();
                t.add_child(parent, label);
            }
            t
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Yang et al.'s theorem: branch-vector L1 distance <= 5 * TED,
        /// i.e. common >= (|T1| + |T2| - 5 ted) / 2.
        #[test]
        fn branch_filter_never_prunes_true_neighbours((a, b) in (arb_tree(), arb_tree())) {
            let ted = tree_edit_distance(&a, &b);
            let common = common_branches(&a, &b);
            let bound = branch_lower_bound(a.len(), b.len(), ted);
            prop_assert!(common >= bound, "common={common} bound={bound} ted={ted}");
        }

        /// TED is a metric on the generated trees.
        #[test]
        fn ted_metric_properties((a, b) in (arb_tree(), arb_tree())) {
            prop_assert_eq!(tree_edit_distance(&a, &a), 0);
            prop_assert_eq!(tree_edit_distance(&a, &b), tree_edit_distance(&b, &a));
            // size difference is a trivial lower bound
            prop_assert!(tree_edit_distance(&a, &b) >= a.len().abs_diff(b.len()) as u32);
            prop_assert!(tree_edit_distance(&a, &b) <= (a.len() + b.len()) as u32);
        }
    }

    #[test]
    fn end_to_end_tree_search_finds_exact_tree() {
        use genie_core::backend::SearchBackend;
        use genie_core::domain::Domain;
        use genie_core::exec::Engine;
        use gpu_sim::Device;
        use std::sync::Arc;

        let (t1, t2) = zs_example();
        let mut t3 = Tree::leaf(9);
        t3.add_child(0, 9);
        let idx = TreeIndex::build(vec![t1.clone(), t2.clone(), t3]);
        let engine = Engine::new(Arc::new(Device::with_defaults()));
        let didx = SearchBackend::upload(&engine, Arc::clone(Domain::index(&idx))).unwrap();
        let q = idx.encode(&t1).unwrap();
        let out = SearchBackend::search_batch(&engine, &didx, &[q], 3);
        let hits = idx.decode(&t1, out.results[0].clone(), out.audit_thresholds[0], 3, 2);
        assert_eq!(hits[0], TreeHit { id: 0, distance: 0 });
        assert_eq!(hits[1], TreeHit { id: 1, distance: 2 });
        assert!(TreeIndex::encode(&idx, &Tree::leaf(1)).is_ok());
    }
}
