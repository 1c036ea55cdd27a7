//! Shard→backend **placement**: which backends serve which shard.
//!
//! By default the serving layer broadcasts every shard's sub-wave to
//! the whole fleet and lets the shared wave queue sort it out. A
//! [`PlacementPlan`] instead assigns each shard of a collection to a
//! fixed subset of the backends — for instance, to pin a hot shard on
//! the fastest device and keep slow devices off the critical path.
//! Plans are static: the serving layer applies the one it is given and
//! never derives one on its own.
//!
//! # The invariant that makes placement free
//!
//! An object's match count is computed entirely inside its own shard —
//! postings never cross shards — so *which backend* scans a shard has no
//! effect on the counts that come back: every backend agrees with the
//! brute-force [`crate::model::match_count`] on counts. The merged
//! answer is therefore **count/AT-identical for any shard→backend
//! assignment**, including the broadcast assignment, a plan swapped in
//! while traffic is served, or an assignment that routes every shard to
//! one backend:
//!
//! * the merged top-k **count profile** equals the unsharded profile
//!   (each shard still contributes its full per-shard top-k);
//! * the **AuditThreshold** is `MC_k + 1` over the merged list
//!   (Theorem 3.1), which depends only on the count profile;
//! * **ids** may differ only among objects tied at the k-th count,
//!   exactly the latitude the backend contract already grants.
//!
//! Placement is thus purely a *performance* degree of freedom: the
//! serving layer can swap plans at any time (behind its epoch-guarded
//! generation swap) without invalidating caches or changing answers,
//! and the property suite pins placement-routed serving against the
//! broadcast path bit-for-bit on deterministic backends.

/// Why a placement plan could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// A plan needs at least one shard.
    NoShards,
    /// A plan needs at least one backend.
    NoBackends,
    /// The assignment leaves a shard with no backend to serve it.
    EmptyShard {
        /// The unserved shard.
        shard: usize,
    },
    /// The assignment names a backend outside the fleet.
    BackendOutOfRange {
        /// The shard whose assignment is bad.
        shard: usize,
        /// The offending backend index.
        backend: usize,
        /// Backends in the fleet.
        num_backends: usize,
    },
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::NoShards => write!(f, "placement needs at least one shard"),
            PlacementError::NoBackends => write!(f, "placement needs at least one backend"),
            PlacementError::EmptyShard { shard } => {
                write!(f, "shard {shard} has no backend assigned")
            }
            PlacementError::BackendOutOfRange {
                shard,
                backend,
                num_backends,
            } => write!(
                f,
                "shard {shard} names backend {backend} but the fleet has {num_backends}"
            ),
        }
    }
}

impl std::error::Error for PlacementError {}

/// Maps each shard of a collection to the subset of backends that
/// serves it. `assignments[shard]` is a sorted, deduplicated, non-empty
/// list of fleet indexes (the order backends were handed to the
/// scheduler).
///
/// See the [module docs](self) for why any plan yields count/AT-identical
/// merged answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementPlan {
    assignments: Vec<Vec<usize>>,
    num_backends: usize,
}

impl PlacementPlan {
    /// The do-nothing plan: every shard is served by the whole fleet.
    /// This is what an absent placement means to the serving layer.
    pub fn broadcast(num_shards: usize, num_backends: usize) -> Result<Self, PlacementError> {
        let all: Vec<usize> = (0..num_backends).collect();
        Self::new(vec![all; num_shards], num_backends)
    }

    /// Build a plan from an explicit per-shard backend list. Each
    /// shard's list is sorted and deduplicated; every shard must name at
    /// least one in-range backend.
    pub fn new(assignments: Vec<Vec<usize>>, num_backends: usize) -> Result<Self, PlacementError> {
        if assignments.is_empty() {
            return Err(PlacementError::NoShards);
        }
        if num_backends == 0 {
            return Err(PlacementError::NoBackends);
        }
        let mut cleaned = Vec::with_capacity(assignments.len());
        for (shard, mut backends) in assignments.into_iter().enumerate() {
            backends.sort_unstable();
            backends.dedup();
            if backends.is_empty() {
                return Err(PlacementError::EmptyShard { shard });
            }
            if let Some(&backend) = backends.iter().find(|&&b| b >= num_backends) {
                return Err(PlacementError::BackendOutOfRange {
                    shard,
                    backend,
                    num_backends,
                });
            }
            cleaned.push(backends);
        }
        Ok(PlacementPlan {
            assignments: cleaned,
            num_backends,
        })
    }

    /// Shards the plan covers.
    pub fn num_shards(&self) -> usize {
        self.assignments.len()
    }

    /// Fleet size the plan was built for.
    pub fn num_backends(&self) -> usize {
        self.num_backends
    }

    /// The backends assigned to `shard` (sorted fleet indexes).
    pub fn backends_of(&self, shard: usize) -> &[usize] {
        &self.assignments[shard]
    }

    /// Per-shard backend lists, in shard order.
    pub fn assignments(&self) -> &[Vec<usize>] {
        &self.assignments
    }

    /// `shard`'s assignment as a fleet-length boolean mask, the shape
    /// the scheduler's placed dispatch takes.
    pub fn mask_of(&self, shard: usize) -> Vec<bool> {
        let mut mask = vec![false; self.num_backends];
        for &b in &self.assignments[shard] {
            mask[b] = true;
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_covers_every_backend() {
        let plan = PlacementPlan::broadcast(3, 4).unwrap();
        assert_eq!(plan.num_shards(), 3);
        assert_eq!(plan.num_backends(), 4);
        for s in 0..3 {
            assert_eq!(plan.backends_of(s), &[0, 1, 2, 3]);
            assert_eq!(plan.mask_of(s), vec![true; 4]);
        }
    }

    #[test]
    fn new_validates_and_normalizes() {
        let plan = PlacementPlan::new(vec![vec![2, 0, 2], vec![1]], 3).unwrap();
        assert_eq!(plan.backends_of(0), &[0, 2]);
        assert_eq!(plan.backends_of(1), &[1]);
        assert_eq!(plan.mask_of(0), vec![true, false, true]);

        assert_eq!(PlacementPlan::new(vec![], 2), Err(PlacementError::NoShards));
        assert_eq!(
            PlacementPlan::new(vec![vec![0]], 0),
            Err(PlacementError::NoBackends)
        );
        assert_eq!(
            PlacementPlan::new(vec![vec![0], vec![]], 2),
            Err(PlacementError::EmptyShard { shard: 1 })
        );
        assert_eq!(
            PlacementPlan::new(vec![vec![0], vec![3]], 2),
            Err(PlacementError::BackendOutOfRange {
                shard: 1,
                backend: 3,
                num_backends: 2
            })
        );
    }
}
