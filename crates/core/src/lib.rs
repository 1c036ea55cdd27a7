//! # genie-core — the GENIE inverted-index engine
//!
//! Rust reproduction of the core contribution of *"A Generic Inverted
//! Index Framework for Similarity Search on the GPU"* (ICDE 2018):
//!
//! * the **match-count model** ([`model`]) — the abstract similarity
//!   interface every data type is compiled down to;
//! * the device-resident **inverted index** ([`index`]) with host
//!   Position Map, flat List Array and load-balanced sublists;
//! * the **Count Priority Queue** ([`cpq`]) — bitmap counters, the
//!   ZipperArray/AuditThreshold gate and the modified Robin Hood hash
//!   table that make top-k selection a single table scan;
//! * the batched **engine** ([`exec`]) that runs multi-query top-k
//!   match-count search on a [`gpu_sim::Device`];
//! * **sharding** ([`shard`]) — the one partition-and-merge: split a
//!   data set across self-contained index shards (local→global id
//!   maps) and merge per-shard top-k into the global answer with the
//!   Theorem 3.1 certificate; the serving layer's fan-out, the delta
//!   shard and multiple loading all use it;
//! * **multiple loading** ([`multiload`]) for data sets larger than
//!   device memory — device-sized shards paged through one device (a
//!   fleet of devices serves a sharded collection instead);
//! * **live mutations** ([`delta`]) — an LSM-style mutable delta shard
//!   plus tombstone set over the immutable base shards (every served
//!   collection carries one, empty until its first write), with a
//!   snapshot/compact/apply background-compaction protocol, so
//!   collections absorb inserts and deletes with search results
//!   provably identical to a from-scratch rebuild;
//! * the **byte codec** ([`codec`]) — the one bounds-checked
//!   little-endian writer/reader pair behind the wire protocol, the
//!   journal, the snapshots and the index payloads of [`io`].
//!
//! ## Search backends
//!
//! Execution is pluggable behind the [`backend::SearchBackend`] trait
//! (`upload` / `search_batch` / `capabilities`), with two
//! implementations:
//!
//! * [`exec::Engine`] — the paper-faithful pipeline on the simulated
//!   SIMT device, reporting per-stage cost-model time;
//! * [`backend::CpuBackend`] — pure-host rayon execution with no
//!   simulation overhead (exact counts, host wall-clock only).
//!
//! All backends agree with the brute-force
//! [`model::match_count`] on counts and report AuditThresholds with the
//! Theorem 3.1 semantics; ids may differ only among objects tied at the
//! k-th count (the paper breaks such ties randomly). The type-mapping
//! layers (`genie-lsh`, `genie-sa`), the bench harness and the CLI all
//! take `&dyn SearchBackend`, and the `genie-service` crate schedules
//! multi-client micro-batched traffic across fleets of backends.
//!
//! Higher layers map concrete data types onto this engine: `genie-lsh`
//! (ANN search via locality-sensitive hashing) and `genie-sa` (sequences,
//! documents and relational tables via shotgun-and-assembly).
//!
//! ```
//! use std::sync::Arc;
//! use genie_core::prelude::*;
//!
//! // three objects over a keyword universe
//! let objects = vec![
//!     Object::new(vec![1, 5]),
//!     Object::new(vec![1, 6]),
//!     Object::new(vec![2, 5]),
//! ];
//! let mut builder = IndexBuilder::new();
//! builder.add_objects(objects.iter());
//! let index = Arc::new(builder.build(None));
//!
//! let engine = Engine::new(Arc::new(gpu_sim::Device::with_defaults()));
//! let device_index = engine.upload(index).unwrap();
//! let query = Query::from_keywords(&[1, 5]);
//! let out = engine.search(&device_index, &[query], 2);
//! assert_eq!(out.results[0][0].id, 0); // object 0 matches both keywords
//! ```

pub mod backend;
pub mod codec;
pub mod cpq;
pub mod delta;
pub mod domain;
pub mod exec;
pub mod index;
pub mod io;
pub mod model;
pub mod multiload;
pub mod shard;
pub mod topk;

/// Convenient re-exports of the types almost every user needs.
pub mod prelude {
    pub use crate::backend::{BackendCaps, BackendIndex, BackendKind, CpuBackend, SearchBackend};
    pub use crate::delta::{CompactionSnapshot, DeltaPlan};
    pub use crate::domain::{Domain, MatchHits};
    pub use crate::exec::{DeviceIndex, Engine, SearchOutput, StageProfile};
    pub use crate::index::{IndexBuilder, InvertedIndex, LoadBalanceConfig};
    pub use crate::model::{
        match_count, KeywordId, Object, ObjectId, Query, QueryBuildError, QueryItem,
    };
    pub use crate::multiload::{multi_load_search, MultiLoadReport};
    pub use crate::shard::{
        merge_shard_topk, merge_shard_topk_filtered, Shard, ShardError, ShardPlan,
    };
    pub use crate::topk::{reference_top_k, TopHit};
}
