//! # genie — a generic inverted index framework for similarity search
//!
//! Rust reproduction of *"A Generic Inverted Index Framework for
//! Similarity Search on the GPU"* (ICDE 2018). This facade crate
//! re-exports the whole public API; see the sub-crates for details:
//!
//! * [`gpu_sim`] — the software SIMT device every kernel runs on;
//! * [`core`] (`genie-core`) — match-count model, inverted index, c-PQ,
//!   batched engine, multiple loading, and the [`Domain`] adapter trait
//!   every data type implements;
//! * [`lsh`] (`genie-lsh`) — LSH families (E2LSH, random binning,
//!   MinHash, SimHash), re-hashing, τ-ANN theory;
//! * [`sa`] (`genie-sa`) — sequences under edit distance, short
//!   documents, relational tables, trees and graphs;
//! * [`baselines`] (`genie-baselines`) — every competitor of the
//!   paper's evaluation;
//! * [`datasets`] (`genie-datasets`) — seeded synthetic corpora;
//! * [`service`] (`genie-service`) — the serving stack: the typed
//!   [`GenieDb`]/[`Collection`] facade over the always-on
//!   `GenieService` admission queue (size/deadline wave triggers,
//!   per-collection result cache) over the micro-batching
//!   `QueryScheduler` with multi-backend dispatch.
//!
//! ## One door per job
//!
//! | job | door |
//! |---|---|
//! | serve a corpus over TCP | `genie-server` (the only listener) |
//! | ask or operate a running server | `genie-cli net-query [--stats]`, `genie-cli store-fsck` |
//! | search a file offline | `genie-cli docs`, `genie-cli fuzzy` |
//! | load and measure | `benchmark/` (serving, wire, live mutations), `repro` (paper figures; kernel, placement and durability gates) |
//!
//! ## Quickstart
//!
//! One `GenieDb` serves every domain the paper claims — the same
//! admission queue, scheduler and cache behind typed collections:
//!
//! ```
//! use std::sync::Arc;
//! use genie::prelude::*;
//! use genie::sa::DocumentIndex;
//!
//! let db = GenieDb::single(Arc::new(CpuBackend::new())).unwrap();
//! let toks = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
//! let docs = db
//!     .create_collection::<DocumentIndex>(
//!         "docs",
//!         (),
//!         vec![
//!             toks("inverted index framework"),
//!             toks("similarity search on gpu"),
//!         ],
//!     )
//!     .unwrap();
//! let found = docs.search(&toks("generic inverted index"), 1).unwrap();
//! assert_eq!(found.hits[0].id, 0);
//! ```

pub use genie_baselines as baselines;
pub use genie_client as client;
pub use genie_core as core;
pub use genie_datasets as datasets;
pub use genie_lsh as lsh;
pub use genie_net as net;
pub use genie_sa as sa;
pub use genie_service as service;
pub use genie_store as store;
pub use gpu_sim;

#[doc(inline)]
pub use genie_core::domain::Domain;
#[doc(inline)]
pub use genie_service::{Collection, GenieDb};

/// One-stop imports for typical use.
pub mod prelude {
    pub use genie_core::prelude::*;
    pub use genie_lsh::{AnnIndex, AnnParams, Transformer};
    pub use genie_sa::{DocumentIndex, RelationalIndex, RelationalSchema, SequenceIndex};
    pub use genie_service::{
        BackendHealth, Collection, CollectionId, DbError, GenieDb, GenieService, MutationStatus,
        PreparedIndex, QueryRequest, QueryResponse, QueryScheduler, ResponseTicket, ScheduleReport,
        SchedulerConfig, ServiceConfig, ServiceError, ServiceStats, TypedTicket,
    };
    pub use gpu_sim::{Device, DeviceConfig};
}
