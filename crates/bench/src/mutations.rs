//! The live-mutation workload runner: interleaved mutation batches and
//! searches driving a [`GenieService`] collection through the delta
//! shard / tombstone / compaction path, reporting mutation batch cost,
//! search latency under accumulated debt, and — the property the whole
//! subsystem is sold on — **rebuild equivalence**: after the dust
//! settles, every query answers exactly as a from-scratch rebuild over
//! the surviving objects would.
//!
//! Like the serving bench, raw microseconds are recorded for trend
//! reading but never gated; the invariants are dimensionless indicators
//! (tickets resolved, every batch committed, compactions fired, debt
//! folded, answers equal to the rebuild) that hold on any host and at
//! any scale — which is why the smoke workload can be checked against
//! the full-scale baseline.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use genie_core::backend::CpuBackend;
use genie_core::model::{Object, ObjectId};
use genie_service::{GenieService, MutationStatus, QueryScheduler, ServiceConfig, ServiceStats};

use crate::check::{field, flag};
use crate::harness::{
    smoke_or_quick, Bench, Cell, Col, Ctx, Invariant, Latency, Mode, Run, Section, Table,
};
use crate::workloads::{index_of, sift_bundle, MatchData, Scale};

/// One mutation run's shape.
#[derive(Debug, Clone, Copy)]
pub struct MutationWorkload {
    /// Objects indexed before the first mutation.
    pub initial: usize,
    /// Mutation batches applied.
    pub batches: usize,
    pub inserts_per_batch: usize,
    pub deletes_per_batch: usize,
    /// Searches submitted after each batch (measured under debt).
    pub searches_per_batch: usize,
    pub k: usize,
    /// Base shards of the collection.
    pub shards: usize,
    /// Auto-compaction threshold handed to the service (0 = manual
    /// compaction only).
    pub compact_after: usize,
}

/// What one mutation run measured.
#[derive(Debug, Clone)]
pub struct MutationReport {
    /// Wall-clock of one mutation batch.
    pub mutate: Latency,
    /// Search latency under the accumulated debt.
    pub search: Latency,
    pub searches_expected: usize,
    pub searches_resolved: usize,
    /// Every compared query answered exactly like a from-scratch
    /// rebuild over the surviving objects (ids translated, counts and
    /// `AT` equal).
    pub equivalent_to_rebuild: bool,
    /// Debt state after the final explicit compaction.
    pub final_status: MutationStatus,
    pub stats: ServiceStats,
}

fn service_for(
    objects: &[Object],
    shards: usize,
    compact_after: usize,
) -> (GenieService, genie_service::CollectionId) {
    let index = index_of(objects);
    let scheduler = QueryScheduler::single(Arc::new(CpuBackend::new()));
    let service = GenieService::start_empty(
        scheduler,
        ServiceConfig {
            max_queue_delay: Duration::from_millis(2),
            dispatchers: 1,
            cache_capacity: 0,
            compact_after,
            ..Default::default()
        },
    )
    .expect("config is valid");
    let collection = service
        .add_collection_sharded("live", &index, shards.max(1))
        .expect("host index always fits");
    (service, collection)
}

/// Run `workload` over `data`: interleave mutation batches with
/// searches, compact, then audit every answer against a from-scratch
/// rebuild.
pub fn run_mutation_workload(data: &MatchData, workload: MutationWorkload) -> MutationReport {
    let objects = &data.objects;
    let initial = workload.initial.min(objects.len());
    let (service, collection) =
        service_for(&objects[..initial], workload.shards, workload.compact_after);

    // the model: surviving (stable id, object-pool index), ascending id
    let mut live: VecDeque<(ObjectId, usize)> = (0..initial).map(|i| (i as ObjectId, i)).collect();
    let mut pool_next = initial;
    let mut mutate_us = Vec::with_capacity(workload.batches);
    let mut search_us = Vec::new();
    let mut expected = 0usize;
    let mut resolved = 0usize;

    for batch in 0..workload.batches {
        let deletes: Vec<ObjectId> = (0..workload.deletes_per_batch)
            .map_while(|_| (live.len() > 1).then(|| live.pop_front().expect("nonempty").0))
            .collect();
        let mut inserted_from = Vec::with_capacity(workload.inserts_per_batch);
        let inserts: Vec<Object> = (0..workload.inserts_per_batch)
            .map(|_| {
                let idx = pool_next % objects.len();
                pool_next += 1;
                inserted_from.push(idx);
                objects[idx].clone()
            })
            .collect();
        let started = Instant::now();
        let ids = service
            .mutate_collection(collection, &deletes, inserts, &mut |_, _| {})
            .expect("valid batch applies");
        mutate_us.push(started.elapsed().as_secs_f64() * 1e6);
        live.extend(ids.into_iter().zip(inserted_from));

        for j in 0..workload.searches_per_batch {
            let q = data.queries[(batch * workload.searches_per_batch + j) % data.queries.len()]
                .clone();
            expected += 1;
            let ticket = service.submit_to(collection, q, workload.k);
            let submitted = ticket.submitted_at();
            if ticket.wait().is_ok() {
                resolved += 1;
                search_us.push(submitted.elapsed().as_secs_f64() * 1e6);
            }
        }
    }

    // fold whatever debt is left, then audit against a rebuild
    service
        .compact_collection(collection)
        .expect("compaction runs");
    let final_status = service
        .mutation_status(collection)
        .expect("collection is registered");
    let live_sorted: Vec<(ObjectId, usize)> = live.into_iter().collect();
    let survivors: Vec<Object> = live_sorted
        .iter()
        .map(|&(_, idx)| objects[idx].clone())
        .collect();
    let (fresh, fresh_col) = service_for(&survivors, 1, 0);
    let mut equivalent = true;
    for q in data.queries.iter().take(64) {
        let a = service
            .submit_to(collection, q.clone(), workload.k)
            .wait()
            .expect("live search serves");
        let b = fresh
            .submit_to(fresh_col, q.clone(), workload.k)
            .wait()
            .expect("fresh search serves");
        let translated: Vec<(u32, u32)> = a
            .hits
            .iter()
            .map(|h| {
                let rank = live_sorted
                    .binary_search_by_key(&h.id, |&(id, _)| id)
                    .expect("every returned id is live") as u32;
                (rank, h.count)
            })
            .collect();
        let fresh_pairs: Vec<(u32, u32)> = b.hits.iter().map(|h| (h.id, h.count)).collect();
        if translated != fresh_pairs || a.audit_threshold != b.audit_threshold {
            equivalent = false;
        }
    }
    let stats = service.stats();

    MutationReport {
        mutate: Latency::of(mutate_us),
        search: Latency::of(search_us),
        searches_expected: expected,
        searches_resolved: resolved,
        equivalent_to_rebuild: equivalent,
        final_status,
        stats,
    }
}

/// Search latency as a function of accumulated (uncompacted) debt: one
/// batch of `debt` inserts, no compaction, then a measured search
/// phase. The extra cost of the delta shard fan-out is what automatic
/// compaction exists to bound.
fn debt_probe(data: &MatchData, initial: usize, debt: usize, k: usize) -> (f64, ServiceStats) {
    let objects = &data.objects;
    let initial = initial.min(objects.len().saturating_sub(debt.max(1)));
    let (service, collection) = service_for(&objects[..initial], 2, 0);
    if debt > 0 {
        let inserts: Vec<Object> = (0..debt)
            .map(|i| objects[(initial + i) % objects.len()].clone())
            .collect();
        service
            .mutate_collection(collection, &[], inserts, &mut |_, _| {})
            .expect("insert batch applies");
    }
    let mut latencies = Vec::new();
    for q in data.queries.iter().take(128) {
        let ticket = service.submit_to(collection, q.clone(), k);
        let submitted = ticket.submitted_at();
        ticket.wait().expect("search serves");
        latencies.push(submitted.elapsed().as_secs_f64() * 1e6);
    }
    (Latency::of(latencies).p50_us, service.stats())
}

fn mutation_data(smoke: bool) -> MatchData {
    let (data, _) = sift_bundle(
        Scale {
            n: if smoke { 1_000 } else { 5_000 },
            num_queries: 256,
        },
        8,
        77,
    );
    data
}

const RUN: Table<MutationReport> = Table {
    id: None,
    cols: &[
        Col::shown("mutate_p50_us", "mutate p50", Cell::Ms, |r| {
            r.mutate.p50_us.into()
        }),
        Col::shown("mutate_p95_us", "mutate p95", Cell::Ms, |r| {
            r.mutate.p95_us.into()
        }),
        Col::shown("search_p50_us", "search p50", Cell::Ms, |r| {
            r.search.p50_us.into()
        }),
        Col::shown("search_p95_us", "search p95", Cell::Ms, |r| {
            r.search.p95_us.into()
        }),
        Col::json("searches_expected", |r| r.searches_expected.into()),
        Col::json("searches_resolved", |r| r.searches_resolved.into()),
        Col::shown("equivalent_to_rebuild", "rebuild==", Cell::Plain, |r| {
            r.equivalent_to_rebuild.into()
        }),
        Col::json("final_live", |r| r.final_status.live.into()),
        Col::json("final_delta", |r| r.final_status.delta.into()),
        Col::json("final_tombstones", |r| r.final_status.tombstones.into()),
        Col::json("base_shards", |r| r.final_status.base_shards.into()),
        Col::json("mutation_batches", |r| r.stats.mutation_batches.into()),
        Col::json("inserted", |r| r.stats.inserted.into()),
        Col::json("deleted", |r| r.stats.deleted.into()),
        Col::shown("compactions", "compactions", Cell::Plain, |r| {
            r.stats.compactions.into()
        }),
        Col::json("stale_compactions", |r| r.stats.stale_compactions.into()),
    ],
};

const DEBT: Table<(f64, ServiceStats)> = Table {
    id: Some(("debt", "debt", 8)),
    cols: &[
        Col::shown("p50_us", "p50(ms)", Cell::Ms, |(p50, _)| (*p50).into()),
        Col::shown("shard_runs", "shard runs", Cell::Plain, |(_, stats)| {
            stats.shard_runs.into()
        }),
    ],
};

/// `--mutations [--smoke]`: interleaved mutate/search phases, then the
/// debt-size sweep.
fn setup(ctx: &Ctx) -> crate::harness::Trial {
    let smoke = ctx.mode == Mode::Smoke;
    let workload = if smoke {
        MutationWorkload {
            initial: 512,
            batches: 8,
            inserts_per_batch: 8,
            deletes_per_batch: 4,
            searches_per_batch: 8,
            k: 10,
            shards: 2,
            compact_after: 24,
        }
    } else {
        MutationWorkload {
            initial: 4_000,
            batches: 32,
            inserts_per_batch: 16,
            deletes_per_batch: 8,
            searches_per_batch: 16,
            k: 10,
            shards: 4,
            compact_after: 128,
        }
    };
    let data = mutation_data(smoke);
    Box::new(move || {
        let run = RUN.object(&run_mutation_workload(&data, workload));

        println!("\n--- search p50 vs uncompacted delta size ---");
        DEBT.header();
        let debts = [0usize, 64, 256].map(|debt| {
            let probe = debt_probe(&data, workload.initial, debt, workload.k);
            DEBT.row(debt, &probe)
        });
        Run {
            head: vec![
                ("smoke", smoke.into()),
                ("initial", workload.initial.into()),
                ("batches", workload.batches.into()),
                ("inserts_per_batch", workload.inserts_per_batch.into()),
                ("deletes_per_batch", workload.deletes_per_batch.into()),
                ("shards", workload.shards.into()),
                ("compact_after", workload.compact_after.into()),
            ],
            body: vec![("run", run), ("debt_sweep", Vec::from(debts).into())],
        }
    })
}

/// A mutation run that loses a ticket, drops a batch, diverges from the
/// rebuild, or never folds its debt is broken regardless of timing.
const SECTIONS: &[Section] = &[Section {
    at: Some("run"),
    name: "mutations",
    invariants: &[
        Invariant::new("all_searches_resolved", |run, _| {
            field(run, "searches_resolved") == field(run, "searches_expected")
        }),
        Invariant::new("equivalent_to_rebuild", |run, _| {
            flag(run, "equivalent_to_rebuild")
        }),
        Invariant::new("every_batch_committed", |run, doc| {
            field(run, "mutation_batches") == field(doc, "batches")
        }),
        // the final explicit compaction (at least) must fold
        Invariant::new("compactions_fired", |run, _| {
            field(run, "compactions") >= 1.0
        }),
        Invariant::new("debt_folded", |run, _| {
            field(run, "final_delta") == 0.0 && field(run, "final_tombstones") == 0.0
        }),
    ],
    bands: &[],
}];

pub const BENCH: Bench = Bench {
    name: "mutations",
    flag: "--mutations",
    in_all: true,
    mode: smoke_or_quick,
    trials: |mode| if mode == Mode::Full { 3 } else { 2 },
    sections: |_| SECTIONS,
    setup,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_workload_is_equivalent_and_folds() {
        let data = mutation_data(true);
        let workload = MutationWorkload {
            initial: 200,
            batches: 3,
            inserts_per_batch: 4,
            deletes_per_batch: 2,
            searches_per_batch: 4,
            k: 5,
            shards: 2,
            compact_after: 0,
        };
        let report = run_mutation_workload(&data, workload);
        assert_eq!(report.searches_resolved, report.searches_expected);
        assert!(report.equivalent_to_rebuild);
        assert_eq!(report.final_status.delta, 0);
        assert_eq!(report.final_status.tombstones, 0);
        assert_eq!(report.stats.mutation_batches, 3);
        assert!(report.stats.compactions >= 1);
    }

    #[test]
    fn debt_probe_fans_out_over_the_delta() {
        let data = mutation_data(true);
        let (p50_frozen, stats_frozen) = debt_probe(&data, 200, 0, 5);
        let (p50_debt, stats_debt) = debt_probe(&data, 200, 32, 5);
        assert!(p50_frozen > 0.0 && p50_debt > 0.0);
        // the delta shard adds one more scheduler run per wave
        assert!(stats_debt.shard_runs > stats_frozen.shard_runs);
    }
}
