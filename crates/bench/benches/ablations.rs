//! Ablation benches for the design choices of the paper's §III-IV that
//! `genie-core`'s module docs call out:
//!
//! * Robin Hood overwrite-expired rule on vs a plain saturating table —
//!   measured indirectly through hash-table insert throughput under a
//!   rising AuditThreshold;
//! * bitmap-counter field width (packed vs 32-bit) — increment
//!   throughput;
//! * load-balance sublist cap sweep;
//! * re-hash domain size vs index size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use genie_bench::runners::GenieSession;
use genie_bench::workloads::{adult_bundle, sift_bundle, Scale};
use genie_core::cpq::{BitmapCounter, RobinHoodTable};
use genie_core::index::LoadBalanceConfig;
use gpu_sim::{Device, GlobalU32, LaunchConfig};

fn bench_bitmap_width(c: &mut Criterion) {
    let device = Device::with_defaults();
    let n = 100_000;
    let mut group = c.benchmark_group("ablation_bitwidth");
    group.sample_size(10);
    for bits in [4u32, 8, 32] {
        group.bench_with_input(BenchmarkId::new("increment", bits), &bits, |b, &bits| {
            b.iter(|| {
                let bc = BitmapCounter::new(n, bits);
                let bcr = &bc;
                device.launch("inc", LaunchConfig::cover(n, 256), move |ctx| {
                    let gid = ctx.global_id();
                    if gid < n {
                        bcr.increment(ctx, gid);
                    }
                });
            })
        });
    }
    group.finish();
}

fn bench_robin_hood_expiry(c: &mut Criterion) {
    let device = Device::with_defaults();
    let mut group = c.benchmark_group("ablation_robinhood");
    group.sample_size(10);
    // with a rising AT, most of the table expires and inserts overwrite
    // in place; with AT stuck at 1, every insert probes past live entries
    for (name, at_value) in [("expiring", 20u32), ("never_expires", 1u32)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let ht = RobinHoodTable::new(1, 1024);
                let at = GlobalU32::zeroed(1);
                at.fill(1);
                let (h, a) = (&ht, &at);
                device.launch("fill", LaunchConfig::new(4, 256), move |ctx| {
                    let gid = ctx.global_id() as u32;
                    // first wave: low counts; second wave: high counts
                    h.insert(ctx, 0, gid % 900, 1, a, 0);
                    if ctx.thread_idx == 0 {
                        a.store(ctx, 0, at_value);
                    }
                    h.insert(ctx, 0, (gid % 900) + 1000, at_value + 1, a, 0);
                });
            })
        });
    }
    group.finish();
}

fn bench_load_balance_cap(c: &mut Criterion) {
    let scale = Scale {
        n: 20_000,
        num_queries: 4,
    };
    let (adult, _) = adult_bundle(scale, 9);
    let mut group = c.benchmark_group("ablation_lb_cap");
    group.sample_size(10);
    for cap in [512usize, 4096, usize::MAX] {
        let lb = (cap != usize::MAX).then_some(LoadBalanceConfig { max_list_len: cap });
        let session = GenieSession::new(&adult, lb);
        let label = if cap == usize::MAX {
            "off".to_string()
        } else {
            cap.to_string()
        };
        group.bench_with_input(BenchmarkId::new("cap", label), &(), |b, _| {
            b.iter(|| session.run(&adult.queries, 100))
        });
    }
    group.finish();
}

fn bench_block_dim(c: &mut Criterion) {
    // kernel granularity: lanes per block for the match kernel
    let scale = Scale {
        n: 8_000,
        num_queries: 64,
    };
    let (sift, _) = sift_bundle(scale, 32, 5);
    let mut group = c.benchmark_group("ablation_block_dim");
    group.sample_size(10);
    for block_dim in [64usize, 256, 1024] {
        use genie_core::exec::{Engine, EngineConfig};
        use genie_core::index::IndexBuilder;
        use std::sync::Arc;
        let mut b = IndexBuilder::new();
        b.add_objects(sift.objects.iter());
        let engine = Engine::with_config(
            Arc::new(Device::with_defaults()),
            EngineConfig {
                block_dim,
                count_bound: Some(sift.count_bound),
            },
        );
        let didx = engine.upload(Arc::new(b.build(None))).unwrap();
        group.bench_with_input(BenchmarkId::new("dim", block_dim), &(), |bch, _| {
            bch.iter(|| engine.search(&didx, &sift.queries, 100))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_bitmap_width,
    bench_robin_hood_expiry,
    bench_load_balance_cap,
    bench_block_dim
);
criterion_main!(benches);
