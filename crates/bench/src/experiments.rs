//! One function per table/figure of the paper's evaluation (§VI).
//!
//! Each prints the same rows/series the paper reports, on the scaled
//! synthetic workloads. Device methods report simulated milliseconds,
//! host methods wall-clock milliseconds (see crate docs).
//!
//! GPU-SPQ is only run at small batch sizes: the paper itself notes it
//! "can only run less than 256 queries in parallel", and its simulated
//! full scan is the single most host-expensive kernel here; larger
//! batches print `-`.

use std::sync::Arc;

use genie_baselines::app_gram::AppGram;
use genie_baselines::{cpu_lsh::CpuLsh, gpu_lsh};
use genie_core::backend::SearchBackend;
use genie_core::exec::{elapsed_us, Engine, EngineConfig};
use genie_core::index::LoadBalanceConfig;
use genie_core::multiload::multi_load_search;
use genie_core::shard::ShardPlan;
use genie_lsh::knn::{approximation_ratio, classification_report, exact_knn, l2_distance, Metric};
use genie_lsh::rbh::{mean_l1_kernel_width, RandomBinningHash};
use genie_lsh::tau_ann::{hoeffding_m, min_m_for_similarity};
use genie_lsh::transform::Transformer;
use genie_sa::edit::edit_distance;
use genie_sa::sequence::SequenceIndex;
use gpu_sim::Device;

use crate::runners::{run_app_gram, run_cpu_idx, run_gen_spq, run_gpu_spq, GenieSession};
use crate::workloads::{
    adult_bundle, dblp_bundle, ocr_bundle, sift_bundle, tweets_bundle, MatchData, Scale,
};
use crate::{ms, row};

/// The flags selecting one experiment (the first is the documented one)
/// and the function printing it.
pub type Experiment = (&'static [&'static str], fn(Scale));

/// Every experiment `repro` can regenerate.
pub const ALL: &[Experiment] = &[
    (&["--fig8"], |_| fig8()),
    (&["--fig9"], fig9),
    (&["--fig10"], fig10),
    (&["--fig11"], fig11),
    (&["--fig12"], fig12),
    (&["--fig13"], fig13),
    (&["--fig14"], fig14),
    (&["--table1"], table1),
    (&["--table2", "--table3"], table2_3),
    (&["--table4"], table4),
    (&["--table5"], table5),
    (&["--table6", "--table7"], table6_7),
    (&["--ext-structures"], ext_structures),
    (&["--ext-tau"], ext_tau),
];

/// The direct domain path the accuracy experiments measure: encode a
/// batch of typed specs with the domain adapter, run one raw
/// `search_batch` on `backend` at candidate count `k_candidates`,
/// decode each answer. (Raw-batch timing is what these tables compare;
/// the served path through `GenieDb` is property-tested identical in
/// `genie-service`.)
fn domain_search<D: genie_core::domain::Domain>(
    domain: &D,
    backend: &dyn SearchBackend,
    bindex: &genie_core::backend::BackendIndex,
    specs: &[D::QuerySpec],
    k_candidates: usize,
    k: usize,
) -> Vec<D::Response> {
    let queries: Vec<genie_core::model::Query> = specs
        .iter()
        .map(|s| domain.encode(s).expect("bench specs are valid"))
        .collect();
    let out = backend.search_batch(bindex, &queries, k_candidates);
    specs
        .iter()
        .zip(out.results.into_iter().zip(out.audit_thresholds))
        .map(|(s, (hits, at))| domain.decode(s, hits, at, k_candidates, k))
        .collect()
}

/// Number of LSH functions used by the scaled OCR/SIFT bundles (the
/// paper uses 237 from the ε = δ = 0.06 rule; 64 keeps the simulated
/// full-scan baselines tractable while preserving every comparison).
pub const SCALED_M: usize = 64;

const K: usize = 100; // the paper's default top-k

fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// Figure 8: minimum required #LSH functions vs similarity
/// (ε = δ = 0.06).
pub fn fig8() {
    header("Figure 8 — min #hash functions m vs similarity s (eps=delta=0.06)");
    println!("(Hoeffding worst case: m = {})", hoeffding_m(0.06, 0.06));
    let widths = [6, 8];
    row(&["s".into(), "m".into()], &widths);
    let mut peak = 0;
    for i in 1..20 {
        let s = i as f64 * 0.05;
        let m = min_m_for_similarity(s, 0.06, 0.06, 400).unwrap_or(400);
        peak = peak.max(m);
        row(&[format!("{s:.2}"), m.to_string()], &widths);
    }
    println!("peak m = {peak} (paper: 237, at s = 0.5)");
}

struct Fig9Row {
    queries: usize,
    genie: String,
    gen_spq: String,
    gpu_spq: String,
    cpu_idx: String,
    extra: String, // GPU-LSH / CPU-LSH / AppGram depending on dataset
}

fn fig9_dataset(
    data: &MatchData,
    query_counts: &[usize],
    gpu_spq_cap: usize,
    extra: impl Fn(usize) -> String,
) -> Vec<Fig9Row> {
    let session = GenieSession::new(data, None);
    let mut rows = Vec::new();
    for &nq in query_counts {
        let nq = nq.min(data.queries.len());
        let qs = &data.queries[..nq];
        let (_, genie_t, _) = session.run(qs, K);
        let (gen_spq_t, _) = run_gen_spq(&session, qs, K);
        let gpu_spq_s = if nq <= gpu_spq_cap {
            ms(run_gpu_spq(data, qs, K).us())
        } else {
            "-".into()
        };
        let cpu_t = run_cpu_idx(&session.index, qs, K);
        rows.push(Fig9Row {
            queries: nq,
            genie: ms(genie_t.us()),
            gen_spq: ms(gen_spq_t.us()),
            gpu_spq: gpu_spq_s,
            cpu_idx: ms(cpu_t.us()),
            extra: extra(nq),
        });
    }
    rows
}

fn print_fig9(name: &str, extra_name: &str, rows: &[Fig9Row]) {
    println!("\n--- {name}: total time (ms) vs #queries, k = {K} ---");
    let widths = [8, 10, 10, 10, 10, 10];
    row(
        &[
            "queries".into(),
            "GENIE".into(),
            "GEN-SPQ".into(),
            "GPU-SPQ".into(),
            "CPU-Idx".into(),
            extra_name.into(),
        ],
        &widths,
    );
    for r in rows {
        row(
            &[
                r.queries.to_string(),
                r.genie.clone(),
                r.gen_spq.clone(),
                r.gpu_spq.clone(),
                r.cpu_idx.clone(),
                r.extra.clone(),
            ],
            &widths,
        );
    }
}

/// Figure 9: total running time vs number of queries, five datasets.
/// (GEN-SPQ is included as it shares the axis in Fig. 13.)
pub fn fig9(scale: Scale) {
    header("Figure 9 — total running time vs #queries (five datasets)");
    let query_counts = [32usize, 64, 128, 256, 512, 1024];

    // OCR: extra column CPU-LSH
    let (ocr, ocr_points) = ocr_bundle(scale, SCALED_M, 101);
    {
        let sigma = mean_l1_kernel_width(&ocr_points.data[..200.min(ocr_points.data.len())]);
        let t = Transformer::new(
            RandomBinningHash::new(SCALED_M, ocr_points.data[0].len(), sigma, 101 ^ 0xAB),
            8192,
        );
        let cpu = CpuLsh::build(&t, &ocr_points.data, Metric::L1, 0.3);
        let rows = fig9_dataset(&ocr, &query_counts, 64, |nq| {
            let (_, us) = cpu.search(&ocr_points.queries[..nq], K);
            ms(us)
        });
        print_fig9("(a) OCR-like", "CPU-LSH", &rows);
    }

    // SIFT: extra column GPU-LSH
    let (sift, sift_points) = sift_bundle(scale, SCALED_M, 102);
    {
        let device = Device::with_defaults();
        let gl = gpu_lsh::GpuLshIndex::build(
            &device,
            &sift_points.data,
            gpu_lsh::GpuLshParams::quality_matched(),
            7,
        );
        let rows = fig9_dataset(&sift, &query_counts, 64, |nq| {
            let (_, us) = gl.search(&device, &sift_points.queries[..nq], K);
            ms(us)
        });
        print_fig9("(b) SIFT-like", "GPU-LSH", &rows);
    }

    // DBLP: extra column AppGram
    let (dblp, dblp_seqs) = dblp_bundle(scale, 103);
    {
        let ag = AppGram::build(dblp_seqs.data.clone(), dblp_seqs.ngram);
        let rows = fig9_dataset(&dblp, &query_counts, 64, |nq| {
            ms(run_app_gram(&ag, &dblp_seqs.queries[..nq], 1).us())
        });
        print_fig9("(c) DBLP-like", "AppGram", &rows);
    }

    // Tweets and Adult: no extra column
    let tweets = tweets_bundle(scale, 104);
    print_fig9(
        "(d) Tweets-like",
        "-",
        &fig9_dataset(&tweets, &query_counts, 64, |_| "-".into()),
    );
    let (adult, _) = adult_bundle(scale, 105);
    print_fig9(
        "(e) Adult-like",
        "-",
        &fig9_dataset(&adult, &query_counts, 64, |_| "-".into()),
    );
}

/// Figure 10: total running time vs data cardinality (512 queries).
pub fn fig10(scale: Scale) {
    header("Figure 10 — total running time vs cardinality (512 queries)");
    let nq = 512.min(scale.num_queries);
    let fractions = [0.25, 0.5, 0.75, 1.0];
    for (name, data) in [
        ("OCR-like", ocr_bundle(scale, SCALED_M, 111).0),
        ("SIFT-like", sift_bundle(scale, SCALED_M, 112).0),
        ("DBLP-like", dblp_bundle(scale, 113).0),
        ("Tweets-like", tweets_bundle(scale, 114)),
        ("Adult-like", adult_bundle(scale, 115).0),
    ] {
        println!("\n--- {name} ---");
        let widths = [10, 10, 10, 10];
        row(
            &[
                "n".into(),
                "GENIE".into(),
                "GEN-SPQ".into(),
                "CPU-Idx".into(),
            ],
            &widths,
        );
        for f in fractions {
            let n = (data.objects.len() as f64 * f) as usize;
            let trunc = data.truncated(n);
            let session = GenieSession::new(&trunc, None);
            let qs = &trunc.queries[..nq.min(trunc.queries.len())];
            let (_, genie_t, _) = session.run(qs, K);
            let (gs_t, _) = run_gen_spq(&session, qs, K);
            let cpu_t = run_cpu_idx(&session.index, qs, K);
            row(
                &[
                    n.to_string(),
                    ms(genie_t.us()),
                    ms(gs_t.us()),
                    ms(cpu_t.us()),
                ],
                &widths,
            );
        }
    }
}

/// Figure 11: large query batches on SIFT — GENIE (1024-query batches)
/// vs GPU-LSH (one giant batch).
pub fn fig11(scale: Scale) {
    header("Figure 11 — large #queries on SIFT-like: GENIE (1024/batch) vs GPU-LSH");
    let big = Scale {
        n: scale.n,
        num_queries: 4096,
    };
    let (sift, points) = sift_bundle(big, SCALED_M, 121);
    let session = GenieSession::new(&sift, None);
    let device = Device::with_defaults();
    let gl = gpu_lsh::GpuLshIndex::build(
        &device,
        &points.data,
        gpu_lsh::GpuLshParams::quality_matched(),
        9,
    );

    let widths = [8, 12, 12];
    row(
        &["queries".into(), "GENIE".into(), "GPU-LSH".into()],
        &widths,
    );
    for nq in [512usize, 1024, 2048, 4096] {
        // GENIE: split into 1024-query batches, sum simulated time
        let mut genie_us = 0.0;
        for chunk in sift.queries[..nq].chunks(1024) {
            let (_, t, _) = session.run(chunk, K);
            genie_us += t.us();
        }
        let (_, gl_us) = gl.search(&device, &points.queries[..nq], K);
        row(&[nq.to_string(), ms(genie_us), ms(gl_us)], &widths);
    }
}

/// Figure 12: load balance on (heavily duplicated) Adult-like data with
/// very small query batches.
pub fn fig12(scale: Scale) {
    header("Figure 12 — load balance on Adult-like data (exact-match queries)");
    // the paper duplicates Adult to 100M rows to make the long-list
    // effect visible; scale by 20x over the base workload here
    let big = Scale {
        n: scale.n * 20,
        num_queries: 16,
    };
    let (adult, _) = adult_bundle(big, 131);
    let lb = Some(LoadBalanceConfig { max_list_len: 4096 });
    let with_lb = GenieSession::new(&adult, lb);
    let without = GenieSession::new(&adult, None);
    let widths = [8, 14, 14];
    row(
        &["queries".into(), "GENIE_LB".into(), "GENIE_noLB".into()],
        &widths,
    );
    for nq in [1usize, 2, 4, 8, 16] {
        let qs = &adult.queries[..nq];
        let (_, t_lb, _) = with_lb.run(qs, K);
        let (_, t_no, _) = without.run(qs, K);
        row(&[nq.to_string(), ms(t_lb.us()), ms(t_no.us())], &widths);
    }
    println!("(paper: LB wins at small batches; the gap closes as queries saturate the device)");
}

/// Figure 13: GENIE vs GEN-SPQ (the c-PQ ablation) across datasets.
pub fn fig13(scale: Scale) {
    header("Figure 13 — effectiveness of c-PQ: GENIE vs GEN-SPQ");
    // the c-PQ advantage is the removal of SPQ's repeated full scans of
    // the n-wide Count Table; it emerges once n dwarfs the hash-table
    // footprint, so this ablation runs at 4x the base cardinality
    let scale = Scale {
        n: scale.n * 4,
        num_queries: scale.num_queries,
    };
    let query_counts = [128usize, 512, 1024];
    for (name, data) in [
        ("OCR-like", ocr_bundle(scale, SCALED_M, 141).0),
        ("SIFT-like", sift_bundle(scale, SCALED_M, 142).0),
        ("DBLP-like", dblp_bundle(scale, 143).0),
        ("Tweets-like", tweets_bundle(scale, 144)),
        ("Adult-like", adult_bundle(scale, 145).0),
    ] {
        let session = GenieSession::new(&data, None);
        println!("\n--- {name} ---");
        let widths = [8, 10, 10];
        row(
            &["queries".into(), "GENIE".into(), "GEN-SPQ".into()],
            &widths,
        );
        for &nq in &query_counts {
            let qs = &data.queries[..nq.min(data.queries.len())];
            let (_, genie_t, _) = session.run(qs, K);
            let (gs_t, _) = run_gen_spq(&session, qs, K);
            row(&[nq.to_string(), ms(genie_t.us()), ms(gs_t.us())], &widths);
        }
    }
}

/// Figure 14: approximation ratio vs k on SIFT-like data.
pub fn fig14(scale: Scale) {
    header("Figure 14 — approximation ratio vs k (SIFT-like)");
    let small = Scale {
        n: scale.n,
        num_queries: 64,
    };
    let (sift, points) = sift_bundle(small, SCALED_M, 151);
    let session = GenieSession::new(&sift, None);
    let device = Device::with_defaults();
    let gl = gpu_lsh::GpuLshIndex::build(
        &device,
        &points.data,
        gpu_lsh::GpuLshParams::quality_matched(),
        11,
    );

    let ratio = |ids: &[u32], q: &[f32], k: usize| -> f64 {
        if ids.is_empty() {
            return f64::NAN;
        }
        let truth = exact_knn(Metric::L2, &points.data, q, k);
        let mut rep: Vec<f64> = ids
            .iter()
            .map(|&id| l2_distance(&points.data[id as usize], q))
            .collect();
        rep.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let td: Vec<f64> = truth.iter().map(|&(_, d)| d).collect();
        approximation_ratio(&rep, &td)
    };

    let widths = [6, 10, 10];
    row(&["k".into(), "GENIE".into(), "GPU-LSH".into()], &widths);
    for k in [1usize, 2, 4, 8, 16, 32, 64] {
        let out = session
            .backend
            .search_batch(&session.bindex, &sift.queries, k);
        let (gl_res, _) = gl.search(&device, &points.queries, k);
        let mut g_sum = 0.0;
        let mut l_sum = 0.0;
        let mut cnt = 0;
        for (qi, q) in points.queries.iter().enumerate() {
            let g_ids: Vec<u32> = out.results[qi].iter().map(|h| h.id).collect();
            let l_ids: Vec<u32> = gl_res[qi].iter().map(|&(id, _)| id).collect();
            let (g, l) = (ratio(&g_ids, q, k), ratio(&l_ids, q, k));
            if g.is_finite() && l.is_finite() {
                g_sum += g;
                l_sum += l;
                cnt += 1;
            }
        }
        row(
            &[
                k.to_string(),
                format!("{:.3}", g_sum / cnt as f64),
                format!("{:.3}", l_sum / cnt as f64),
            ],
            &widths,
        );
    }
    println!("(paper: GENIE flat in k; GPU-LSH ratio inflated at small k)");
}

/// Table I: per-stage time profiling for 1024 queries.
pub fn table1(scale: Scale) {
    header("Table I — time profiling of GENIE stages, 1024 queries (ms)");
    let widths = [16, 10, 10, 10, 10, 10];
    row(
        &[
            "stage".into(),
            "OCR".into(),
            "SIFT".into(),
            "DBLP".into(),
            "Tweets".into(),
            "Adult".into(),
        ],
        &widths,
    );
    let mut build = vec!["build (host)".to_string()];
    let mut transfer = vec!["index xfer".to_string()];
    let mut qxfer = vec!["query xfer".to_string()];
    let mut match_ = vec!["match".to_string()];
    let mut select = vec!["select".to_string()];
    for data in [
        ocr_bundle(scale, SCALED_M, 161).0,
        sift_bundle(scale, SCALED_M, 162).0,
        dblp_bundle(scale, 163).0,
        tweets_bundle(scale, 164),
        adult_bundle(scale, 165).0,
    ] {
        let session = GenieSession::new(&data, None);
        let (_, _, profile) = session.run(&data.queries, K);
        build.push(ms(session.build_host_us));
        transfer.push(ms(session.bindex.upload_sim_us));
        qxfer.push(ms(profile.query_transfer_us));
        match_.push(ms(profile.match_us));
        select.push(ms(profile.select_us));
    }
    for r in [build, transfer, qxfer, match_, select] {
        row(&r, &widths);
    }
    println!("(paper: match dominates; transfers and select are small)");
}

/// Tables II & III: multiple loadings on a large SIFT-like set.
pub fn table2_3(scale: Scale) {
    header("Table II/III — GENIE with multiple loadings (SIFT_LARGE-like)");
    let part_n = scale.n;
    let big = Scale {
        n: scale.n * 4,
        num_queries: 1024,
    };
    let (sift, _) = sift_bundle(big, SCALED_M, 171);
    let engine = Engine::with_config(
        Arc::new(Device::with_defaults()),
        EngineConfig {
            block_dim: 256,
            count_bound: Some(sift.count_bound),
        },
    );
    let widths = [10, 10, 12, 12, 12];
    row(
        &[
            "n".into(),
            "parts".into(),
            "total".into(),
            "idx xfer".into(),
            "merge(host)".into(),
        ],
        &widths,
    );
    for parts_count in 1..=4usize {
        let n = part_n * parts_count;
        let parts = ShardPlan::build(&sift.objects[..n], parts_count, None);
        let (_, report) = multi_load_search(&engine, parts.shards(), &sift.queries, K);
        row(
            &[
                n.to_string(),
                parts_count.to_string(),
                ms(report.sim_total_us()),
                ms(report.index_transfer_us),
                ms(report.merge_host_us),
            ],
            &widths,
        );
    }
    println!("(paper: total time scales linearly with n; extra steps are a small fraction)");
}

/// Table IV: memory consumption per query — GENIE (c-PQ) vs GEN-SPQ
/// (dense Count Table). The space advantage is asymptotic in `n` (the
/// bitmap counter packs bits where the Count Table spends a 32-bit word
/// per object), so alongside the scaled measurement the analytic model
/// is evaluated at each dataset's *paper-scale* cardinality.
pub fn table4(scale: Scale) {
    use genie_core::cpq::CpqLayout;
    header("Table IV — device memory per query (KiB; paper-n columns are the analytic model)");
    let widths = [10, 12, 12, 12, 14, 14, 8];
    row(
        &[
            "dataset".into(),
            "n".into(),
            "GENIE".into(),
            "GEN-SPQ".into(),
            "paper n".into(),
            "GENIE@paper".into(),
            "ratio".into(),
        ],
        &widths,
    );
    // (dataset, scaled bundle, paper cardinality, count bound)
    let rows_spec: Vec<(MatchData, usize)> = vec![
        (ocr_bundle(scale, SCALED_M, 181).0, 3_500_000),
        (sift_bundle(scale, SCALED_M, 182).0, 4_500_000),
        (dblp_bundle(scale, 183).0, 5_000_000),
        (tweets_bundle(scale, 184), 6_800_000),
        (adult_bundle(scale, 185).0, 980_000),
    ];
    for (data, paper_n) in rows_spec {
        let session = GenieSession::new(&data, None);
        let genie_b = session.cpq_bytes_per_query(&data.queries, K);
        let (_, spq_b) = run_gen_spq(&session, &data.queries[..1], K);
        let paper_layout = CpqLayout {
            num_queries: 1,
            num_objects: paper_n,
            bound: data.count_bound,
            k: K,
        };
        let genie_paper = paper_layout.bytes_per_query();
        let spq_paper = paper_n as u64 * 4;
        row(
            &[
                data.name.into(),
                data.objects.len().to_string(),
                format!("{:.1}", genie_b as f64 / 1024.0),
                format!("{:.1}", spq_b as f64 / 1024.0),
                paper_n.to_string(),
                format!("{:.0}", genie_paper as f64 / 1024.0),
                format!("{:.1}x", spq_paper as f64 / genie_paper as f64),
            ],
            &widths,
        );
    }
    println!("(paper: GENIE uses 1/5 - 1/10 of the GEN-SPQ footprint at full cardinality;");
    println!(" at toy n the fixed-size hash table dominates, so the measured columns invert)");
}

/// Table V: 1NN classification on OCR-like data — GENIE (RBH) vs
/// GPU-LSH.
pub fn table5(scale: Scale) {
    header("Table V — OCR-like 1NN classification");
    // a deliberately hard labelled task (26 overlapping classes, heavy
    // Laplacian noise) so accuracies land below 1.0 like the paper's
    let nq = 512;
    let lp = genie_datasets::points::ocr_like_with_noise(scale.n + nq, 64, 26, 3.0, 191);
    let truth: Vec<u32> = lp.labels[scale.n..].to_vec();
    let labels: Vec<u32> = lp.labels[..scale.n].to_vec();
    let (data, queries) = genie_datasets::holdout(lp.points, nq);

    // GENIE with RBH in the Laplacian-kernel space
    let sigma = mean_l1_kernel_width(&data[..200.min(data.len())]);
    let transformer = Transformer::new(RandomBinningHash::new(SCALED_M, 64, sigma, 192), 8192);
    let mut builder = genie_core::index::IndexBuilder::new();
    for p in &data {
        builder.add_object(&transformer.to_object(&p[..]));
    }
    let engine = Engine::with_config(
        Arc::new(Device::with_defaults()),
        EngineConfig {
            block_dim: 256,
            count_bound: Some(SCALED_M as u32),
        },
    );
    let dindex = SearchBackend::upload(&engine, Arc::new(builder.build(None))).unwrap();
    let mc_queries: Vec<genie_core::model::Query> = queries
        .iter()
        .map(|q| transformer.to_query(&q[..]))
        .collect();
    let out = engine.search_batch(&dindex, &mc_queries, 1);
    let genie_pred: Vec<u32> = out
        .results
        .iter()
        .map(|hits| hits.first().map(|h| labels[h.id as usize]).unwrap_or(0))
        .collect();
    let genie_rep = classification_report(&genie_pred, &truth);

    // GPU-LSH (l2 family — the paper likewise reuses GPU-LSH although
    // the kernel space is l1, which is part of why it scores lower)
    let device = Device::with_defaults();
    let gl =
        gpu_lsh::GpuLshIndex::build(&device, &data, gpu_lsh::GpuLshParams::quality_matched(), 13);
    let (gl_res, _) = gl.search(&device, &queries, 1);
    let gl_pred: Vec<u32> = gl_res
        .iter()
        .map(|hits| {
            hits.first()
                .map(|&(id, _)| labels[id as usize])
                .unwrap_or(0)
        })
        .collect();
    let gl_rep = classification_report(&gl_pred, &truth);

    let widths = [10, 10, 10, 10, 10];
    row(
        &[
            "method".into(),
            "precision".into(),
            "recall".into(),
            "F1".into(),
            "accuracy".into(),
        ],
        &widths,
    );
    for (name, r) in [("GENIE", genie_rep), ("GPU-LSH", gl_rep)] {
        row(
            &[
                name.into(),
                format!("{:.4}", r.precision),
                format!("{:.4}", r.recall),
                format!("{:.4}", r.f1),
                format!("{:.4}", r.accuracy),
            ],
            &widths,
        );
    }
}

/// Tables VI & VII: DBLP sequence-search accuracy and latency vs
/// modification rate and candidate count K.
pub fn table6_7(scale: Scale) {
    header("Table VI — DBLP top-1 accuracy vs modification rate (K = 32)");
    let data = genie_datasets::sequences::dblp_like(scale.n, 40, 201);
    let index = SequenceIndex::build(data.clone(), 3);
    let engine = Engine::new(Arc::new(Device::with_defaults()));
    let didx = SearchBackend::upload(&engine, Arc::clone(index.inverted_index())).unwrap();
    let nq = 256;

    let accuracy_for = |queries: &[Vec<u8>], kc: usize| -> (f64, f64) {
        let started = std::time::Instant::now();
        let reports = domain_search(&index, &engine, &didx, queries, kc, 1);
        let host_us = elapsed_us(started);
        let correct = queries
            .iter()
            .zip(&reports)
            .filter(|(q, r)| match r.hits.first() {
                Some(best) => {
                    let true_best = data.iter().map(|s| edit_distance(q, s)).min().unwrap();
                    best.distance as usize == true_best
                }
                None => false,
            })
            .count();
        (correct as f64 / queries.len() as f64, host_us)
    };

    let mods = [0.1f64, 0.2, 0.3, 0.4];
    let widths = [10, 10, 12];
    row(
        &["modified".into(), "accuracy".into(), "latency(ms)".into()],
        &widths,
    );
    let mut query_sets = Vec::new();
    for (i, m) in mods.iter().enumerate() {
        let cq = genie_datasets::sequences::corrupted_queries(&data, nq, *m, 211 + i as u64);
        let (acc, us) = accuracy_for(&cq.queries, 32);
        row(&[format!("{m:.1}"), format!("{acc:.3}"), ms(us)], &widths);
        query_sets.push(cq.queries);
    }

    header("Table VII — accuracy and time vs K (query length 40)");
    let widths = [6, 8, 8, 8, 8, 12];
    row(
        &[
            "K".into(),
            "0.1".into(),
            "0.2".into(),
            "0.3".into(),
            "0.4".into(),
            "time@0.2(ms)".into(),
        ],
        &widths,
    );
    for kc in [8usize, 16, 32, 64, 128, 256] {
        let mut cells = vec![kc.to_string()];
        let mut t02 = 0.0;
        for (i, qs) in query_sets.iter().enumerate() {
            let (acc, us) = accuracy_for(qs, kc);
            cells.push(format!("{acc:.3}"));
            if i == 1 {
                t02 = us;
            }
        }
        cells.push(ms(t02));
        row(&cells, &widths);
    }
    println!("(paper: accuracy rises with K and falls with corruption; time grows mildly in K)");
}

/// Extension experiment: tree and graph similarity search through the
/// SA scheme (paper §II-B2 lists both as supported decompositions but
/// evaluates neither; this measures the reproduction's implementations
/// the same way Table VI measures sequences).
pub fn ext_structures(scale: Scale) {
    use genie_datasets::structures::{graphs_like, mutate_graph, mutate_tree, trees_like};
    use genie_sa::graph::GraphIndex;
    use genie_sa::tree::{tree_edit_distance, TreeIndex};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    header("Extension — tree & graph search accuracy/time (SA scheme, K = 32)");
    let n = scale.n.min(10_000);
    let nq = 64usize;
    let mut rng = StdRng::seed_from_u64(421);

    // trees: top-1 under tree edit distance, queries with 1..=6 relabels
    let trees = trees_like(n, 24, 12, 7);
    let tree_index = TreeIndex::build(trees.clone());
    let engine = Engine::new(Arc::new(Device::with_defaults()));
    let didx = SearchBackend::upload(&engine, Arc::clone(tree_index.inverted_index())).unwrap();
    let widths = [8, 10, 12];
    println!("\n--- trees ({n} indexed, 24 nodes each) ---");
    row(
        &["edits".into(), "accuracy".into(), "time(ms)".into()],
        &widths,
    );
    for edits in [1usize, 2, 4, 6] {
        let queries: Vec<_> = (0..nq)
            .map(|i| mutate_tree(&trees[(i * 37) % n], edits, &mut rng, 12))
            .collect();
        let started = std::time::Instant::now();
        let results = domain_search(&tree_index, &engine, &didx, &queries, 32, 1);
        let us = elapsed_us(started);
        let correct = queries
            .iter()
            .zip(&results)
            .filter(|(q, hits)| match hits.first() {
                Some(h) => {
                    let true_best = trees
                        .iter()
                        .map(|t| tree_edit_distance(q, t))
                        .min()
                        .unwrap();
                    h.distance == true_best
                }
                None => false,
            })
            .count();
        row(
            &[
                edits.to_string(),
                format!("{:.3}", correct as f64 / nq as f64),
                ms(us),
            ],
            &widths,
        );
    }

    // graphs: does the mutation source appear in the top-3 by star
    // mapping distance?
    let graphs = graphs_like(n, 16, 8, 3, 13);
    let graph_index = GraphIndex::build(graphs.clone());
    let didx = SearchBackend::upload(&engine, Arc::clone(graph_index.inverted_index())).unwrap();
    println!("\n--- graphs ({n} indexed, 16 nodes each) ---");
    row(
        &["edits".into(), "recall@3".into(), "time(ms)".into()],
        &widths,
    );
    for edits in [1usize, 2, 3, 4] {
        let sources: Vec<usize> = (0..nq).map(|i| (i * 53) % n).collect();
        let queries: Vec<_> = sources
            .iter()
            .map(|&s| mutate_graph(&graphs[s], edits, &mut rng, 8))
            .collect();
        let started = std::time::Instant::now();
        let results = domain_search(&graph_index, &engine, &didx, &queries, 32, 3);
        let us = elapsed_us(started);
        let found = sources
            .iter()
            .zip(&results)
            .filter(|(&s, hits)| hits.iter().any(|h| h.id as usize == s))
            .count();
        row(
            &[
                edits.to_string(),
                format!("{:.3}", found as f64 / nq as f64),
                ms(us),
            ],
            &widths,
        );
    }
}

/// Extension experiment: empirical τ-ANN verification (Definition 4.1 /
/// Theorem 4.2) — the fraction of queries whose returned neighbour's
/// similarity is within τ = 2ε of the true nearest neighbour's, for the
/// m implied by several ε settings.
pub fn ext_tau(scale: Scale) {
    use genie_lsh::e2lsh::{collision_probability, E2Lsh};
    use genie_lsh::knn::l2_distance;
    use genie_lsh::tau_ann::check_tau_ann;

    header("Extension — empirical tau-ANN check (Theorem 4.2)");
    let dim = 32;
    let nq = 64usize;
    let all = genie_datasets::points::sift_like(scale.n + nq, dim, 100, 431);
    let (data, queries) = genie_datasets::holdout(all, nq);
    let w = 16.0f32;

    let widths = [8, 6, 8, 14];
    row(
        &["eps".into(), "m".into(), "tau".into(), "within-tau".into()],
        &widths,
    );
    for eps in [0.20f64, 0.12, 0.08] {
        let m = genie_lsh::tau_ann::max_required_m(eps, 0.06, 2000);
        let fam = E2Lsh::new(m, dim, w, 433);
        let ann =
            genie_lsh::AnnIndex::build(Transformer::new(fam, 4096), data.iter().map(|p| &p[..]));
        let engine = Engine::new(Arc::new(Device::with_defaults()));
        let bindex = SearchBackend::upload(&engine, Arc::clone(ann.inverted_index())).unwrap();
        let answers = domain_search(&ann, &engine, &bindex, &queries, 1, 1);
        let pairs: Vec<(f64, f64)> = queries
            .iter()
            .zip(&answers)
            .map(|(q, answer)| {
                let truth = exact_knn(Metric::L2, &data, q, 1);
                let best = collision_probability(truth[0].1, w as f64);
                let got = answer
                    .hits
                    .first()
                    .map(|h| collision_probability(l2_distance(&data[h.id as usize], q), w as f64))
                    .unwrap_or(0.0);
                (best, got)
            })
            .collect();
        let tau = 2.0 * eps;
        let res = check_tau_ann(&pairs, tau);
        row(
            &[
                format!("{eps:.2}"),
                m.to_string(),
                format!("{tau:.2}"),
                format!("{:.3}", res.within_tolerance),
            ],
            &widths,
        );
    }
    println!("(Theorem 4.2 predicts within-tau >= 1 - 2*delta; delta = 0.06 here)");
}
