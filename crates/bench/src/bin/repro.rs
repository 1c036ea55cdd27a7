//! `repro` — regenerate the paper's tables and figures, and record or
//! check the `BENCH_*.json` baselines.
//!
//! ```text
//! repro --all                    # everything (a few minutes)
//! repro --fig9 --table1          # selected experiments
//! repro --quick --all            # smaller workloads (~1 minute)
//! repro --cpu-kernel --check     # perf-regression gate vs baseline
//! repro --durability --smoke --check  # CI gate + baseline audit
//! repro --cpu-kernel --placement --durability  # re-record all three
//! ```
//!
//! `--check` flips every selected bench from *recording* its baseline
//! to *gating against* it, and the process exits nonzero if any gate is
//! red (see the `genie_bench` crate docs for what a bench records and
//! gates, and where). Setting `GENIE_BENCH_INJECT_REGRESSION=1` spins
//! inside the timed kernel loops; CI runs the gate once with it set and
//! asserts failure, so the band can never silently widen past a real
//! regression.

use genie_bench::experiments as exp;
use genie_bench::harness;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let invocation = harness::parse_args(&args).unwrap_or_else(|problem| {
        eprintln!("repro: {problem}\n{}", harness::usage());
        std::process::exit(2);
    });
    let scale = invocation.scale();

    println!("GENIE evaluation reproduction (scaled synthetic workloads)");
    println!(
        "scale: n = {}, query pool = {}, m = {} hash functions",
        scale.n,
        scale.num_queries,
        exp::SCALED_M
    );

    for (flags, experiment) in exp::ALL {
        if invocation.has("--all") || flags.iter().any(|flag| invocation.has(flag)) {
            experiment(scale);
        }
    }
    // a single red gate or refused recording turns the whole invocation
    // red, but every selected bench still runs and leaves its report
    let mut all_passed = true;
    for bench in harness::REGISTRY {
        if let Some(ctx) = invocation.ctx_for(bench) {
            all_passed &= harness::run(bench, &ctx);
        }
    }
    if !all_passed {
        eprintln!(
            "repro FAILED: a recording was refused (see above) or a perf-regression gate is \
             red — see CHECK_*.json for the banded verdicts"
        );
        std::process::exit(1);
    }
}
