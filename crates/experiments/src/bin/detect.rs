//! Ad-hoc detection measurement for any configuration: run Unroller
//! with a parameter string over synthetic `(B, L)` walks and report
//! detection statistics — the Swiss-army knife behind the figures.
//!
//! ```sh
//! cargo run --release -p unroller-experiments --bin detect -- \
//!     --params b=4,z=7,th=4 --b-hops 5 --l 20 --runs 100000
//! ```

use std::str::FromStr;
use unroller_core::UnrollerParams;
use unroller_experiments::false_positives::false_positive_rate;
use unroller_experiments::sweeps::{detection_stats, SweepConfig};

fn main() {
    let mut params = UnrollerParams::default();
    let mut b_hops = 5usize;
    let mut l = 20usize;
    let mut runs = 100_000u64;
    let mut seed = 1u64;
    let mut threads = unroller_experiments::runner::default_threads();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--params" => {
                let text = value("--params", args.next());
                params = text.parse().unwrap_or_else(|e| {
                    eprintln!("detect: bad --params `{text}`: {e}");
                    std::process::exit(2);
                });
            }
            "--b-hops" => b_hops = numeric("--b-hops", args.next()),
            "--l" => l = numeric("--l", args.next()),
            "--runs" => runs = numeric("--runs", args.next()),
            "--seed" => seed = numeric("--seed", args.next()),
            "--threads" => threads = numeric("--threads", args.next()),
            "--help" | "-h" => {
                println!(
                    "usage: detect [--params b=4,z=32,c=1,h=1,th=1[,schedule=power|cumulative][,xcnt=header|ttl]]\n\
                     \x20             [--b-hops N] [--l N] [--runs N] [--seed N] [--threads N]\n\
                     runs Unroller over synthetic walks (B pre-loop hops, L-switch loop)\n\
                     and reports detection statistics; with --l 0 it reports the\n\
                     false-positive rate on a loop-free path instead"
                );
                return;
            }
            other => {
                eprintln!("detect: unknown argument `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }

    // A walk longer than the hop cap could never be detected within it;
    // the bound also caps each trial's walk allocation.
    let max_hops = 1u64 << 22;
    if b_hops.checked_add(l).is_none_or(|x| x as u64 > max_hops) {
        eprintln!("detect: --b-hops + --l must be at most {max_hops}");
        std::process::exit(2);
    }
    let cfg = SweepConfig {
        runs,
        seed,
        threads,
        max_hops,
    };
    println!("configuration: {params}");
    println!("per-packet overhead: {} bits", params.overhead_bits());

    if l == 0 {
        let rate = false_positive_rate(params, b_hops, &cfg);
        println!("loop-free path of {b_hops} hops, {runs} runs: false-positive rate {rate:.3e}");
        return;
    }

    let stats = detection_stats(params, b_hops, l, &cfg);
    let x = (b_hops + l) as f64;
    println!("workload: B = {b_hops}, L = {l} (X = {x}), {runs} runs");
    println!(
        "detected {} / {} runs ({} false positives)",
        stats.detected, stats.runs, stats.false_positives
    );
    println!(
        "mean detection: {:.2} hops = {:.3} x X",
        stats.sum_hops as f64 / stats.detected.max(1) as f64,
        stats.avg_ratio()
    );
    println!(
        "theorem 1 worst case for this instance: {:.0} hops ({:.2} x X, analysis schedule{})",
        unroller_core::bounds::worst_case_bound(params.b, b_hops as u64, l as u64),
        unroller_core::bounds::worst_case_constant(params.b),
        if params.th > 1 {
            "; Th > 1 adds roughly (Th-1)*L on top"
        } else {
            ""
        },
    );
}

/// The value after flag `name`; usage error (exit 2) when it is missing.
fn value(name: &str, arg: Option<String>) -> String {
    arg.unwrap_or_else(|| {
        eprintln!("detect: {name} requires an argument");
        std::process::exit(2);
    })
}

/// The numeric value after flag `name`; usage error (exit 2) when it is
/// missing or does not parse, as in the shared `Cli` parser.
fn numeric<T: FromStr>(name: &str, arg: Option<String>) -> T {
    arg.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("detect: {name} requires a numeric argument");
        std::process::exit(2);
    })
}
