//! Shape checks for every paper artifact at reduced run counts: the
//! qualitative claims of each figure/table must already hold at small
//! scale (who wins, directions of monotonicity, where the knees are).

use unroller_experiments::false_positives::{fig6a, fig6b};
use unroller_experiments::sweeps::{fig2, fig3, fig5a, fig5b, fig7, SweepConfig};
use unroller_experiments::table5::{sample_bl_pool, unroller_min_bits, Table5Config};
use unroller_experiments::tables::{table1_rows, table4_reports};
use unroller_topology::zoo;

fn quick() -> SweepConfig {
    SweepConfig {
        runs: 3_000,
        seed: 77,
        threads: 2,
        max_hops: 1 << 20,
    }
}

fn tiny() -> SweepConfig {
    SweepConfig {
        runs: 1_000,
        seed: 77,
        threads: 2,
        max_hops: 1 << 20,
    }
}

#[test]
fn fig2_series_ordering() {
    // At large L the b = 2 curve sits above b = 4 (Figure 2's visual).
    let mut cfg = tiny();
    cfg.runs = 2_000;
    let series = fig2(&SweepConfig {
        runs: cfg.runs,
        ..cfg
    });
    assert_eq!(series.len(), 3);
    let at = |label: &str, x: f64| {
        series
            .iter()
            .find(|s| s.label == label)
            .unwrap()
            .y_at(x)
            .unwrap()
    };
    assert!(at("b=2", 25.0) > at("b=4", 25.0));
    // Every ratio is at least 1 (X is a lower bound).
    for s in &series {
        for &(_, y) in &s.points {
            assert!(y >= 1.0);
        }
    }
}

#[test]
fn fig3_b0_is_slowest() {
    let series = fig3(&tiny());
    let at = |label: &str, x: f64| {
        series
            .iter()
            .find(|s| s.label == label)
            .unwrap()
            .y_at(x)
            .unwrap()
    };
    // Figure 3: detection time increases when B decreases.
    assert!(at("B=0", 20.0) > at("B=7", 20.0));
}

#[test]
fn fig5_more_chunks_and_hashes_help() {
    let cfg = tiny();
    let a = fig5a(&cfg);
    // H = 1: c = 8 beats c = 1.
    let h1 = a.iter().find(|s| s.label == "H=1").unwrap();
    assert!(h1.y_at(8.0).unwrap() < h1.y_at(1.0).unwrap());
    let b = fig5b(&cfg);
    // c = 1: H = 10 beats H = 1.
    let c1 = b.iter().find(|s| s.label == "c=1").unwrap();
    assert!(c1.y_at(10.0).unwrap() < c1.y_at(1.0).unwrap());
    // Paper: "the improvement is greater when increasing c than H".
    let gain_c = h1.y_at(1.0).unwrap() - h1.y_at(4.0).unwrap();
    let gain_h = c1.y_at(1.0).unwrap() - c1.y_at(4.0).unwrap();
    assert!(
        gain_c > gain_h,
        "chunk gain {gain_c} should exceed hash gain {gain_h}"
    );
}

#[test]
fn fig6_fp_decreases_with_z_and_th() {
    let cfg = quick();
    let a = fig6a(&cfg);
    let c11 = a.iter().find(|s| s.label == "c=1,H=1").unwrap();
    // FP at z = 2 far above FP at z = 14.
    assert!(c11.y_at(2.0).unwrap() > 0.5);
    assert!(c11.y_at(14.0).unwrap() < 0.05);
    // More slots ⇒ more FPs at equal z.
    let c44 = a.iter().find(|s| s.label == "c=4,H=4").unwrap();
    assert!(c44.y_at(6.0).unwrap() > c11.y_at(6.0).unwrap());

    let b = fig6b(&cfg);
    let th1 = b.iter().find(|s| s.label == "Th=1").unwrap();
    let th4 = b.iter().find(|s| s.label == "Th=4").unwrap();
    // Thresholding suppresses FPs exponentially at fixed z.
    assert!(th4.y_at(4.0).unwrap() < th1.y_at(4.0).unwrap());
}

#[test]
fn fig7_threshold_slows_detection() {
    let series = fig7(&tiny());
    let at = |label: &str, x: f64| {
        series
            .iter()
            .find(|s| s.label == label)
            .unwrap()
            .y_at(x)
            .unwrap()
    };
    assert!(at("Th=4", 20.0) > at("Th=2", 20.0));
    assert!(at("Th=2", 20.0) > at("Th=1", 20.0));
}

#[test]
fn table5_unroller_beats_bloom_on_geant() {
    let cfg = Table5Config {
        runs: 2_000,
        scenario_pool: 256,
        seed: 5,
        threads: 2,
    };
    let topo = zoo::geant();
    let pool = sample_bl_pool(&topo, cfg.scenario_pool, cfg.seed);
    let unroller = unroller_min_bits(&pool, &cfg);
    let bloom = unroller_experiments::table5::bloom_min_bits(&pool, &cfg);
    assert!(
        unroller * 2 < bloom,
        "expected a clear gap: unroller {unroller} bits vs bloom {bloom} bits"
    );
    assert!(unroller <= 40, "8-bit Xcnt + at most 32-bit hash");
}

#[test]
fn table1_and_table4_render() {
    assert_eq!(table1_rows().len(), 10);
    let reports = table4_reports();
    assert!(reports.iter().all(|r| r.header_bits >= 9));
}

#[test]
fn bounds_constants_are_papers() {
    use unroller::core::bounds;
    assert!((bounds::worst_case_constant(4) - 4.6667).abs() < 1e-3);
    assert!((bounds::chunked_constant(7, 2) - 4.3333).abs() < 1e-3);
    assert!((bounds::LOWER_BOUND_CONSTANT - 3.7321).abs() < 1e-3);
}

#[test]
fn detect_rejects_bad_numbers_without_panicking() {
    // Outside input never panics: a malformed or out-of-range number is
    // a usage error (exit 2 with a message), as in every other
    // experiment binary.
    for (args, message) in [
        (
            ["--runs", "abc"],
            "detect: --runs requires a numeric argument",
        ),
        (
            ["--b-hops", "18446744073709551615"],
            "detect: --b-hops + --l must be at most 4194304",
        ),
    ] {
        let out = std::process::Command::new(env!("CARGO"))
            .args(["run", "--quiet", "--offline", "-p", "unroller-experiments"])
            .args(["--bin", "detect", "--"])
            .args(args)
            .output()
            .expect("cargo runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
