//! Table 5: Unroller vs PathDump vs Bloom filter on real topologies.
//!
//! Methodology (paper §5): per run, pick a uniform random node pair,
//! take a shortest path, pick a random loop intersecting it, and measure
//! (a) the minimum per-packet bits each scheme needs so that **no false
//! positive occurs over all runs**, and (b) Unroller's average detection
//! time `hops / X`.
//!
//! Implementation notes:
//!
//! * Scenario geometry and identifier randomness separate cleanly: given
//!   a sampled `(B, L)` pair, the packet's walk with fresh random IDs is
//!   distributed exactly like
//!   [`Walk::random`](unroller_core::Walk::random)`(B, L)` (pre-loop and
//!   cycle nodes are disjoint and off-walk nodes are never observed). We
//!   therefore pre-sample a pool of `(B, L)` pairs per topology and draw
//!   fresh identifiers every run, matching the paper's 3M-run protocol
//!   at a fraction of the cost.
//! * The zero-false-positive bit minimum depends on the run count (more
//!   runs expose rarer collisions); `EXPERIMENTS.md` reports both the
//!   default and `--paper` settings.

use crate::runner::{parallel_fold, TrialBlock};
use crate::sweeps::{detection_stats, SweepConfig};
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use unroller_baselines::BloomFilterDetector;
use unroller_core::{InPacketDetector, Unroller, UnrollerParams};
use unroller_topology::loops::sample_scenario;
use unroller_topology::zoo::{table5_topologies, Topology};

/// Table 5 settings.
#[derive(Debug, Clone, Copy)]
pub struct Table5Config {
    /// Runs per measurement (the paper uses 3M).
    pub runs: u64,
    /// Size of the pre-sampled `(B, L)` scenario pool per topology.
    pub scenario_pool: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl Default for Table5Config {
    fn default() -> Self {
        Table5Config {
            runs: 20_000,
            scenario_pool: 2_048,
            seed: 7,
            threads: crate::runner::default_threads(),
        }
    }
}

/// One row of Table 5.
#[derive(Debug, Clone, PartialEq)]
pub struct Table5Row {
    /// Topology name.
    pub name: &'static str,
    /// Node count.
    pub nodes: usize,
    /// Diameter.
    pub diameter: usize,
    /// PathDump overhead: `Some(64)` where applicable, `None` (the
    /// paper's "×") elsewhere.
    pub pathdump_bits: Option<u64>,
    /// Minimum Bloom-filter bits with zero observed false positives.
    pub bloom_bits: u64,
    /// Unroller average detection time (`hops / X`).
    pub unroller_avg_time: f64,
    /// Minimum Unroller bits (8-bit `Xcnt` + minimal `z`) with zero
    /// observed false positives.
    pub unroller_bits: u64,
}

/// Samples a pool of `(B, L)` scenario geometries from a topology.
pub fn sample_bl_pool(topo: &Topology, count: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x7ab1e5);
    let max_loop = topo.graph.node_count();
    let mut pool = Vec::with_capacity(count);
    while pool.len() < count {
        if let Some(s) = sample_scenario(&topo.graph, max_loop, 500, &mut rng) {
            pool.push((s.b(), s.l()));
        } else {
            // Extremely defensive: every evaluation topology contains
            // loops (ping-pongs at minimum), so sampling cannot starve.
            break;
        }
    }
    assert!(!pool.is_empty(), "no loop scenario found on {}", topo.name);
    pool
}

/// True if `detector` raises any false positive (a report before the
/// first genuine revisit) over `runs` walks drawn from the scenario
/// pool. Exits early on the first hit.
pub fn any_false_positive<D>(
    detector: &D,
    pool: &[(usize, usize)],
    runs: u64,
    seed: u64,
    threads: usize,
) -> bool
where
    D: InPacketDetector + Sync,
    D::State: Send,
{
    let found = AtomicBool::new(false);
    let _: TrialBlock<D::State> = parallel_fold(
        runs,
        seed,
        threads,
        |t, rng, block: &mut TrialBlock<D::State>| {
            if found.load(Ordering::Relaxed) {
                return;
            }
            let (b, l) = pool[(t % pool.len() as u64) as usize];
            if block.run(detector, b, l, 1 << 22, rng).false_positive() {
                found.store(true, Ordering::Relaxed);
            }
        },
        |a, _| a,
    );
    found.load(Ordering::Relaxed)
}

/// Minimum `z` (hash bits) for which Unroller shows zero false positives
/// over the configured runs; total bits add the 8-bit `Xcnt`.
pub fn unroller_min_bits(pool: &[(usize, usize)], cfg: &Table5Config) -> u64 {
    for z in 1..=32u32 {
        let det = Unroller::from_params(UnrollerParams::default().with_z(z)).expect("valid params");
        if !any_false_positive(
            &det,
            pool,
            cfg.runs,
            cfg.seed ^ (z as u64) << 8,
            cfg.threads,
        ) {
            return 8 + z as u64;
        }
    }
    8 + 32
}

/// Minimum Bloom-filter size (bits) with zero false positives over the
/// configured runs. Doubling search followed by binary refinement.
pub fn bloom_min_bits(pool: &[(usize, usize)], cfg: &Table5Config) -> u64 {
    let mean_x: f64 = pool.iter().map(|&(b, l)| (b + l) as f64).sum::<f64>() / pool.len() as f64;
    let expected = mean_x.ceil() as u32 + 1;
    let clean = |m: u32| {
        let det = BloomFilterDetector::with_optimal_k(m, expected, cfg.seed ^ 0xb100f);
        !any_false_positive(
            &det,
            pool,
            cfg.runs,
            cfg.seed ^ (m as u64) << 16,
            cfg.threads,
        )
    };
    // Doubling phase.
    let mut hi = 16u32;
    while !clean(hi) {
        hi *= 2;
        if hi > 1 << 20 {
            return hi as u64; // give up growing; implausible in practice
        }
    }
    // Binary refinement in (hi/2, hi].
    let mut lo = hi / 2; // known dirty (or untested 8 — treat as dirty)
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if clean(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi as u64
}

/// Unroller's average detection time over the pool with the default
/// configuration (`b = 4`, full IDs).
pub fn unroller_avg_time(pool: &[(usize, usize)], cfg: &Table5Config) -> f64 {
    // Weight each pool entry equally with runs/|pool| runs.
    let sweep = SweepConfig {
        runs: (cfg.runs / pool.len() as u64).max(8),
        seed: cfg.seed ^ 0xa59,
        threads: cfg.threads,
        max_hops: 1 << 22,
    };
    let mut total = 0.0;
    for &(b, l) in pool {
        total += detection_stats(UnrollerParams::default(), b, l, &sweep).avg_ratio();
    }
    total / pool.len() as f64
}

/// Computes one Table 5 row.
pub fn table5_row(topo: &Topology, cfg: &Table5Config) -> Table5Row {
    let pool = sample_bl_pool(topo, cfg.scenario_pool, cfg.seed);
    Table5Row {
        name: topo.name,
        nodes: topo.graph.node_count(),
        diameter: topo.graph.diameter(),
        pathdump_bits: topo.layers.as_ref().map(|_| 64),
        bloom_bits: bloom_min_bits(&pool, cfg),
        unroller_avg_time: unroller_avg_time(&pool, cfg),
        unroller_bits: unroller_min_bits(&pool, cfg),
    }
}

/// Computes the full table over all six evaluation topologies.
pub fn run_table5(cfg: &Table5Config) -> Vec<Table5Row> {
    table5_topologies()
        .iter()
        .map(|t| table5_row(t, cfg))
        .collect()
}

/// Renders the table in the paper's row format.
pub fn render(rows: &[Table5Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>6} {:>9} {:>14} {:>12} {:>14} {:>14}",
        "Topology", "Nodes", "Diameter", "PathDump(b)", "Bloom(b)", "UnrollerAvgT", "Unroller(b)"
    );
    for r in rows {
        let pd = r
            .pathdump_bits
            .map(|b| b.to_string())
            .unwrap_or_else(|| "x".into());
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>9} {:>14} {:>12} {:>14.2} {:>14}",
            r.name, r.nodes, r.diameter, pd, r.bloom_bits, r.unroller_avg_time, r.unroller_bits
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use unroller_topology::zoo;

    fn quick() -> Table5Config {
        Table5Config {
            runs: 2_000,
            scenario_pool: 128,
            seed: 3,
            threads: 2,
        }
    }

    #[test]
    fn pool_geometry_within_topology_limits() {
        let topo = zoo::geant();
        let pool = sample_bl_pool(&topo, 200, 1);
        assert_eq!(pool.len(), 200);
        for &(b, l) in &pool {
            assert!(l >= 2, "loops have at least 2 switches");
            assert!(b + l <= 2 * topo.graph.node_count());
            assert!(
                b <= topo.graph.diameter(),
                "pre-loop part of a shortest path"
            );
        }
    }

    #[test]
    fn fattree_row_matches_paper_structure() {
        let cfg = quick();
        let row = table5_row(&zoo::fattree4(), &cfg);
        assert_eq!(row.nodes, 20);
        assert_eq!(row.diameter, 4);
        assert_eq!(row.pathdump_bits, Some(64), "PathDump applies to FatTree");
        assert!(
            row.unroller_bits < row.bloom_bits,
            "Unroller must beat Bloom"
        );
        assert!(row.unroller_avg_time >= 1.0 && row.unroller_avg_time <= 3.5);
    }

    #[test]
    fn wan_rows_have_no_pathdump() {
        let cfg = quick();
        let row = table5_row(&zoo::stanford(), &cfg);
        assert_eq!(row.pathdump_bits, None, "PathDump inapplicable to WANs");
        assert!(row.unroller_bits <= 40);
        assert!(row.bloom_bits >= 32);
    }

    #[test]
    fn unroller_needs_fewer_bits_on_every_topology() {
        // The headline claim: 6x–100x fewer bits than the Bloom filter.
        // At reduced run counts the gap is smaller but must exist.
        let cfg = quick();
        for topo in [zoo::stanford(), zoo::fattree4()] {
            let row = table5_row(&topo, &cfg);
            assert!(
                (row.unroller_bits as f64) < row.bloom_bits as f64,
                "{}: unroller {} vs bloom {}",
                row.name,
                row.unroller_bits,
                row.bloom_bits
            );
        }
    }

    #[test]
    fn render_lists_all_rows() {
        let rows = vec![Table5Row {
            name: "GEANT",
            nodes: 40,
            diameter: 8,
            pathdump_bits: None,
            bloom_bits: 608,
            unroller_avg_time: 2.13,
            unroller_bits: 27,
        }];
        let s = render(&rows);
        assert!(s.contains("GEANT"));
        assert!(s.contains("608"));
        assert!(s.contains('x'));
    }
}
