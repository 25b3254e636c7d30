//! Average-detection-time parameter sweeps — Figures 2, 3, 4, 5 and 7.
//!
//! The workload is the paper's synthetic generator (§5): a walk of `B`
//! pre-loop hops into an `L`-switch loop with fresh uniform 32-bit
//! identifiers per run; the metric is the mean `hops / X` until the loop
//! is reported. Defaults mirror the paper: `b = 4`, `z = 32`,
//! `c = H = Th = 1`, `B = 5`, `L = 20` unless the figure varies them.

use crate::report::Series;
use crate::runner::{parallel_fold, TrialAccumulator, TrialBlock};
use unroller_core::{Unroller, UnrollerParams, UnrollerState};

/// Shared sweep settings.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Independent runs per data point (the paper uses 3M).
    pub runs: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Safety cap on hops per run.
    pub max_hops: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            runs: 100_000,
            seed: 1,
            threads: crate::runner::default_threads(),
            max_hops: 1_000_000,
        }
    }
}

/// Measures detection statistics for one `(params, B, L)` point.
pub fn detection_stats(
    params: UnrollerParams,
    b_hops: usize,
    l: usize,
    cfg: &SweepConfig,
) -> TrialAccumulator {
    let det = Unroller::from_params(params).expect("valid sweep parameters");
    let block: TrialBlock<UnrollerState> = parallel_fold(
        cfg.runs,
        cfg.seed ^ ((b_hops as u64) << 32) ^ l as u64 ^ params_fingerprint(&params),
        cfg.threads,
        |_, rng, block: &mut TrialBlock<UnrollerState>| {
            block.run(&det, b_hops, l, cfg.max_hops, rng);
        },
        TrialBlock::merge,
    );
    block.stats
}

/// Mean `hops / X` for one point (the y axis of Figures 2–5 and 7).
pub fn avg_detection_ratio(
    params: UnrollerParams,
    b_hops: usize,
    l: usize,
    cfg: &SweepConfig,
) -> f64 {
    detection_stats(params, b_hops, l, cfg).avg_ratio()
}

fn params_fingerprint(p: &UnrollerParams) -> u64 {
    (p.b as u64) | (p.z as u64) << 8 | (p.c as u64) << 16 | (p.h as u64) << 24 | (p.th as u64) << 32
}

/// The loop lengths the L-sweep figures sample.
pub fn l_values() -> Vec<usize> {
    (1..=30).collect()
}

/// Figure 2: average time vs `L` for `b ∈ {2, 4, 6}` (`B = 5`).
pub fn fig2(cfg: &SweepConfig) -> Vec<Series> {
    [2u32, 4, 6]
        .iter()
        .map(|&b| {
            let params = UnrollerParams::default().with_b(b);
            let mut s = Series::new(format!("b={b}"));
            for l in l_values() {
                s.points
                    .push((l as f64, avg_detection_ratio(params, 5, l, cfg)));
            }
            s
        })
        .collect()
}

/// Figure 3: average time vs `L` for `B ∈ {0, 3, 7}` (`b = 4`).
pub fn fig3(cfg: &SweepConfig) -> Vec<Series> {
    [0usize, 3, 7]
        .iter()
        .map(|&b_hops| {
            let params = UnrollerParams::default();
            let mut s = Series::new(format!("B={b_hops}"));
            for l in l_values() {
                s.points
                    .push((l as f64, avg_detection_ratio(params, b_hops, l, cfg)));
            }
            s
        })
        .collect()
}

/// Figure 4: average time vs `L` for `(c, H) ∈ {(1,1), (2,2), (4,4)}`
/// (`b = 4`, `B = 5`).
pub fn fig4(cfg: &SweepConfig) -> Vec<Series> {
    [(1u32, 1u32), (2, 2), (4, 4)]
        .iter()
        .map(|&(c, h)| {
            let params = UnrollerParams::default().with_c(c).with_h(h);
            let mut s = Series::new(format!("c={c},H={h}"));
            for l in l_values() {
                s.points
                    .push((l as f64, avg_detection_ratio(params, 5, l, cfg)));
            }
            s
        })
        .collect()
}

/// Figure 5(a): average time vs `c` for `H ∈ {1, 2, 4}`
/// (`b = 4`, `B = 5`, `L = 20`).
pub fn fig5a(cfg: &SweepConfig) -> Vec<Series> {
    [1u32, 2, 4]
        .iter()
        .map(|&h| {
            let mut s = Series::new(format!("H={h}"));
            for c in 1..=8u32 {
                let params = UnrollerParams::default().with_c(c).with_h(h);
                s.points
                    .push((c as f64, avg_detection_ratio(params, 5, 20, cfg)));
            }
            s
        })
        .collect()
}

/// Figure 5(b): average time vs `H` for `c ∈ {1, 2, 4}`
/// (`b = 4`, `B = 5`, `L = 20`).
pub fn fig5b(cfg: &SweepConfig) -> Vec<Series> {
    [1u32, 2, 4]
        .iter()
        .map(|&c| {
            let mut s = Series::new(format!("c={c}"));
            for h in 1..=10u32 {
                let params = UnrollerParams::default().with_c(c).with_h(h);
                s.points
                    .push((h as f64, avg_detection_ratio(params, 5, 20, cfg)));
            }
            s
        })
        .collect()
}

/// Figure 7: average time vs `L` for `Th ∈ {1, 2, 4}`
/// (`b = 4`, `B = 5`, `z = 32`).
pub fn fig7(cfg: &SweepConfig) -> Vec<Series> {
    [1u32, 2, 4]
        .iter()
        .map(|&th| {
            let params = UnrollerParams::default().with_th(th);
            let mut s = Series::new(format!("Th={th}"));
            for l in l_values() {
                s.points
                    .push((l as f64, avg_detection_ratio(params, 5, l, cfg)));
            }
            s
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SweepConfig {
        SweepConfig {
            runs: 4_000,
            seed: 9,
            threads: 2,
            max_hops: 100_000,
        }
    }

    #[test]
    fn ratio_at_least_one() {
        let r = avg_detection_ratio(UnrollerParams::default(), 5, 20, &quick());
        assert!((1.0..5.0).contains(&r), "ratio {r}");
    }

    #[test]
    fn fig2_shape_smaller_b_is_slower() {
        // Figure 2: smaller b resets more aggressively → slower detection
        // at the default point (B = 5, L = 20).
        let cfg = quick();
        let r2 = avg_detection_ratio(UnrollerParams::default().with_b(2), 5, 20, &cfg);
        let r4 = avg_detection_ratio(UnrollerParams::default().with_b(4), 5, 20, &cfg);
        assert!(r2 > r4, "b=2 ({r2}) should be slower than b=4 ({r4})");
    }

    #[test]
    fn fig3_shape_smaller_b_hops_is_slower() {
        // Figure 3: "the average detection time increases when B
        // decreases" (the resetting-interval effect).
        let cfg = quick();
        let r0 = avg_detection_ratio(UnrollerParams::default(), 0, 20, &cfg);
        let r7 = avg_detection_ratio(UnrollerParams::default(), 7, 20, &cfg);
        assert!(r0 > r7, "B=0 ({r0}) should be slower than B=7 ({r7})");
    }

    #[test]
    fn fig4_shape_chunks_and_hashes_help() {
        let cfg = quick();
        let r11 = avg_detection_ratio(UnrollerParams::default(), 5, 20, &cfg);
        let r44 = avg_detection_ratio(UnrollerParams::default().with_c(4).with_h(4), 5, 20, &cfg);
        assert!(r44 < r11, "c=H=4 ({r44}) should beat c=H=1 ({r11})");
    }

    #[test]
    fn deterministic_given_seed_and_threads() {
        let cfg = quick();
        let a = avg_detection_ratio(UnrollerParams::default(), 5, 10, &cfg);
        let b = avg_detection_ratio(UnrollerParams::default(), 5, 10, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn all_runs_detect() {
        let stats = detection_stats(UnrollerParams::default(), 5, 20, &quick());
        assert_eq!(stats.runs, stats.detected, "z = 32 never misses a loop");
        assert_eq!(stats.false_positives, 0);
    }

    /// The statistics of five fixed points, pinned bit for bit:
    /// `(runs, detected, false_positives, sum_hops, sum_ratio bits)`.
    /// The values were recorded from the detector's per-hop rule before
    /// any optimisation of the trial path (walk draws, the update step,
    /// block scheduling); a faster kernel must reproduce them exactly,
    /// at any thread count. Do not re-record them to make a change pass.
    #[test]
    fn pinned_statistics_are_bit_identical() {
        use unroller_core::PhaseSchedule;
        type Pinned = (u64, u64, u64, u64, u64);
        let pin = |a: TrialAccumulator| -> Pinned {
            (
                a.runs,
                a.detected,
                a.false_positives,
                a.sum_hops,
                a.sum_ratio.to_bits(),
            )
        };
        let default = UnrollerParams::default();
        let points: [(&str, UnrollerParams, Pinned); 4] = [
            (
                "default",
                default,
                (5000, 5000, 0, 227889, 4666236946435308262),
            ),
            (
                "z=7,th=4",
                default.with_z(7).with_th(4),
                (5000, 5000, 1, 571366, 4672011449562992472),
            ),
            (
                "c=3,h=2",
                default.with_c(3).with_h(2),
                (5000, 5000, 0, 144477, 4663076180358940597),
            ),
            (
                "b=2,schedule=cumulative",
                default
                    .with_b(2)
                    .with_schedule(PhaseSchedule::CumulativeGeometric),
                (5000, 5000, 0, 342439, 4668755927574543068),
            ),
        ];
        for threads in [1, 2] {
            let cfg = SweepConfig {
                runs: 5_000,
                seed: 11,
                threads,
                max_hops: 1_000_000,
            };
            for (name, params, want) in points {
                let got = pin(detection_stats(params, 5, 20, &cfg));
                assert_eq!(got, want, "{name} (B=5, L=20), threads={threads}");
            }
            let fp = crate::false_positives::false_positive_stats(
                default.with_z(4),
                crate::false_positives::FP_PATH_LEN,
                &cfg,
            );
            assert_eq!(
                pin(fp),
                (5000, 3586, 3586, 32280, 4654813262515273723),
                "false positives at z=4, threads={threads}"
            );
        }
    }
}
