//! False-positive measurements — Figure 6.
//!
//! The workload is a loop-free path of 20 hops (`B = 20`, `L = 0`): any
//! report is a false positive by construction. Figure 6(a) varies the
//! hash width `z` for `(c, H) ∈ {(1,1), (2,2), (4,4)}`; Figure 6(b)
//! varies `z` for thresholds `Th ∈ {1, 2, 4}`.

use crate::report::Series;
use crate::runner::{parallel_fold, TrialAccumulator, TrialBlock};
use crate::sweeps::SweepConfig;
use unroller_core::{Unroller, UnrollerParams, UnrollerState};

/// The Figure 6 path length ("a path length of 20 hops, with B = 20 and
/// L = 0").
pub const FP_PATH_LEN: usize = 20;

/// The false-positive probability of a configuration on a loop-free
/// `path_len`-hop path.
pub fn false_positive_rate(params: UnrollerParams, path_len: usize, cfg: &SweepConfig) -> f64 {
    false_positive_stats(params, path_len, cfg).fp_rate()
}

/// The trial statistics behind [`false_positive_rate`]: every report on
/// the loop-free path counts as a false positive.
pub fn false_positive_stats(
    params: UnrollerParams,
    path_len: usize,
    cfg: &SweepConfig,
) -> TrialAccumulator {
    let det = Unroller::from_params(params).expect("valid parameters");
    let block: TrialBlock<UnrollerState> = parallel_fold(
        cfg.runs,
        cfg.seed
            ^ 0xfa15e
            ^ ((params.z as u64) << 40)
            ^ ((params.th as u64) << 48)
            ^ ((params.c as u64) << 52)
            ^ ((params.h as u64) << 56),
        cfg.threads,
        |_, rng, block: &mut TrialBlock<UnrollerState>| {
            block.run(&det, path_len, 0, path_len as u64 + 1, rng);
        },
        TrialBlock::merge,
    );
    block.stats
}

/// The z values Figure 6 sweeps.
pub fn z_values() -> Vec<u32> {
    (1..=18).collect()
}

/// Figure 6(a): false positives vs `z` for
/// `(c, H) ∈ {(1,1), (2,2), (4,4)}`.
pub fn fig6a(cfg: &SweepConfig) -> Vec<Series> {
    [(1u32, 1u32), (2, 2), (4, 4)]
        .iter()
        .map(|&(c, h)| {
            let mut s = Series::new(format!("c={c},H={h}"));
            for z in z_values() {
                let params = UnrollerParams::default().with_c(c).with_h(h).with_z(z);
                s.points
                    .push((z as f64, false_positive_rate(params, FP_PATH_LEN, cfg)));
            }
            s
        })
        .collect()
}

/// Figure 6(b): false positives vs `z` for `Th ∈ {1, 2, 4}`
/// (`c = H = 1`).
pub fn fig6b(cfg: &SweepConfig) -> Vec<Series> {
    [1u32, 2, 4]
        .iter()
        .map(|&th| {
            let mut s = Series::new(format!("Th={th}"));
            for z in z_values() {
                let params = UnrollerParams::default().with_th(th).with_z(z);
                s.points
                    .push((z as f64, false_positive_rate(params, FP_PATH_LEN, cfg)));
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
            runs: 20_000,
            seed: 5,
            threads: 2,
            max_hops: 1_000,
        }
    }

    #[test]
    fn full_width_ids_never_false_positive() {
        let rate = false_positive_rate(UnrollerParams::default(), FP_PATH_LEN, &quick());
        assert_eq!(rate, 0.0);
    }

    #[test]
    fn fp_rate_decreases_with_z() {
        let cfg = quick();
        let r4 = false_positive_rate(UnrollerParams::default().with_z(4), FP_PATH_LEN, &cfg);
        let r10 = false_positive_rate(UnrollerParams::default().with_z(10), FP_PATH_LEN, &cfg);
        assert!(r4 > r10, "z=4 rate {r4} should exceed z=10 rate {r10}");
        assert!(r4 > 0.05, "z=4 should collide frequently, got {r4}");
    }

    #[test]
    fn threshold_suppresses_false_positives() {
        // Figure 6(b): raising Th reduces FP exponentially.
        let cfg = quick();
        let z = 4u32;
        let t1 = false_positive_rate(UnrollerParams::default().with_z(z), FP_PATH_LEN, &cfg);
        let t4 = false_positive_rate(
            UnrollerParams::default().with_z(z).with_th(4),
            FP_PATH_LEN,
            &cfg,
        );
        assert!(t4 < t1 / 2.0, "Th=4 rate {t4} vs Th=1 rate {t1}");
    }

    #[test]
    fn more_slots_increase_false_positives() {
        // Figure 6(a): storing more hashed identifiers (c, H > 1) raises
        // the collision surface at fixed z.
        let cfg = quick();
        let z = 6u32;
        let small = false_positive_rate(UnrollerParams::default().with_z(z), FP_PATH_LEN, &cfg);
        let large = false_positive_rate(
            UnrollerParams::default().with_z(z).with_c(4).with_h(4),
            FP_PATH_LEN,
            &cfg,
        );
        assert!(
            large > small,
            "c=H=4 rate {large} should exceed c=H=1 rate {small}"
        );
    }

    #[test]
    fn paper_operating_point_is_low_fp() {
        // §3.3: "on a path of length 20 hops, with Th = 4, z = 7, and
        // b = 4, the chance of false positives is lower than 10⁻⁵".
        // At test-scale run counts we just confirm it is very small.
        let params = UnrollerParams::default().with_z(7).with_th(4);
        let rate = false_positive_rate(params, FP_PATH_LEN, &quick());
        assert!(rate < 5e-4, "rate {rate} too high for the paper's example");
    }
}
