//! Parallel trial execution.
//!
//! Every evaluation point in the paper aggregates millions of
//! independent runs ("each data point reflects 3M runs"). The runner
//! folds trials in fixed-size *blocks*: each block of [`RNG_BLOCK`]
//! consecutive trial indices owns an RNG derived from `(seed, block)`
//! alone, and block accumulators are always merged in ascending block
//! order. Threads only decide *who computes* a block, never which RNG
//! stream it sees or where its result lands in the merge sequence — so
//! results are bit-identical for a given seed across any thread count,
//! floating-point sums included.

use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use unroller_core::walk::run_detector_with;
use unroller_core::{DetectionOutcome, InPacketDetector, Walk};

/// Trials per RNG block. Every block of this many consecutive trial
/// indices draws from its own `(seed, block)`-derived stream, making
/// the trial → randomness mapping independent of how blocks are
/// scheduled onto threads.
pub const RNG_BLOCK: u64 = 1024;

/// Number of worker threads to use (the machine's available
/// parallelism).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// The RNG for one trial block: a SplitMix64 finalizer over
/// `(seed, block)` decorrelates adjacent blocks before seeding.
fn block_rng(seed: u64, block: u64) -> rand::rngs::StdRng {
    let mut x = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(block.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    rand::rngs::StdRng::seed_from_u64(x)
}

/// Runs `trials` independent trials, folding each [`RNG_BLOCK`]-sized
/// block locally with `fold` into an accumulator and merging block
/// accumulators with `merge` in ascending block order.
///
/// `fold` receives the global trial index and the block's RNG. Both the
/// RNG stream a trial sees and the merge order are functions of the
/// trial index alone, so for a fixed `seed` the result is bit-identical
/// whatever `threads` is — merge-order-sensitive accumulators (f64
/// sums) included.
pub fn parallel_fold<A, Fold, Merge>(
    trials: u64,
    seed: u64,
    threads: usize,
    fold: Fold,
    merge: Merge,
) -> A
where
    A: Default + Send,
    Fold: Fn(u64, &mut rand::rngs::StdRng, &mut A) + Sync,
    Merge: Fn(A, A) -> A,
{
    let threads = threads.clamp(1, 256);
    let blocks = trials.div_ceil(RNG_BLOCK);
    let run_block = |block: u64| -> A {
        let lo = block * RNG_BLOCK;
        let hi = (lo + RNG_BLOCK).min(trials);
        let mut rng = block_rng(seed, block);
        let mut acc = A::default();
        for t in lo..hi {
            fold(t, &mut rng, &mut acc);
        }
        acc
    };
    if threads == 1 || blocks <= 1 {
        return (0..blocks).map(run_block).fold(A::default(), &merge);
    }
    // Threads pull the next unclaimed block until none are left, so a
    // thread that stalls holds up one block, not a fixed share of them.
    // The counter publishes no data (`Relaxed`); block results travel
    // back through `join` and are reassembled in ascending block order
    // before merging, so the merge sequence (and with it every float
    // sum) matches the sequential path exactly.
    let next = AtomicU64::new(0);
    let workers = threads.min(blocks as usize);
    let mut done: Vec<(u64, A)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let block = next.fetch_add(1, Ordering::Relaxed);
                        if block >= blocks {
                            break done;
                        }
                        done.push((block, run_block(block)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("no worker panicked"))
            .collect()
    });
    done.sort_unstable_by_key(|&(block, _)| block);
    done.into_iter()
        .map(|(_, acc)| acc)
        .fold(A::default(), merge)
}

/// A block's accumulator for detector trials: the statistics, plus one
/// walk (redrawn in place for every trial) and one detector state (reset
/// for every trial), so a trial loop allocates nothing after its block's
/// first trial.
pub(crate) struct TrialBlock<S> {
    pub(crate) stats: TrialAccumulator,
    walk: Walk,
    state: Option<S>,
}

impl<S> Default for TrialBlock<S> {
    fn default() -> Self {
        TrialBlock {
            stats: TrialAccumulator::default(),
            walk: Walk::default(),
            state: None,
        }
    }
}

impl<S> TrialBlock<S> {
    /// Draws a fresh `(b, l)` walk from `rng`, runs `detector` along it
    /// for at most `max_hops` hops, and records the outcome.
    pub(crate) fn run<D, R>(
        &mut self,
        detector: &D,
        b: usize,
        l: usize,
        max_hops: u64,
        rng: &mut R,
    ) -> DetectionOutcome
    where
        D: InPacketDetector<State = S>,
        R: rand::Rng + ?Sized,
    {
        self.walk.redraw(b, l, rng);
        let state = self.state.get_or_insert_with(|| detector.init_state());
        let out = run_detector_with(detector, &self.walk, max_hops, state);
        self.stats.record(out, self.walk.x());
        out
    }

    /// Merges the statistics; the reusable walk and state are dropped.
    pub(crate) fn merge(self, other: Self) -> Self {
        TrialBlock {
            stats: self.stats.merge(other.stats),
            ..TrialBlock::default()
        }
    }
}

/// The standard accumulator for detection-time and false-positive
/// statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrialAccumulator {
    /// Trials executed.
    pub runs: u64,
    /// Trials in which a loop was reported.
    pub detected: u64,
    /// Reports whose reporting hop was not a genuine revisit.
    pub false_positives: u64,
    /// Sum of detection hops over detected trials.
    pub sum_hops: u64,
    /// Sum of `hops / X` over detected trials.
    pub sum_ratio: f64,
}

impl TrialAccumulator {
    /// Merges two shard accumulators.
    pub fn merge(mut self, other: Self) -> Self {
        self.runs += other.runs;
        self.detected += other.detected;
        self.false_positives += other.false_positives;
        self.sum_hops += other.sum_hops;
        self.sum_ratio += other.sum_ratio;
        self
    }

    /// Mean `hops / X` over detected trials (the paper's "Avg Time").
    pub fn avg_ratio(&self) -> f64 {
        if self.detected == 0 {
            f64::NAN
        } else {
            self.sum_ratio / self.detected as f64
        }
    }

    /// Fraction of trials that raised a false positive.
    pub fn fp_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.false_positives as f64 / self.runs as f64
        }
    }

    /// Records one detection outcome.
    pub fn record(&mut self, outcome: DetectionOutcome, x: usize) {
        self.runs += 1;
        if let Some(hops) = outcome.reported_at {
            self.detected += 1;
            self.sum_hops += hops;
            if x > 0 {
                self.sum_ratio += hops as f64 / x as f64;
            }
            if !outcome.true_positive {
                self.false_positives += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_counts_all_trials() {
        #[derive(Default)]
        struct Count(u64);
        let c: Count = parallel_fold(
            10_000,
            1,
            4,
            |_, _, acc: &mut Count| acc.0 += 1,
            |a, b| Count(a.0 + b.0),
        );
        assert_eq!(c.0, 10_000);
    }

    #[test]
    fn uneven_split_loses_nothing() {
        #[derive(Default)]
        struct Sum(u64);
        // 10_007 is prime, so every shard size differs.
        let s: Sum = parallel_fold(
            10_007,
            2,
            5,
            |t, _, acc: &mut Sum| acc.0 += t,
            |a, b| Sum(a.0 + b.0),
        );
        assert_eq!(s.0, 10_007 * 10_006 / 2);
    }

    #[test]
    fn single_thread_path_matches() {
        #[derive(Default)]
        struct Sum(u64);
        let s: Sum = parallel_fold(
            500,
            2,
            1,
            |t, _, acc: &mut Sum| acc.0 += t,
            |a, b| Sum(a.0 + b.0),
        );
        assert_eq!(s.0, 500 * 499 / 2);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        use rand::Rng;
        // RNG-driven outcomes with an f64 running sum: any divergence in
        // stream assignment *or* merge order between thread counts shows
        // up as a bit-level mismatch.
        let fold = |_t: u64, rng: &mut rand::rngs::StdRng, acc: &mut TrialAccumulator| {
            let reported = rng.gen_bool(0.7);
            let hops = rng.gen_range(1u64..100);
            acc.record(
                DetectionOutcome {
                    reported_at: reported.then_some(hops),
                    true_positive: rng.gen_bool(0.9),
                },
                16,
            );
        };
        let single: TrialAccumulator = parallel_fold(10_000, 42, 1, fold, TrialAccumulator::merge);
        assert!(single.detected > 0, "fold produced work to compare");
        for threads in [2, 4, 7] {
            let multi: TrialAccumulator =
                parallel_fold(10_000, 42, threads, fold, TrialAccumulator::merge);
            assert_eq!(single, multi, "threads={threads} diverged from threads=1");
        }
    }

    #[test]
    fn accumulator_math() {
        let mut a = TrialAccumulator::default();
        a.record(
            DetectionOutcome {
                reported_at: Some(30),
                true_positive: true,
            },
            10,
        );
        a.record(
            DetectionOutcome {
                reported_at: None,
                true_positive: false,
            },
            10,
        );
        a.record(
            DetectionOutcome {
                reported_at: Some(5),
                true_positive: false, // a false positive
            },
            10,
        );
        assert_eq!(a.runs, 3);
        assert_eq!(a.detected, 2);
        assert_eq!(a.false_positives, 1);
        assert!((a.avg_ratio() - (3.0 + 0.5) / 2.0).abs() < 1e-12);
        assert!((a.fp_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_combines() {
        let a = TrialAccumulator {
            runs: 5,
            detected: 3,
            false_positives: 1,
            sum_hops: 50,
            sum_ratio: 7.5,
        };
        let b = TrialAccumulator {
            runs: 2,
            detected: 2,
            false_positives: 0,
            sum_hops: 10,
            sum_ratio: 2.0,
        };
        let m = a.merge(b);
        assert_eq!(m.runs, 7);
        assert_eq!(m.detected, 5);
        assert_eq!(m.sum_hops, 60);
    }
}
