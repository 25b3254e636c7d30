//! Synthetic walks — the paper's §5 workload generator.
//!
//! The evaluation generates paths "based on the required number of hops
//! before entering a loop (B) and the number of hops comprising the loop
//! itself (L)", with uniformly random 32-bit switch identifiers. A
//! [`Walk`] is exactly that: a pre-loop segment of `B` distinct switches
//! followed by a cycle of `L` distinct switches which the packet then
//! traverses forever (or a loop-free path when `L = 0`, used by the
//! false-positive experiments of Figure 6).

use crate::detector::InPacketDetector;
use crate::SwitchId;
use rand::Rng;
use std::collections::HashSet;

/// Walks up to this many identifiers (`B + L`) dedupe their draws with
/// [`Walk::redraw`]'s stack filter; longer walks use a hash set.
const FILTER_LIMIT: usize = 64;

/// Width of [`Walk::redraw`]'s duplicate filter, in bits.
const FILTER_BITS: usize = 1024;

/// A synthetic packet trajectory: `B` pre-loop hops then an `L`-switch
/// loop repeated indefinitely.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Walk {
    /// Switches on the path leading to the loop (length `B`).
    pub pre: Vec<SwitchId>,
    /// Switches on the loop (length `L`); empty for a loop-free path.
    pub cycle: Vec<SwitchId>,
}

impl Walk {
    /// Builds a walk from explicit segments.
    pub fn new(pre: Vec<SwitchId>, cycle: Vec<SwitchId>) -> Self {
        Walk { pre, cycle }
    }

    /// Draws a walk with `b` pre-loop hops and an `l`-switch loop, all
    /// identifiers distinct uniform 32-bit values.
    ///
    /// Identifiers are drawn *without replacement*: the paper draws with
    /// replacement, but a duplicate among ≤ a few hundred draws from
    /// 2³² values occurs with probability < 10⁻⁵ and would contaminate
    /// the false-positive accounting, so we exclude it outright.
    pub fn random<R: Rng + ?Sized>(b: usize, l: usize, rng: &mut R) -> Self {
        let mut walk = Walk::new(Vec::with_capacity(b), Vec::with_capacity(l));
        walk.redraw(b, l, rng);
        walk
    }

    /// Replaces this walk with a fresh draw of `b` pre-loop hops and an
    /// `l`-switch loop, reusing both allocations. Accepts exactly the
    /// identifiers [`Walk::random`] would, in the same order, from the
    /// same random stream: each draw is kept unless it equals an
    /// identifier already on the walk.
    ///
    /// Up to 64 identifiers, duplicates are screened by a 1024-bit stack
    /// filter on each identifier's low 10 bits; only a filter hit (a
    /// duplicate, or one of ≤ 63 earlier identifiers sharing those bits)
    /// pays for a scan of the walk. Longer walks use a hash set, where
    /// the scan would be quadratic.
    pub fn redraw<R: Rng + ?Sized>(&mut self, b: usize, l: usize, rng: &mut R) {
        if b + l > FILTER_LIMIT {
            let mut seen = HashSet::with_capacity(b + l);
            self.fill(b, l, rng, |id, _| seen.insert(id));
            return;
        }
        let mut filter = [0u64; FILTER_BITS / 64];
        self.fill(b, l, rng, |id, walk| {
            let bit = id as usize % FILTER_BITS;
            let (word, mask) = (bit / 64, 1u64 << (bit % 64));
            let hit = filter[word] & mask != 0;
            filter[word] |= mask;
            !hit || !(walk.pre.contains(&id) || walk.cycle.contains(&id))
        });
    }

    /// Clears the walk and draws `b` then `l` identifiers, keeping each
    /// draw for which `fresh(id, walk so far)` holds.
    fn fill<R: Rng + ?Sized>(
        &mut self,
        b: usize,
        l: usize,
        rng: &mut R,
        mut fresh: impl FnMut(SwitchId, &Walk) -> bool,
    ) {
        self.pre.clear();
        self.cycle.clear();
        let mut draw = |walk: &Walk| loop {
            let id: SwitchId = rng.gen();
            if fresh(id, walk) {
                break id;
            }
        };
        for _ in 0..b {
            let id = draw(self);
            self.pre.push(id);
        }
        for _ in 0..l {
            let id = draw(self);
            self.cycle.push(id);
        }
    }

    /// Draws a loop-free path of `len` hops (the Figure 6 workload:
    /// `B = 20`, `L = 0`).
    pub fn random_loop_free<R: Rng + ?Sized>(len: usize, rng: &mut R) -> Self {
        Self::random(len, 0, rng)
    }

    /// Draws a random walk and then swaps the globally minimal identifier
    /// to 1-based hop position `min_pos` (`1 ..= b + l`). Used to build
    /// adversarial instances: the single-ID algorithm is slowest when the
    /// minimum sits just before the loop or at specific loop offsets
    /// (Appendix A).
    ///
    /// # Panics
    ///
    /// Panics if `min_pos` is not in `1 ..= b + l`.
    pub fn random_with_min_at<R: Rng + ?Sized>(
        b: usize,
        l: usize,
        min_pos: usize,
        rng: &mut R,
    ) -> Self {
        assert!((1..=b + l).contains(&min_pos), "min_pos out of range");
        let walk = Self::random(b, l, rng);
        let mut ids = [walk.pre, walk.cycle].concat();
        let min_idx = ids
            .iter()
            .enumerate()
            .min_by_key(|(_, &v)| v)
            .map(|(i, _)| i)
            .expect("b + l >= 1");
        ids.swap(min_idx, min_pos - 1);
        let cycle = ids.split_off(b);
        Walk::new(ids, cycle)
    }

    /// Number of hops before the loop (`B`).
    pub fn b(&self) -> usize {
        self.pre.len()
    }

    /// Number of switches in the loop (`L`).
    pub fn l(&self) -> usize {
        self.cycle.len()
    }

    /// `X = B + L`: the trivial lower bound on hops before *any* switch
    /// can be reached twice.
    pub fn x(&self) -> usize {
        self.pre.len() + self.cycle.len()
    }

    /// True if the walk never revisits a switch.
    pub fn is_loop_free(&self) -> bool {
        self.cycle.is_empty()
    }

    /// The switch visited at 1-based hop `hop`, or `None` when a
    /// loop-free walk has ended.
    pub fn switch_at(&self, hop: u64) -> Option<SwitchId> {
        debug_assert!(hop >= 1);
        let b = self.pre.len() as u64;
        if hop <= b {
            return Some(self.pre[(hop - 1) as usize]);
        }
        if self.cycle.is_empty() {
            return None;
        }
        let l = self.cycle.len() as u64;
        Some(self.cycle[((hop - b - 1) % l) as usize])
    }

    /// The switches visited at hops 1, 2, …: `pre`, then `cycle` repeated
    /// forever (ending after `pre` on a loop-free walk). A cursor over
    /// the two slices: no division per hop, unlike
    /// [`Walk::switch_at`].
    pub fn hops(&self) -> impl Iterator<Item = SwitchId> + '_ {
        self.pre.iter().chain(self.cycle.iter().cycle()).copied()
    }

    /// True if the switch visited at hop `hop` was already visited at an
    /// earlier hop (exact check, independent of identifier values).
    pub fn is_revisit(&self, hop: u64) -> bool {
        let b = self.pre.len() as u64;
        let l = self.cycle.len() as u64;
        // Positions strictly after the first full loop pass revisit by
        // construction; earlier positions are first visits because
        // generated identifiers are distinct. For hand-built walks with
        // duplicated IDs the notion of "same switch" is the position in
        // the pre/cycle structure, which this check captures.
        l > 0 && hop > b + l
    }
}

/// The result of running a detector along a walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectionOutcome {
    /// 1-based hop at which a loop was reported; `None` if the walk ended
    /// (loop-free) or the `max_hops` budget ran out first.
    pub reported_at: Option<u64>,
    /// True if the reporting switch had genuinely been visited before
    /// (i.e. the report is not a hash-collision false positive).
    pub true_positive: bool,
}

impl DetectionOutcome {
    /// True if a loop was reported but the reporting hop was *not* a
    /// revisit — a false positive.
    pub fn false_positive(&self) -> bool {
        self.reported_at.is_some() && !self.true_positive
    }

    /// Detection time normalized by `X = B + L` (the paper's
    /// "Avg Time (#hops/X)" metric). `None` when nothing was reported or
    /// `x == 0`.
    pub fn time_ratio(&self, x: usize) -> Option<f64> {
        match (self.reported_at, x) {
            (Some(h), x) if x > 0 => Some(h as f64 / x as f64),
            _ => None,
        }
    }
}

/// Runs `detector` along `walk` for at most `max_hops` hops with a fresh
/// state.
pub fn run_detector<D: InPacketDetector>(
    detector: &D,
    walk: &Walk,
    max_hops: u64,
) -> DetectionOutcome {
    let mut state = detector.init_state();
    run_detector_with(detector, walk, max_hops, &mut state)
}

/// Like [`run_detector`] but reuses `state` (reset first); this is the
/// hot path of the multi-million-run experiments.
pub fn run_detector_with<D: InPacketDetector>(
    detector: &D,
    walk: &Walk,
    max_hops: u64,
    state: &mut D::State,
) -> DetectionOutcome {
    detector.reset_state(state);
    // The walk runs out first only on a loop-free path.
    for (hop, switch) in (1..=max_hops).zip(walk.hops()) {
        if detector.on_switch(state, switch).reported() {
            return DetectionOutcome {
                reported_at: Some(hop),
                true_positive: walk.is_revisit(hop),
            };
        }
    }
    DetectionOutcome {
        reported_at: None,
        true_positive: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::Unroller;
    use crate::params::UnrollerParams;

    #[test]
    fn walk_geometry() {
        let mut rng = crate::test_rng(1);
        let w = Walk::random(5, 20, &mut rng);
        assert_eq!(w.b(), 5);
        assert_eq!(w.l(), 20);
        assert_eq!(w.x(), 25);
        assert!(!w.is_loop_free());
    }

    #[test]
    fn switch_at_cycles_correctly() {
        let w = Walk::new(vec![1, 2], vec![10, 11, 12]);
        let expect = [1u32, 2, 10, 11, 12, 10, 11, 12, 10];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(w.switch_at(i as u64 + 1), Some(e), "hop {}", i + 1);
        }
    }

    #[test]
    fn loop_free_walk_ends() {
        let w = Walk::new(vec![1, 2, 3], vec![]);
        assert_eq!(w.switch_at(3), Some(3));
        assert_eq!(w.switch_at(4), None);
        assert!(w.is_loop_free());
    }

    #[test]
    fn revisit_starts_after_x() {
        let w = Walk::new(vec![1, 2], vec![10, 11, 12]);
        for hop in 1..=5 {
            assert!(!w.is_revisit(hop), "hop {hop}");
        }
        for hop in 6..=12 {
            assert!(w.is_revisit(hop), "hop {hop}");
        }
    }

    #[test]
    fn random_ids_are_distinct() {
        let mut rng = crate::test_rng(2);
        let w = Walk::random(50, 100, &mut rng);
        let mut all: Vec<u32> = w.pre.iter().chain(w.cycle.iter()).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 150);
    }

    #[test]
    fn min_placement_lands_where_requested() {
        let mut rng = crate::test_rng(3);
        for pos in 1..=10 {
            let w = Walk::random_with_min_at(4, 6, pos, &mut rng);
            let all: Vec<u32> = w.pre.iter().chain(w.cycle.iter()).copied().collect();
            let min = *all.iter().min().unwrap();
            assert_eq!(all[pos - 1], min, "pos {pos}");
        }
    }

    #[test]
    fn runner_reports_true_positive_on_loops() {
        let d = Unroller::from_params(UnrollerParams::default()).unwrap();
        let mut rng = crate::test_rng(4);
        for _ in 0..50 {
            let w = Walk::random(5, 20, &mut rng);
            let out = run_detector(&d, &w, 100_000);
            assert!(out.reported_at.is_some());
            assert!(out.true_positive);
            assert!(!out.false_positive());
            assert!(out.time_ratio(w.x()).unwrap() >= 1.0);
        }
    }

    #[test]
    fn runner_returns_none_on_loop_free_full_ids() {
        let d = Unroller::from_params(UnrollerParams::default()).unwrap();
        let mut rng = crate::test_rng(5);
        for _ in 0..50 {
            let w = Walk::random_loop_free(20, &mut rng);
            let out = run_detector(&d, &w, 100_000);
            assert_eq!(out.reported_at, None);
            assert!(!out.false_positive());
        }
    }

    #[test]
    fn runner_respects_max_hops() {
        let d = Unroller::from_params(UnrollerParams::default()).unwrap();
        let w = Walk::new(vec![], vec![1, 2, 3]);
        let out = run_detector(&d, &w, 3); // too few hops to detect
        assert_eq!(out.reported_at, None);
    }

    #[test]
    fn time_ratio_edge_cases() {
        let detected = DetectionOutcome {
            reported_at: Some(10),
            true_positive: true,
        };
        assert_eq!(detected.time_ratio(5), Some(2.0));
        assert_eq!(detected.time_ratio(0), None, "X = 0 has no ratio");
        let silent = DetectionOutcome {
            reported_at: None,
            true_positive: false,
        };
        assert_eq!(silent.time_ratio(5), None);
        assert!(!silent.false_positive());
    }

    #[test]
    fn state_reuse_equals_fresh_state() {
        let d = Unroller::from_params(UnrollerParams::default().with_c(2).with_h(2)).unwrap();
        let mut rng = crate::test_rng(6);
        let mut st = d.init_state();
        for _ in 0..20 {
            let w = Walk::random(3, 8, &mut rng);
            let a = run_detector(&d, &w, 10_000);
            let b = run_detector_with(&d, &w, 10_000, &mut st);
            assert_eq!(a, b);
        }
    }

    /// Replays a fixed script of 64-bit words and counts the draws.
    /// `gen::<u32>()` keeps a word's low 32 bits, so words that differ
    /// only above bit 31 draw the same identifier.
    struct Script {
        words: Vec<u64>,
        drawn: usize,
    }

    impl rand::RngCore for Script {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            let word = self.words[self.drawn];
            self.drawn += 1;
            word
        }
    }

    /// The draw loop `Walk::random` used before `redraw`: every
    /// identifier seen goes into a SipHash set.
    fn hashset_walk<R: Rng + ?Sized>(b: usize, l: usize, rng: &mut R) -> Walk {
        let mut seen = HashSet::new();
        let mut ids = Vec::new();
        while ids.len() < b + l {
            let id: u32 = rng.gen();
            if seen.insert(id) {
                ids.push(id);
            }
        }
        let cycle = ids.split_off(b);
        Walk::new(ids, cycle)
    }

    /// A script of fresh identifiers, each followed by an exact
    /// duplicate (with different high bits) and by distinct identifiers
    /// that share its low 10 bits — the filter's false hits.
    fn script() -> Vec<u64> {
        let mut words = Vec::new();
        for i in 0..400u64 {
            let id = (i.wrapping_mul(0x9e37_79b9) >> 3) as u32;
            words.push(u64::from(id) | 0xabcd << 40);
            words.push(u64::from(id));
            words.push(u64::from(id ^ ((i as u32 % 7 + 1) << 10)));
            if i % 3 == 0 {
                words.push(u64::from(id ^ 0x8000_0000));
            }
        }
        words
    }

    #[test]
    fn redraw_takes_the_hashset_walk_from_the_same_draws() {
        for (b, l) in [
            (0, 0),
            (0, 5),
            (5, 0),
            (3, 4),
            (5, 20),
            (40, 24),
            (40, 25),
            (60, 90),
        ] {
            let mut reference = Script {
                words: script(),
                drawn: 0,
            };
            let want = hashset_walk(b, l, &mut reference);

            let mut rng = Script {
                words: script(),
                drawn: 0,
            };
            assert_eq!(Walk::random(b, l, &mut rng), want, "random B={b} L={l}");
            assert_eq!(rng.drawn, reference.drawn, "random draws B={b} L={l}");

            // Redraw into a walk that holds stale identifiers, some of
            // them equal to ones the script will offer.
            let mut walk = Walk::new(
                vec![7; 70],
                script()[..9].iter().map(|&w| w as u32).collect(),
            );
            let mut rng = Script {
                words: script(),
                drawn: 0,
            };
            walk.redraw(b, l, &mut rng);
            assert_eq!(walk, want, "redraw B={b} L={l}");
            assert_eq!(rng.drawn, reference.drawn, "redraw draws B={b} L={l}");
        }
    }

    #[test]
    fn hops_cycles_like_switch_at() {
        for w in [
            Walk::new(vec![1, 2], vec![10, 11, 12]),
            Walk::new(vec![], vec![4]),
            Walk::new(vec![1, 2, 3], vec![]),
            Walk::default(),
        ] {
            let by_index: Vec<_> = (1..=20).map_while(|h| w.switch_at(h)).collect();
            let by_cursor: Vec<_> = w.hops().take(20).collect();
            assert_eq!(by_cursor, by_index, "{w:?}");
        }
    }
}
