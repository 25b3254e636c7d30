//! The Unroller detector and the common in-packet detector interface.
//!
//! All detectors in this workspace (Unroller and the baselines in
//! `unroller-baselines`) share the [`InPacketDetector`] trait: a detector
//! is configuration that lives on switches, while its
//! [`State`](InPacketDetector::State) is the small record carried *on the
//! packet*. Each switch the packet traverses calls
//! [`on_switch`](InPacketDetector::on_switch) exactly once, mutating the
//! packet-carried state and possibly reporting a loop.

use crate::hashing::HashFamily;
use crate::params::{ParamError, UnrollerParams};
use crate::phase::PositionTable;
use crate::profile::{Category, DetectorProfile, OverheadLevel};
use crate::SwitchId;

/// The outcome of processing one packet at one switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No loop evidence (yet); forward the packet normally.
    Continue,
    /// This switch reports a routing loop: the packet carries evidence
    /// that it has visited this switch (or a hash-colliding one) before.
    LoopReported,
}

impl Verdict {
    /// True if this verdict reports a loop.
    pub fn reported(self) -> bool {
        matches!(self, Verdict::LoopReported)
    }
}

/// A loop detector whose working state travels on the packet.
///
/// Implementations must be *deterministic* given their configuration:
/// two switches holding the same configuration must behave identically,
/// because in a real deployment the controller installs the same
/// parameters (including hash seeds) on every switch.
pub trait InPacketDetector {
    /// The per-packet record (what a real deployment encodes into the
    /// packet header; see `unroller-dataplane` for the bit-exact layout).
    type State: Clone + std::fmt::Debug;

    /// Human-readable detector name (used in experiment output).
    fn name(&self) -> &'static str;

    /// The state a packet carries when it leaves its source host.
    fn init_state(&self) -> Self::State;

    /// Resets existing state in place (allows allocation reuse in the
    /// multi-million-run experiment loops).
    fn reset_state(&self, state: &mut Self::State) {
        *state = self.init_state();
    }

    /// Processes the packet at a switch: inspects/updates the carried
    /// state and decides whether this switch reports a loop.
    fn on_switch(&self, state: &mut Self::State, switch: SwitchId) -> Verdict;

    /// Per-packet overhead in bits after `hops` hops.
    ///
    /// Constant for Unroller, Bloom-filter and PathDump encodings; linear
    /// in `hops` for INT-style full path recording.
    fn overhead_bits(&self, hops: u64) -> u64;

    /// The qualitative design-space classification (paper Table 1).
    fn profile(&self) -> DetectorProfile;
}

/// The per-packet record of the Unroller algorithm (paper Table 3).
///
/// | field | bits on the wire |
/// |---|---|
/// | `xcnt` | 8 (or 0 when inferred from TTL) |
/// | `swids` | `c · H · z` |
/// | `thcnt` | `⌈log₂ Th⌉` |
///
/// The `occupied` bitmask is *not* carried on the wire: in a real header
/// the slots are initialized by the first hop of each chunk, and before
/// that they hold no meaningful value. Carrying occupancy here keeps the
/// software model exact without biasing matches toward a sentinel value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnrollerState {
    /// Hop counter (`Xcnt`): number of switches traversed so far.
    pub xcnt: u64,
    /// Stored identifier slots, indexed `hash_index · c + chunk_index`.
    pub swids: Vec<u32>,
    /// Bitmask of slots that have been written since the packet left its
    /// source.
    pub occupied: u64,
    /// Threshold counter (`Thcnt`): matches seen so far.
    pub thcnt: u32,
}

impl UnrollerState {
    fn new(slots: usize) -> Self {
        UnrollerState {
            xcnt: 0,
            swids: vec![0; slots],
            occupied: 0,
            thcnt: 0,
        }
    }

    fn clear(&mut self) {
        self.xcnt = 0;
        self.occupied = 0;
        self.thcnt = 0;
        // swids need no clearing: occupancy gates every read.
    }
}

/// The Unroller loop detector (paper §3–§4).
///
/// Holds the run-time configuration every switch shares: the parameters
/// of [`UnrollerParams`] plus the seeded [`HashFamily`], and the
/// per-hop chunk positions precomputed from the phase schedule.
///
/// ```
/// use unroller_core::prelude::*;
///
/// let det = Unroller::from_params(UnrollerParams::default()).unwrap();
/// let mut state = det.init_state();
///
/// // A two-switch loop: 7 → 9 → 7 → …
/// assert_eq!(det.on_switch(&mut state, 7), Verdict::Continue);
/// assert_eq!(det.on_switch(&mut state, 9), Verdict::Continue);
/// assert_eq!(det.on_switch(&mut state, 7), Verdict::LoopReported);
/// ```
#[derive(Debug, Clone)]
pub struct Unroller {
    params: UnrollerParams,
    hashes: HashFamily,
    positions: PositionTable,
}

impl Unroller {
    /// Builds a detector from validated parameters, choosing a default
    /// hash family: the identity for the uncompressed single-hash
    /// configuration (`z = 32`, `H = 1`), a seeded SplitMix family
    /// otherwise.
    pub fn from_params(params: UnrollerParams) -> Result<Self, ParamError> {
        Self::with_hashes(params, HashFamily::default_for(params.z, params.h))
    }

    /// Builds a detector with an explicit hash family (e.g. a fresh seed
    /// per experiment batch, or a different [`crate::hashing::HashKind`]).
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] if the parameters are inconsistent, and
    /// [`ParamError::NoHashes`] if the family size differs from
    /// `params.h`.
    pub fn with_hashes(params: UnrollerParams, hashes: HashFamily) -> Result<Self, ParamError> {
        params.validate()?;
        if hashes.len() != params.h as usize {
            return Err(ParamError::NoHashes);
        }
        let positions = PositionTable::new(params.schedule, params.b, params.c);
        Ok(Unroller {
            params,
            hashes,
            positions,
        })
    }

    /// The detector's configuration.
    pub fn params(&self) -> &UnrollerParams {
        &self.params
    }

    /// The shared hash family.
    pub fn hashes(&self) -> &HashFamily {
        &self.hashes
    }
}

impl InPacketDetector for Unroller {
    type State = UnrollerState;

    fn name(&self) -> &'static str {
        "unroller"
    }

    fn init_state(&self) -> UnrollerState {
        UnrollerState::new(self.params.slots())
    }

    fn reset_state(&self, state: &mut UnrollerState) {
        debug_assert_eq!(state.swids.len(), self.params.slots());
        state.clear();
    }

    #[inline]
    fn on_switch(&self, st: &mut UnrollerState, switch: SwitchId) -> Verdict {
        let p = &self.params;
        let (h, c, z_mask) = (p.h as usize, p.c as usize, p.z_mask());
        let hash = |i: usize| self.hashes.hash(i, switch) & z_mask;

        // (1) Increment the hop counter — Xcnt is the number of switches
        // traversed *including* this one.
        st.xcnt += 1;

        // (2)+(3) Evaluate each hash function on the switch ID and compare
        // it against every stored identifier of that function. A match
        // means the packet (probably) visited this switch before.
        let matched = (0..h).any(|i| {
            let hv = hash(i);
            (i * c..(i + 1) * c).any(|slot| st.occupied & (1 << slot) != 0 && st.swids[slot] == hv)
        });
        if matched {
            st.thcnt += 1;
            if st.thcnt >= p.th {
                // (4) Report: drop/tag the packet and inform the
                // controller (the caller's job).
                return Verdict::LoopReported;
            }
        }

        // (5) Update the stored identifiers. The match check above runs
        // *before* any phase reset, so a loop closing exactly on a phase
        // boundary is still caught. Only the current chunk's slots are
        // written: overwritten at a chunk boundary, min-merged otherwise.
        // The hashes are evaluated again rather than kept in a scratch
        // array: a few multiplies cost less than zeroing a 64-word array
        // on every hop.
        let (j, fresh) = self.positions.at(st.xcnt);
        for i in 0..h {
            let hv = hash(i);
            let slot = i * c + j;
            let bit = 1u64 << slot;
            if fresh || st.occupied & bit == 0 {
                st.swids[slot] = hv;
                st.occupied |= bit;
            } else if hv < st.swids[slot] {
                st.swids[slot] = hv;
            }
        }
        Verdict::Continue
    }

    fn overhead_bits(&self, _hops: u64) -> u64 {
        self.params.overhead_bits() as u64
    }

    fn profile(&self) -> DetectorProfile {
        DetectorProfile {
            name: "Unroller",
            category: Category::PartialEncodingOnPackets,
            real_time: true,
            switch_overhead: OverheadLevel::Low,
            network_overhead: OverheadLevel::Low,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::{HashFamily, HashKind};
    use crate::phase::PhaseSchedule;
    use crate::walk::{run_detector_with, DetectionOutcome, Walk};
    use proptest::prelude::*;

    fn det(params: UnrollerParams) -> Unroller {
        Unroller::from_params(params).unwrap()
    }

    /// Drives a detector along a hop sequence; returns the 1-based hop at
    /// which a loop was reported, if any.
    fn drive(d: &Unroller, hops: &[SwitchId]) -> Option<usize> {
        let mut st = d.init_state();
        for (i, &s) in hops.iter().enumerate() {
            if d.on_switch(&mut st, s).reported() {
                return Some(i + 1);
            }
        }
        None
    }

    #[test]
    fn detector_types_are_send_and_sync() {
        // The unroller-engine runtime clones one detector per worker
        // shard and moves it across threads; that contract is
        // compile-time checked here so it can never silently regress.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Unroller>();
        assert_send_sync::<UnrollerState>();
        assert_send_sync::<Verdict>();
        assert_send_sync::<HashFamily>();
    }

    #[test]
    fn params_detector_builds_the_same_detector() {
        let params = UnrollerParams::default().with_z(12).with_h(2);
        let via_params = params.detector().unwrap();
        let direct = Unroller::from_params(params).unwrap();
        // Same configuration and identical hashing behaviour.
        assert_eq!(via_params.params(), direct.params());
        for id in [0u32, 7, 0xdead_beef] {
            for func in 0..2 {
                assert_eq!(
                    via_params.hashes().hash(func, id),
                    direct.hashes().hash(func, id)
                );
            }
        }
    }

    #[test]
    fn self_loop_detected_in_two_hops() {
        let d = det(UnrollerParams::default());
        assert_eq!(drive(&d, &[42, 42]), Some(2));
    }

    #[test]
    fn hand_traced_b4_power_boundary() {
        // b = 4, power-boundary. Pre-loop ID 5 (globally minimal), loop
        // IDs 10 → 20 → 30. Hop-by-hop:
        //   hop 1 (5):  phase start, store 5
        //   hops 2-3 (10, 20): min stays 5
        //   hop 4 (30): Xcnt = 4 is a power of 4 → reset, store 30
        //   hops 5-7 (10, 20, 30): min becomes 10
        //   hop 8 (10): match → report.
        let d = det(UnrollerParams::default());
        let walk = [5u32, 10, 20, 30, 10, 20, 30, 10, 20, 30, 10];
        assert_eq!(drive(&d, &walk), Some(8));
    }

    #[test]
    fn threshold_adds_l_hops_per_extra_match() {
        // Same walk as above with Th = 2: first match at hop 8 only
        // increments Thcnt; the next visit of switch 10 (hop 11 = 8 + L)
        // reports. This is the (Th−1)·L cost stated in §3.3.
        let d = det(UnrollerParams::default().with_th(2));
        let mut walk = vec![5u32];
        for _ in 0..10 {
            walk.extend_from_slice(&[10, 20, 30]);
        }
        assert_eq!(drive(&d, &walk), Some(11));
    }

    #[test]
    fn no_false_positive_on_loop_free_path_with_full_ids() {
        // z = 32 with distinct IDs ⇒ zero false positives, deterministic.
        let d = det(UnrollerParams::default());
        let walk: Vec<u32> = (1..=200).collect();
        assert_eq!(drive(&d, &walk), None);
    }

    #[test]
    fn minimum_on_preloop_path_is_unstuck_by_reset() {
        // The §3.5 scenario: the globally minimal ID sits on the pre-loop
        // path. Without resets the stored ID would never match a loop
        // switch; phases guarantee detection anyway.
        let d = det(UnrollerParams::default());
        let mut walk = vec![1u32, 9, 8, 7, 6]; // B = 5, min ID first
        for _ in 0..30 {
            walk.extend_from_slice(&[100, 200, 300, 400]); // L = 4
        }
        let hop = drive(&d, &walk).expect("loop must be detected");
        // Theorem 1 (cumulative schedule) gives 4.67X; the power-boundary
        // schedule has slightly different constants — just require
        // detection well before the walk ends.
        assert!(hop <= 6 * 9, "detected at hop {hop}");
    }

    #[test]
    fn detection_with_both_schedules() {
        for schedule in [
            PhaseSchedule::PowerBoundary,
            PhaseSchedule::CumulativeGeometric,
        ] {
            let d = det(UnrollerParams::default().with_schedule(schedule));
            let mut walk: Vec<u32> = vec![3, 1, 4, 1 + 10, 5]; // B = 5
            for _ in 0..50 {
                walk.extend((100..120).step_by(2)); // L = 10
            }
            assert!(drive(&d, &walk).is_some(), "{schedule:?}");
        }
    }

    #[test]
    fn chunked_configuration_detects() {
        for (c, h) in [(2u32, 1u32), (4, 1), (1, 2), (2, 2), (4, 4), (8, 8)] {
            let d = det(UnrollerParams::default().with_c(c).with_h(h));
            let mut walk: Vec<u32> = (1000..1005).collect(); // B = 5
            for _ in 0..60 {
                walk.extend(1..=20); // L = 20
            }
            assert!(drive(&d, &walk).is_some(), "c={c} H={h}");
        }
    }

    #[test]
    fn chunks_never_raise_detection_time_on_average() {
        // Appendix B: more chunks can only help (statistically). Compare
        // mean detection hops for c = 1 vs c = 4 over random walks.
        use crate::walk::{run_detector, Walk};
        let d1 = det(UnrollerParams::default());
        let d4 = det(UnrollerParams::default().with_c(4));
        let mut rng = crate::test_rng(17);
        let (mut sum1, mut sum4) = (0u64, 0u64);
        let runs = 300;
        for _ in 0..runs {
            let w = Walk::random(5, 20, &mut rng);
            sum1 += run_detector(&d1, &w, 100_000).reported_at.unwrap();
            sum4 += run_detector(&d4, &w, 100_000).reported_at.unwrap();
        }
        assert!(
            sum4 <= sum1,
            "c=4 mean {} should not exceed c=1 mean {}",
            sum4 as f64 / runs as f64,
            sum1 as f64 / runs as f64
        );
    }

    #[test]
    fn report_happens_even_on_phase_boundary_hop() {
        // Check-before-reset: construct a walk where the revisited switch
        // arrives exactly on a power-of-b hop. b = 2: boundaries at
        // 1,2,4,8,16. Walk: A B A' pattern with revisit at hop 4.
        // hop1: store 50. hop2: boundary, store 60. hop3: min(60,70)=60.
        // hop4 (60): match check first → report, despite 4 = 2².
        let d = det(UnrollerParams::default().with_b(2));
        assert_eq!(drive(&d, &[50, 60, 70, 60]), Some(4));
    }

    #[test]
    fn state_reset_reuses_allocation() {
        let d = det(UnrollerParams::default().with_c(4).with_h(2));
        let mut st = d.init_state();
        for s in [9u32, 8, 7, 6] {
            let _ = d.on_switch(&mut st, s);
        }
        assert!(st.xcnt > 0 && st.occupied != 0);
        d.reset_state(&mut st);
        assert_eq!(st.xcnt, 0);
        assert_eq!(st.occupied, 0);
        assert_eq!(st.thcnt, 0);
        assert_eq!(st.swids.len(), 8);
        // Behaves exactly like a fresh state afterwards.
        let mut fresh = d.init_state();
        for s in [5u32, 5] {
            let a = d.on_switch(&mut st, s);
            let b = d.on_switch(&mut fresh, s);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn hash_mismatch_family_size_rejected() {
        let fam = crate::hashing::HashFamily::new(crate::hashing::HashKind::SplitMix, 2, 1);
        let err = Unroller::with_hashes(UnrollerParams::default().with_h(4), fam);
        assert!(err.is_err());
    }

    #[test]
    fn zero_valued_identifiers_are_not_special() {
        // A switch ID of 0 (or one that hashes to 0) must behave like
        // any other value: occupancy gates validity, so a stored 0 is a
        // real record, not an "empty" sentinel.
        let d = det(UnrollerParams::default());
        // 0 on the loop: detected by matching the stored 0.
        assert_eq!(drive(&d, &[0, 7, 0]), Some(3));
        // 0 only on the pre-loop path: no false match from fresh state.
        let walk = [0u32, 10, 20, 30, 10, 20, 30, 10];
        let hop = drive(&d, &walk).expect("loop detected");
        assert!(hop >= 5, "must not match before a genuine revisit");
    }

    #[test]
    fn one_bit_hashes_still_detect_and_mostly_collide() {
        // z = 1 is the degenerate extreme: every pair of switches
        // collides with probability 1/2, so loop-free prefixes usually
        // false-positive quickly — but genuine loops are still always
        // reported (no false negatives).
        let d = det(UnrollerParams::default().with_z(1));
        let mut rng = crate::test_rng(23);
        let mut fp = 0;
        for _ in 0..100 {
            let w = crate::walk::Walk::random(5, 8, &mut rng);
            let out = crate::walk::run_detector(&d, &w, 10_000);
            assert!(out.reported_at.is_some(), "never a false negative");
            if out.false_positive() {
                fp += 1;
            }
        }
        assert!(fp > 50, "z = 1 should usually report early ({fp}/100)");
    }

    #[test]
    fn overhead_constant_in_hops() {
        let d = det(UnrollerParams::default());
        assert_eq!(d.overhead_bits(1), d.overhead_bits(1000));
        assert_eq!(d.overhead_bits(1), 40);
    }

    #[test]
    fn compressed_ids_still_detect_real_loops() {
        // z-bit compression introduces false positives but never false
        // negatives: a genuine revisit always hashes equal.
        for z in [4u32, 7, 12] {
            let d = det(UnrollerParams::default().with_z(z));
            let mut walk: Vec<u32> = (500..505).collect();
            for _ in 0..80 {
                walk.extend(1..=10);
            }
            assert!(drive(&d, &walk).is_some(), "z={z}");
        }
    }

    /// The per-hop rule as it stood before the position table: every
    /// hash lands in a zeroed scratch array and every hop searches the
    /// schedule with `position()`. Kept as the reference the table-driven
    /// step must match.
    fn reference_step(d: &Unroller, st: &mut UnrollerState, switch: SwitchId) -> Verdict {
        let p = d.params();
        let (h, c) = (p.h as usize, p.c as usize);
        st.xcnt += 1;
        let mut hashes = [0u32; crate::params::MAX_SLOTS];
        d.hashes()
            .hash_all_into(switch, p.z_mask(), &mut hashes[..h]);
        let mut matched = false;
        'outer: for (i, &hv) in hashes[..h].iter().enumerate() {
            for j in 0..c {
                let slot = i * c + j;
                if st.occupied & (1 << slot) != 0 && st.swids[slot] == hv {
                    matched = true;
                    break 'outer;
                }
            }
        }
        if matched {
            st.thcnt += 1;
            if st.thcnt >= p.th {
                return Verdict::LoopReported;
            }
        }
        let pos = p.schedule.position(st.xcnt, p.b, p.c);
        let j = pos.chunk as usize;
        let fresh = pos.is_chunk_start(st.xcnt);
        for (i, &hv) in hashes[..h].iter().enumerate() {
            let slot = i * c + j;
            let bit = 1u64 << slot;
            if fresh || st.occupied & bit == 0 {
                st.swids[slot] = hv;
                st.occupied |= bit;
            } else if hv < st.swids[slot] {
                st.swids[slot] = hv;
            }
        }
        Verdict::Continue
    }

    /// Runs [`reference_step`] along `walk` the way the runner did before
    /// `Walk::hops`: `switch_at` on every hop.
    fn reference_run(
        d: &Unroller,
        walk: &Walk,
        max_hops: u64,
    ) -> (DetectionOutcome, UnrollerState) {
        let mut st = d.init_state();
        for hop in 1..=max_hops {
            let Some(switch) = walk.switch_at(hop) else {
                break;
            };
            if reference_step(d, &mut st, switch).reported() {
                let out = DetectionOutcome {
                    reported_at: Some(hop),
                    true_positive: walk.is_revisit(hop),
                };
                return (out, st);
            }
        }
        let out = DetectionOutcome {
            reported_at: None,
            true_positive: false,
        };
        (out, st)
    }

    /// Asserts the table-driven step and the reference agree on `walk`:
    /// the same outcome and the same final packet state.
    fn assert_matches_reference(d: &Unroller, walk: &Walk, max_hops: u64) -> DetectionOutcome {
        let (want, want_state) = reference_run(d, walk, max_hops);
        let mut st = d.init_state();
        let got = run_detector_with(d, walk, max_hops, &mut st);
        assert_eq!(got, want, "{:?} B={} L={}", d.params(), walk.b(), walk.l());
        assert_eq!(
            st,
            want_state,
            "{:?} B={} L={}",
            d.params(),
            walk.b(),
            walk.l()
        );
        got
    }

    fn detector_for(
        (b, c, h): (u32, u32, u32),
        (z, th, cumulative): (u32, u32, bool),
        kind: usize,
    ) -> Unroller {
        let schedule = if cumulative {
            PhaseSchedule::CumulativeGeometric
        } else {
            PhaseSchedule::PowerBoundary
        };
        let params = UnrollerParams::default()
            .with_b(b)
            .with_c(c)
            .with_h(h)
            .with_z(z)
            .with_th(th)
            .with_schedule(schedule);
        let kind = [
            HashKind::Identity,
            HashKind::MultiplyShift,
            HashKind::SplitMix,
            HashKind::Tabulation,
        ][kind];
        Unroller::with_hashes(params, HashFamily::new(kind, h, 0x5eed)).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn table_step_matches_the_reference_rule(
            shape in (2u32..9, 1u32..5, 1u32..5),
            hashing in (1u32..33, 1u32..5, any::<bool>()),
            kind in 0usize..4,
            (long, pre, cycle) in (0u32..4, 0usize..13, 0usize..13),
            budget in 0u32..4,
            seed in any::<u64>(),
        ) {
            let d = detector_for(shape, hashing, kind);
            let mut rng = crate::test_rng(seed);
            // One case in four is long enough (X up to 5000 hops) to run
            // past the position table's 4096 entries into `position()`.
            let (pre, cycle) = if long == 0 {
                (pre * 200, 1 + cycle * 250)
            } else {
                (pre, cycle)
            };
            let walk = Walk::random(pre, cycle, &mut rng);
            let max_hops = match budget {
                0 => 0,
                1 => 1,
                2 => pre.saturating_sub(1) as u64,
                _ => 1 << 16,
            };
            assert_matches_reference(&d, &walk, max_hops);
        }
    }

    #[test]
    fn table_step_matches_the_reference_past_the_table() {
        // X > 4096: every report lands past the table, where the step
        // falls back to `position()`. b = 2 with Th = 4 adds the most
        // phase resets and re-acquisitions on the way.
        // Hashed identifiers may still collide early (a false positive).
        let mut rng = crate::test_rng(41);
        let mut past_the_table = 0;
        for cumulative in [false, true] {
            for (c, h, z) in [(1u32, 1u32, 32u32), (4, 2, 24), (3, 1, 28)] {
                let d = detector_for((2, c, h), (z, 4, cumulative), 2);
                for (pre, cycle) in [(3000, 1200), (0, 4200), (4100, 1)] {
                    let walk = Walk::random(pre, cycle, &mut rng);
                    let out = assert_matches_reference(&d, &walk, 1 << 20);
                    let hop = out.reported_at.expect("a loop is always reported");
                    if hop > crate::phase::POSITION_TABLE_LEN as u64 {
                        past_the_table += 1;
                    }
                }
            }
        }
        assert!(
            past_the_table >= 12,
            "{past_the_table} of 18 reports past the table"
        );
    }

    #[test]
    fn table_step_matches_the_reference_on_edge_walks() {
        // Loop-free walks, single-switch loops, loops from the first hop,
        // and hop budgets shorter than the pre-loop path.
        let mut rng = crate::test_rng(42);
        let d = detector_for((4, 2, 2), (6, 2, false), 2);
        for (pre, cycle) in [(0, 0), (5, 0), (0, 1), (7, 1), (0, 9), (9, 3)] {
            let walk = Walk::random(pre, cycle, &mut rng);
            for max_hops in [0, 1, pre.saturating_sub(1) as u64, 10_000] {
                assert_matches_reference(&d, &walk, max_hops);
            }
        }
    }
}
