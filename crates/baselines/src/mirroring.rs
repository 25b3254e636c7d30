//! Header-mirroring loop detection (the NetSight / Everflow /
//! trajectory-sampling category of Table 1).
//!
//! Instead of carrying state on packets, switches *mirror* packet
//! headers to a collector, which reconstructs trajectories offline and
//! flags a loop when a packet's postcard stream names the same switch
//! twice. The paper's §2 classifies the costs: switch overhead is low,
//! but mirroring "creates significant scalability concerns" — terabits
//! of postcard traffic and thousands of collector cores — and detection
//! is **not real time**: by the time the collector notices, the packet
//! has moved on (or died), so neither selective reporting nor active
//! rerouting is possible.
//!
//! The model here makes those costs measurable:
//!
//! * [`MirrorConfig::sample_probability`] — NetSight mirrors every
//!   packet at every hop (`1.0`); trajectory sampling mirrors a hash-
//!   selected subset (`< 1.0`), trading postcard bandwidth for false
//!   negatives.
//! * [`MirrorConfig::postcard_bits`] — bits sent to the collector per
//!   mirrored hop (Everflow mirrors ~64-byte header summaries).
//! * [`Collector::network_overhead_bits`] — total postcard traffic, the
//!   number Table 1 calls "high network overhead".
//!
//! The collector is deliberately *consistent sampling* (per
//! packet-and-switch hash coin, as trajectory sampling prescribes): a
//! packet is either observed at a switch on every visit or never, so a
//! sampled-out loop is a genuine false negative, not a coin flip per
//! pass.

use std::collections::HashMap;
use unroller_core::hashing::{HashFamily, HashKind};
use unroller_core::profile::{Category, DetectorProfile, OverheadLevel};
use unroller_core::SwitchId;

/// Mirroring deployment parameters.
#[derive(Debug, Clone, Copy)]
pub struct MirrorConfig {
    /// Probability that a (packet, switch) pair is mirrored. `1.0`
    /// models NetSight postcards; trajectory sampling uses e.g. `0.1`.
    pub sample_probability: f64,
    /// Bits per postcard (Everflow mirrors the first ~64 bytes).
    pub postcard_bits: u64,
    /// Hash seed for the consistent-sampling coin.
    pub seed: u64,
}

impl Default for MirrorConfig {
    fn default() -> Self {
        MirrorConfig {
            sample_probability: 1.0,
            postcard_bits: 64 * 8,
            seed: 0,
        }
    }
}

/// A loop finding raised by the collector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopFinding {
    /// The packet whose trajectory revisited a switch.
    pub packet: u64,
    /// The revisited switch.
    pub switch: SwitchId,
    /// The packet's hop count when the revisit was mirrored.
    pub hop: u64,
}

/// The mirroring collector: receives postcards, reconstructs
/// per-packet trajectories, and flags revisits.
#[derive(Debug, Clone)]
pub struct Collector {
    cfg: MirrorConfig,
    coin: HashFamily,
    threshold: u64,
    /// Per-packet set of mirrored switches.
    seen: HashMap<u64, Vec<SwitchId>>,
    postcards: u64,
    findings: Vec<LoopFinding>,
}

impl Collector {
    /// Creates a collector for the given deployment.
    pub fn new(cfg: MirrorConfig) -> Self {
        Collector {
            coin: HashFamily::new(HashKind::SplitMix, 1, cfg.seed ^ 0x6d6972726f72),
            threshold: (cfg.sample_probability.clamp(0.0, 1.0) * u32::MAX as f64) as u64,
            seen: HashMap::new(),
            postcards: 0,
            findings: Vec::new(),
            cfg,
        }
    }

    /// Consistent sampling: mirror iff `h(packet, switch)` falls under
    /// the probability threshold — the same decision on every visit.
    fn sampled(&self, packet: u64, switch: SwitchId) -> bool {
        let key = (packet as u32).rotate_left(13).wrapping_mul(0x9e37_79b9) ^ switch;
        (self.coin.hash(0, key) as u64) < self.threshold || self.cfg.sample_probability >= 1.0
    }

    /// A switch processes hop `hop` of `packet`: possibly emits a
    /// postcard; the collector ingests it and may raise a finding.
    /// Returns the finding when the mirrored trajectory shows a revisit.
    pub fn observe(&mut self, packet: u64, switch: SwitchId, hop: u64) -> Option<LoopFinding> {
        if !self.sampled(packet, switch) {
            return None;
        }
        self.postcards += 1;
        let trajectory = self.seen.entry(packet).or_default();
        if trajectory.contains(&switch) {
            let finding = LoopFinding {
                packet,
                switch,
                hop,
            };
            self.findings.push(finding.clone());
            return Some(finding);
        }
        trajectory.push(switch);
        None
    }

    /// Total postcard traffic so far, in bits — the "network overhead"
    /// column of Table 1, measured.
    pub fn network_overhead_bits(&self) -> u64 {
        self.postcards * self.cfg.postcard_bits
    }

    /// Postcards received.
    pub fn postcard_count(&self) -> u64 {
        self.postcards
    }

    /// All findings so far.
    pub fn findings(&self) -> &[LoopFinding] {
        &self.findings
    }

    /// Forgets a delivered/dead packet's trajectory (epoch cleanup).
    pub fn evict(&mut self, packet: u64) {
        self.seen.remove(&packet);
    }

    /// The Table 1 row this deployment occupies.
    pub fn profile(&self) -> DetectorProfile {
        DetectorProfile {
            name: if self.cfg.sample_probability >= 1.0 {
                "Mirroring"
            } else {
                "TrajSampling"
            },
            category: Category::HeaderMirroring,
            real_time: false,
            switch_overhead: OverheadLevel::Low,
            network_overhead: OverheadLevel::High,
        }
    }
}

/// Runs a mirroring deployment over a synthetic walk: every hop is
/// observed (subject to sampling) until the loop is found or `max_hops`
/// pass. Returns `(detection_hop, postcard_bits)`.
pub fn run_mirroring(
    cfg: MirrorConfig,
    walk: &unroller_core::Walk,
    packet: u64,
    max_hops: u64,
) -> (Option<u64>, u64) {
    let mut collector = Collector::new(cfg);
    for (hop, switch) in (1..=max_hops).zip(walk.hops()) {
        if let Some(f) = collector.observe(packet, switch, hop) {
            return (Some(f.hop), collector.network_overhead_bits());
        }
    }
    (None, collector.network_overhead_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use unroller_core::Walk;

    #[test]
    fn full_mirroring_detects_at_first_revisit() {
        let mut rng = unroller_core::test_rng(91);
        for _ in 0..50 {
            let w = Walk::random(5, 10, &mut rng);
            let (hop, bits) = run_mirroring(MirrorConfig::default(), &w, 1, 10_000);
            assert_eq!(hop, Some(w.x() as u64 + 1), "collector sees everything");
            // One postcard per hop until detection.
            assert_eq!(bits, (w.x() as u64 + 1) * 64 * 8);
        }
    }

    #[test]
    fn postcard_traffic_dwarfs_unroller_header_bits() {
        // The §2 scalability point, measured: on one 26-hop detection,
        // full mirroring ships 13,312 postcard bits to the collector
        // while Unroller adds 40 bits to the packet and nothing to the
        // network.
        let mut rng = unroller_core::test_rng(92);
        let w = Walk::random(5, 20, &mut rng);
        let (_, bits) = run_mirroring(MirrorConfig::default(), &w, 1, 10_000);
        let unroller_bits = unroller_core::UnrollerParams::default().overhead_bits() as u64;
        assert!(
            bits > 100 * unroller_bits,
            "mirroring {bits} bits vs unroller {unroller_bits} bits"
        );
    }

    #[test]
    fn sampling_causes_false_negatives() {
        // Trajectory sampling at 10%: most loops' switches are never
        // mirrored, so the collector misses most loops entirely.
        let cfg = MirrorConfig {
            sample_probability: 0.1,
            ..MirrorConfig::default()
        };
        let mut rng = unroller_core::test_rng(93);
        let mut missed = 0;
        let runs = 200;
        for packet in 0..runs {
            let w = Walk::random(5, 5, &mut rng);
            // Two full loop passes after reaching it: enough for any
            // sampled switch to repeat.
            let budget = (w.x() + 2 * w.l() + 5) as u64;
            if run_mirroring(cfg, &w, packet, budget).0.is_none() {
                missed += 1;
            }
        }
        assert!(
            missed > runs / 2,
            "10% sampling should miss most short loops ({missed}/{runs})"
        );
    }

    #[test]
    fn sampling_is_consistent_per_switch() {
        // A sampled-in switch is observed on *every* visit: detection,
        // when it happens, is correct (never a false positive).
        let cfg = MirrorConfig {
            sample_probability: 0.5,
            ..MirrorConfig::default()
        };
        let mut rng = unroller_core::test_rng(94);
        for packet in 0..100 {
            let w = Walk::random_loop_free(25, &mut rng);
            let (hop, _) = run_mirroring(cfg, &w, packet, 25);
            assert_eq!(hop, None, "no false positives on loop-free paths");
        }
    }

    #[test]
    fn eviction_clears_state() {
        let mut c = Collector::new(MirrorConfig::default());
        assert!(c.observe(7, 100, 1).is_none());
        c.evict(7);
        assert!(c.observe(7, 100, 2).is_none(), "trajectory was forgotten");
        assert_eq!(c.postcard_count(), 2);
    }

    #[test]
    fn profile_is_the_table1_row() {
        let full = Collector::new(MirrorConfig::default());
        assert_eq!(full.profile().name, "Mirroring");
        assert!(!full.profile().real_time);
        let sampled = Collector::new(MirrorConfig {
            sample_probability: 0.1,
            ..MirrorConfig::default()
        });
        assert_eq!(sampled.profile().name, "TrajSampling");
    }
}
