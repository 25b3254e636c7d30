//! On-switch-state loop detection (the FlowRadar / hash-based IP
//! traceback category of Table 1).
//!
//! Switches keep per-flow state — here, per-packet visit counters — and
//! export it to a collector every epoch; the collector flags a loop
//! when some switch counted the same packet twice. The paper's §2
//! classification, made measurable:
//!
//! * **switch overhead is high**: the registry grows with the number of
//!   active flows ([`FlowRegistry::state_bits`] — the scarce SRAM the
//!   operator wanted for ACLs and forwarding);
//! * **network overhead is low**: only periodic exports leave the
//!   switch ([`FlowRegistry::export_bits`]);
//! * **not real time**: the revisit is only *learned* at the next epoch
//!   export, long after the packet moved on.

use std::collections::HashMap;
use unroller_core::profile::{Category, DetectorProfile, OverheadLevel};
use unroller_core::SwitchId;

/// Bits per registry entry: a 64-bit flow/packet key plus a 32-bit
/// counter (FlowRadar packs tighter with coded Bloom filters; this is
/// the plain-registry upper bound).
pub const ENTRY_BITS: u64 = 64 + 32;

/// On-switch-state deployment parameters.
#[derive(Debug, Clone, Copy)]
pub struct OnSwitchConfig {
    /// Hops between collector exports (the epoch, in the walk's
    /// hop-time). Real deployments export every 10s–10min; shorter
    /// epochs mean faster (but still offline) detection and more export
    /// traffic.
    pub epoch_hops: u64,
}

impl Default for OnSwitchConfig {
    fn default() -> Self {
        OnSwitchConfig { epoch_hops: 64 }
    }
}

/// The distributed per-switch registries plus the collector's view.
#[derive(Debug, Clone)]
pub struct FlowRegistry {
    cfg: OnSwitchConfig,
    /// `(switch, packet) → visits` across all switches.
    counts: HashMap<(SwitchId, u64), u32>,
    /// Hop at which some count first reached 2 (the ground truth the
    /// collector will eventually learn).
    first_revisit: Option<u64>,
    /// Hop of the export that revealed it.
    detected_at: Option<u64>,
    exports: u64,
}

impl FlowRegistry {
    /// Creates the registry system.
    pub fn new(cfg: OnSwitchConfig) -> Self {
        FlowRegistry {
            cfg,
            counts: HashMap::new(),
            first_revisit: None,
            detected_at: None,
            exports: 0,
        }
    }

    /// A switch processes hop `hop` of `packet`; epoch boundaries
    /// trigger exports. Returns the detection hop if this hop's export
    /// revealed a loop.
    pub fn observe(&mut self, packet: u64, switch: SwitchId, hop: u64) -> Option<u64> {
        let count = self.counts.entry((switch, packet)).or_insert(0);
        *count += 1;
        if *count >= 2 && self.first_revisit.is_none() {
            self.first_revisit = Some(hop);
        }
        // Export at epoch boundaries: the collector joins the registries
        // and notices any double-counted packet.
        if hop.is_multiple_of(self.cfg.epoch_hops) {
            self.exports += 1;
            if self.first_revisit.is_some() && self.detected_at.is_none() {
                self.detected_at = Some(hop);
                return Some(hop);
            }
        }
        None
    }

    /// Total switch SRAM consumed by the registries, in bits — the
    /// "high switch overhead" column, measured.
    pub fn state_bits(&self) -> u64 {
        self.counts.len() as u64 * ENTRY_BITS
    }

    /// Export traffic so far (each export ships the registry deltas; we
    /// charge the full registry per export as an upper bound).
    pub fn export_bits(&self) -> u64 {
        self.exports * self.state_bits()
    }

    /// When the collector learned of the loop, if it has.
    pub fn detected_at(&self) -> Option<u64> {
        self.detected_at
    }

    /// The Table 1 row.
    pub fn profile(&self) -> DetectorProfile {
        DetectorProfile {
            name: "FlowRadar",
            category: Category::OnSwitchState,
            real_time: false,
            switch_overhead: OverheadLevel::High,
            network_overhead: OverheadLevel::Low,
        }
    }
}

/// Runs the on-switch deployment over a synthetic walk. Returns
/// `(collector detection hop, peak switch state bits)`.
pub fn run_onswitch(
    cfg: OnSwitchConfig,
    walk: &unroller_core::Walk,
    packet: u64,
    max_hops: u64,
) -> (Option<u64>, u64) {
    let mut reg = FlowRegistry::new(cfg);
    for (hop, switch) in (1..=max_hops).zip(walk.hops()) {
        if let Some(at) = reg.observe(packet, switch, hop) {
            return (Some(at), reg.state_bits());
        }
    }
    (None, reg.state_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use unroller_core::Walk;

    #[test]
    fn detection_waits_for_the_epoch_export() {
        // X = 10: the revisit happens at hop 11, but with a 64-hop epoch
        // the collector only learns at hop 64.
        let mut rng = unroller_core::test_rng(95);
        let w = Walk::random(5, 5, &mut rng);
        let (hop, _) = run_onswitch(OnSwitchConfig::default(), &w, 1, 10_000);
        assert_eq!(hop, Some(64));
        // A tighter epoch detects sooner — but still never in flight.
        let (hop, _) = run_onswitch(OnSwitchConfig { epoch_hops: 16 }, &w, 1, 10_000);
        assert_eq!(hop, Some(16));
    }

    #[test]
    fn state_grows_with_visited_switches() {
        let mut rng = unroller_core::test_rng(96);
        let w = Walk::random(10, 20, &mut rng);
        let (_, bits) = run_onswitch(OnSwitchConfig::default(), &w, 1, 10_000);
        // One entry per distinct visited switch for this packet.
        assert_eq!(bits, 30 * ENTRY_BITS);
        // Orders of magnitude above Unroller's fixed 40 header bits,
        // per flow, on the switch's scarce SRAM.
        assert!(bits > 50 * 40);
    }

    #[test]
    fn no_loop_no_detection() {
        let mut rng = unroller_core::test_rng(97);
        let w = Walk::random_loop_free(30, &mut rng);
        let (hop, _) = run_onswitch(OnSwitchConfig::default(), &w, 1, 30);
        assert_eq!(hop, None);
    }

    #[test]
    fn export_traffic_accrues_per_epoch() {
        let mut reg = FlowRegistry::new(OnSwitchConfig { epoch_hops: 4 });
        for hop in 1..=8 {
            reg.observe(1, 100 + hop as u32, hop);
        }
        assert_eq!(reg.detected_at(), None);
        assert!(reg.export_bits() > 0, "two exports shipped");
        assert_eq!(reg.state_bits(), 8 * ENTRY_BITS);
    }

    #[test]
    fn profile_is_the_table1_row() {
        let reg = FlowRegistry::new(OnSwitchConfig::default());
        let p = reg.profile();
        assert!(!p.real_time);
        assert_eq!(
            p.switch_overhead,
            unroller_core::prelude::OverheadLevel::High
        );
    }
}
