//! The Unroller ingress control block as a programmable-dataplane
//! program (paper §4).
//!
//! This module models the constraints the P4/BMv2/FPGA ports face:
//!
//! * All per-switch configuration lives in **registers**
//!   ([`SwitchRegisters`]): the switch ID, its pre-hashed identifiers
//!   ("it is possible to store pre-hashed identifiers into registers, to
//!   reduce the number of hash operations"), and the parameters.
//! * Phase and chunk positions come from a **256-entry lookup table**
//!   ([`PhaseLuts`]) indexed by the 8-bit `Xcnt`, exactly as the BMv2
//!   port does for bases that are not powers of two (for `b ∈ {2,4,8}`
//!   the same information is a single bitwise test — the LUT is built
//!   from [`PhaseSchedule::is_phase_start`], so the two agree by
//!   construction).
//! * Packet manipulation is the single default action of a **dummy
//!   match-action table** ([`MatchActionTable`], counted in the resource
//!   report), mirroring the P4-To-VHDL constraint that actions may only
//!   be called from tables, not straight from a control block.
//! * The per-packet work is the fixed sequence of the paper: read
//!   registers & increment `Xcnt` → hash → compare/update → verdict.
//!   It lives in one place, [`UnrollerPipeline::step`], which runs on
//!   the shim fields decoded into [`Registers`] (the PHV). Every entry
//!   point — header, frame, in-place frame, and the engine's multi-hop
//!   walk — is decode → step → encode around it, and all of them are
//!   bit-exact against the software detector (`unroller-core`) for hop
//!   counts below the 8-bit saturation point — the equivalence tests at
//!   the bottom check this on thousands of random walks.

use crate::header::{HeaderLayout, WireHeader};
use crate::parser::{check_frame, parse_frame, rewrite_shim, FrameError, ETH_HEADER_LEN};
use crate::resources::ResourceReport;
use unroller_core::hashing::HashFamily;
use unroller_core::params::{ParamError, UnrollerParams, MAX_SLOTS};
use unroller_core::phase::PhaseSchedule;
use unroller_core::{SwitchId, Verdict};

/// Lookup tables indexed by the 8-bit hop counter. Entry 0 of
/// `chunk`/`fresh` is unused (hops are 1-based); `occupied[x]` is the
/// per-chunk occupancy bitmask *after* `x` hops.
#[derive(Debug, Clone)]
pub struct PhaseLuts {
    chunk: [u8; 256],
    fresh: [bool; 256],
    occupied: [u64; 256],
}

impl PhaseLuts {
    /// Builds the tables for a schedule, base and chunk count.
    pub fn build(schedule: PhaseSchedule, b: u32, c: u32) -> Self {
        let mut chunk = [0u8; 256];
        let mut fresh = [false; 256];
        let mut occupied = [0u64; 256];
        for x in 1..256u64 {
            let pos = schedule.position(x, b, c);
            chunk[x as usize] = pos.chunk as u8;
            fresh[x as usize] = pos.is_chunk_start(x);
            occupied[x as usize] = occupied[x as usize - 1] | (1u64 << pos.chunk);
        }
        PhaseLuts {
            chunk,
            fresh,
            occupied,
        }
    }

    /// Bits of block RAM this table occupies (per entry: 8-bit chunk
    /// index, 1 fresh bit, `c` occupancy bits).
    pub fn bits(&self, c: u32) -> u64 {
        256 * (8 + 1 + c as u64)
    }
}

/// The dummy match-action table required by the P4-To-VHDL port: a
/// single entry whose default action processes the packet
/// unconditionally.
#[derive(Debug, Clone)]
pub struct MatchActionTable {
    name: &'static str,
    entries: u32,
}

impl MatchActionTable {
    fn dummy(name: &'static str) -> Self {
        MatchActionTable { name, entries: 1 }
    }

    /// Table name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of installed entries (always 1 — the default action).
    pub fn entries(&self) -> u32 {
        self.entries
    }
}

/// A packet's shim fields held in registers for processing — the P4
/// PHV. The parser decodes the shim into this struct once, the control
/// block ([`UnrollerPipeline::step`]) runs any number of hops on it, and
/// the deparser encodes it back once. Fixed-size and `Copy`: a walk
/// keeps it on the stack and never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Registers {
    /// Hop counter (saturates at 255).
    pub xcnt: u8,
    /// Threshold counter.
    pub thcnt: u32,
    /// Stored identifiers, indexed `hash_index · c + chunk_index`; only
    /// the layout's first `c · H` entries are meaningful.
    pub ids: [u32; MAX_SLOTS],
}

impl Default for Registers {
    /// The all-zero state a source host emits.
    fn default() -> Self {
        Registers {
            xcnt: 0,
            thcnt: 0,
            ids: [0; MAX_SLOTS],
        }
    }
}

impl Registers {
    /// Decodes the shim at the front of `shim` (`Xcnt` reads as 0 when
    /// the layout infers it from the TTL). Bytes past the shim may
    /// follow; passing them lets each field read load one 8-byte window.
    ///
    /// # Panics
    ///
    /// Panics if `shim` is shorter than [`HeaderLayout::total_bytes`]
    /// or the layout has more than [`MAX_SLOTS`] slots (validated
    /// parameters never do).
    #[inline]
    pub fn decode(layout: &HeaderLayout, shim: &[u8]) -> Self {
        let mut regs = Registers {
            xcnt: layout.read_xcnt(shim),
            thcnt: layout.read_thcnt(shim),
            ..Registers::default()
        };
        for (slot, id) in regs.ids[..layout.slots as usize].iter_mut().enumerate() {
            *id = layout.read_swid(shim, slot as u32);
        }
        regs
    }

    /// Encodes every field into `shim` and zeroes the padding bits, so
    /// the bytes equal [`WireHeader::encode`] of the same fields
    /// whatever `shim` held before. Bits past the shim are untouched.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Registers::decode`].
    #[inline]
    pub fn encode(&self, layout: &HeaderLayout, shim: &mut [u8]) {
        layout.write_xcnt(shim, self.xcnt);
        layout.write_thcnt(shim, self.thcnt);
        for (slot, &id) in self.ids[..layout.slots as usize].iter().enumerate() {
            layout.write_swid(shim, slot as u32, id);
        }
        layout.clear_padding(shim);
    }
}

/// Per-switch register file provisioned by the controller.
#[derive(Debug, Clone)]
pub struct SwitchRegisters {
    /// This switch's unique identifier.
    pub switch_id: SwitchId,
    /// Pre-hashed identifiers `h_i(switch_id) & z_mask` — computed once
    /// at provisioning time so the data path performs zero hash
    /// operations per packet.
    pub prehashed: Vec<u32>,
}

/// The compiled Unroller ingress pipeline for one switch.
#[derive(Debug, Clone)]
pub struct UnrollerPipeline {
    params: UnrollerParams,
    layout: HeaderLayout,
    registers: SwitchRegisters,
    luts: PhaseLuts,
    table: MatchActionTable,
}

impl UnrollerPipeline {
    /// Compiles the pipeline for `switch_id` with the default hash
    /// family (identical to [`unroller_core::Unroller::from_params`]).
    pub fn new(switch_id: SwitchId, params: UnrollerParams) -> Result<Self, ParamError> {
        Self::with_hashes(
            switch_id,
            params,
            HashFamily::default_for(params.z, params.h),
        )
    }

    /// Compiles the pipeline with an explicit hash family.
    pub fn with_hashes(
        switch_id: SwitchId,
        params: UnrollerParams,
        hashes: HashFamily,
    ) -> Result<Self, ParamError> {
        params.validate()?;
        if hashes.len() != params.h as usize {
            return Err(ParamError::NoHashes);
        }
        let mut prehashed = vec![0u32; params.h as usize];
        hashes.hash_all_into(switch_id, params.z_mask(), &mut prehashed);
        Ok(UnrollerPipeline {
            layout: HeaderLayout::from_params(&params),
            registers: SwitchRegisters {
                switch_id,
                prehashed,
            },
            luts: PhaseLuts::build(params.schedule, params.b, params.c),
            table: MatchActionTable::dummy("tab_unroller_apply"),
            params,
        })
    }

    /// The switch this pipeline is provisioned for.
    pub fn switch_id(&self) -> SwitchId {
        self.registers.switch_id
    }

    /// The shim layout this pipeline parses and deparses.
    pub fn layout(&self) -> &HeaderLayout {
        &self.layout
    }

    /// The configured parameters.
    pub fn params(&self) -> &UnrollerParams {
        &self.params
    }

    /// The control block's `apply` section for one hop — the dummy
    /// table's default action, and the **only** implementation of the
    /// per-hop rule. Every entry point — header,
    /// frame, in-place frame, and the engine's multi-hop walk — decodes
    /// the shim into [`Registers`], calls this, and encodes back.
    ///
    /// On [`Verdict::LoopReported`] the registers are left exactly as
    /// they entered the hop: a real switch drops the packet and punts a
    /// report, so nothing of this hop ever reaches the wire.
    #[inline]
    pub fn step(&self, regs: &mut Registers) -> Verdict {
        let c = self.params.c as usize;
        let prehashed = &self.registers.prehashed;

        // Stage 1: read registers, increment Xcnt (saturating — past 255
        // hops the packet's TTL has long expired; saturating avoids a
        // bogus phase restart on wrap-around).
        let prev = regs.xcnt;
        let saturated = prev == u8::MAX;
        let x = if saturated { prev } else { prev + 1 } as usize;

        // Stage 2: compare the pre-hashed identifiers against every
        // *valid* stored slot. Validity is derived from the hop counter
        // (occupancy after `prev` hops), not carried on the wire.
        let occ = self.luts.occupied[prev as usize];
        let matched = prehashed
            .iter()
            .enumerate()
            .any(|(i, &hv)| (0..c).any(|j| occ & (1 << j) != 0 && regs.ids[i * c + j] == hv));
        let thcnt = regs.thcnt + u32::from(matched);
        if matched && thcnt >= self.params.th {
            return Verdict::LoopReported;
        }

        // Continue: commit the counters and update the current chunk's
        // slots — reset at a chunk boundary, min-merge otherwise.
        regs.xcnt = x as u8;
        regs.thcnt = thcnt;
        let j = self.luts.chunk[x] as usize;
        let fresh = !saturated && self.luts.fresh[x];
        let was_occupied = occ & (1 << j) != 0;
        for (i, &hv) in prehashed.iter().enumerate() {
            let slot = &mut regs.ids[i * c + j];
            if fresh || !was_occupied || hv < *slot {
                *slot = hv;
            }
        }
        Verdict::Continue
    }

    /// Processes a parsed shim header in place: header → registers →
    /// [`Self::step`] → header. Returns the verdict; on
    /// [`Verdict::LoopReported`] a real switch would drop the packet and
    /// notify the controller, and the header is left as it entered.
    pub fn process_header(&self, hdr: &mut WireHeader) -> Verdict {
        let slots = self.layout.slots as usize;
        debug_assert_eq!(hdr.swids.len(), slots, "shim sized for wrong params");
        let mut regs = Registers {
            xcnt: hdr.xcnt,
            thcnt: hdr.thcnt,
            ..Registers::default()
        };
        regs.ids[..slots].copy_from_slice(&hdr.swids[..slots]);
        let verdict = self.step(&mut regs);
        hdr.xcnt = regs.xcnt;
        hdr.thcnt = regs.thcnt;
        hdr.swids[..slots].copy_from_slice(&regs.ids[..slots]);
        verdict
    }

    /// Processes a batch of shim headers through this switch's control
    /// block, appending one [`Verdict`] per header to `verdicts` (in
    /// batch order). A software switch amortizes per-packet dispatch
    /// over a batch exactly like DPDK-style burst processing, and the
    /// register file is read-only per packet, so a batch needs no
    /// intra-batch synchronization.
    ///
    /// Equivalent to calling [`UnrollerPipeline::process_header`] on
    /// each header in order (the equivalence test below checks this).
    pub fn process_batch(&self, batch: &mut [WireHeader], verdicts: &mut Vec<Verdict>) {
        verdicts.reserve(batch.len());
        for hdr in batch.iter_mut() {
            verdicts.push(self.process_header(hdr));
        }
    }

    /// Processing for the TTL-inferred hop-count configuration (paper
    /// footnote 3: "in cases where the hop number can be inferred from
    /// the TTL we can avoid storing Xcnt"): the shim carries no `Xcnt`
    /// field (`xcnt_in_header = false`, saving 8 bits), and the switch
    /// derives the hops already traversed as
    /// `initial_ttl − current_ttl`, passed here as `hops_before`.
    ///
    /// The decoded header's `xcnt` is overwritten from the TTL before
    /// the control block runs, so behaviour is identical to the
    /// header-carried variant.
    pub fn process_header_ttl(&self, hdr: &mut WireHeader, hops_before: u8) -> Verdict {
        hdr.xcnt = hops_before;
        self.process_header(hdr)
    }

    /// Full data-path processing of an Ethernet frame carrying the shim:
    /// parse → control block → deparse (in place). On
    /// [`Verdict::LoopReported`] the frame is left unmodified — the
    /// switch would drop it and punt a report to the controller.
    pub fn process_frame(&self, frame: &mut [u8]) -> Result<Verdict, FrameError> {
        let (_eth, mut shim, _payload) = parse_frame(&self.layout, frame)?;
        let verdict = self.process_header(&mut shim);
        if verdict == Verdict::Continue {
            rewrite_shim(&self.layout, frame, &shim);
        }
        Ok(verdict)
    }

    /// Zero-copy data-path processing of one hop: decode the shim
    /// straight out of the frame buffer into stack [`Registers`],
    /// [`Self::step`], and encode back into the same bytes — no
    /// allocation. Bit-exact with [`UnrollerPipeline::process_frame`]
    /// (property-tested in `tests/frame_inplace.rs`); on
    /// [`Verdict::LoopReported`] the frame is left untouched.
    pub fn process_frame_in_place(&self, frame: &mut [u8]) -> Result<Verdict, FrameError> {
        check_frame(&self.layout, frame)?;
        // The shim and the payload behind it: field accesses then load
        // whole 8-byte windows instead of assembling bytes one by one.
        let shim = &mut frame[ETH_HEADER_LEN..];
        let mut regs = Registers::decode(&self.layout, shim);
        let verdict = self.step(&mut regs);
        if verdict == Verdict::Continue {
            regs.encode(&self.layout, shim);
        }
        Ok(verdict)
    }

    /// The resource footprint of this pipeline (the Table 4 substitute;
    /// see `DESIGN.md` §3).
    pub fn resources(&self) -> ResourceReport {
        let p = &self.params;
        // What the emitted P4 source declares: z bits per pre-hashed
        // identifier, plus the phase/chunk LUT registers when present.
        let p4_lut_bits = if !p.b.is_power_of_two() {
            256 * (1 + 8)
        } else if p.c > 1 {
            256 * 8
        } else {
            0
        };
        ResourceReport {
            config: format!(
                "b={} z={} c={} H={} Th={} ({:?})",
                p.b, p.z, p.c, p.h, p.th, p.schedule
            ),
            pipeline_stages: 2,
            register_bits: 32 + 32 * p.h as u64 + self.luts.bits(p.c),
            table_entries: self.table.entries() + 256,
            header_bits: self.layout.total_bits(),
            p4_register_bits: (p.z * p.h) as u64 + p4_lut_bits,
            p4_tables: 1,
            per_packet_hash_ops: 0, // pre-hashed into registers
            per_packet_compares: (p.c * p.h) as u64,
            per_packet_min_updates: p.h as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{build_frame, EthernetHeader};
    use rand::Rng;
    use unroller_core::{InPacketDetector, Unroller};

    /// Drives a chain of per-switch pipelines along a hop sequence.
    fn drive_pipelines(params: UnrollerParams, hops: &[SwitchId]) -> Option<usize> {
        let layout = HeaderLayout::from_params(&params);
        let mut hdr = WireHeader::initial(&layout);
        for (i, &sw) in hops.iter().enumerate() {
            let pipe = UnrollerPipeline::new(sw, params).unwrap();
            if pipe.process_header(&mut hdr).reported() {
                return Some(i + 1);
            }
        }
        None
    }

    /// Drives the software detector along the same sequence.
    fn drive_software(params: UnrollerParams, hops: &[SwitchId]) -> Option<usize> {
        let det = Unroller::from_params(params).unwrap();
        let mut st = det.init_state();
        for (i, &sw) in hops.iter().enumerate() {
            if det.on_switch(&mut st, sw).reported() {
                return Some(i + 1);
            }
        }
        None
    }

    #[test]
    fn pipeline_matches_software_detector_exactly() {
        // The headline equivalence: the bit-packed dataplane pipeline
        // behaves identically to the reference software detector across
        // parameter space, on both looping and loop-free hop sequences.
        let mut rng = unroller_core::test_rng(71);
        let configs = [
            UnrollerParams::default(),
            UnrollerParams::default().with_b(2),
            UnrollerParams::default().with_schedule(PhaseSchedule::CumulativeGeometric),
            UnrollerParams::default().with_z(8),
            UnrollerParams::default().with_z(7).with_th(4),
            UnrollerParams::default().with_c(2).with_h(2).with_z(12),
            UnrollerParams::default().with_c(4).with_h(1),
            UnrollerParams::default().with_b(3), // LUT path (non power of two)
        ];
        for params in configs {
            for _ in 0..40 {
                let b = rng.gen_range(0..8);
                let l = rng.gen_range(1..12);
                let walk = unroller_core::Walk::random(b, l, &mut rng);
                let hops: Vec<SwitchId> = (1..=200u64).map_while(|h| walk.switch_at(h)).collect();
                assert_eq!(
                    drive_pipelines(params, &hops),
                    drive_software(params, &hops),
                    "divergence for {params:?} on B={b} L={l}"
                );
            }
            // Loop-free paths too (false-positive behaviour must match).
            for _ in 0..20 {
                let walk = unroller_core::Walk::random_loop_free(30, &mut rng);
                let hops: Vec<SwitchId> = (1..=30u64).map_while(|h| walk.switch_at(h)).collect();
                assert_eq!(
                    drive_pipelines(params, &hops),
                    drive_software(params, &hops),
                    "loop-free divergence for {params:?}"
                );
            }
        }
    }

    #[test]
    fn step_on_registers_matches_software_detector() {
        // The kernel itself, driven on one set of registers along a
        // whole walk (as the engine does), against the software
        // detector — including Th > 1, c·H = 64 and non-power-of-two
        // bases. A reporting step must leave the registers untouched.
        let mut rng = unroller_core::test_rng(91);
        let configs = [
            UnrollerParams::default(),
            UnrollerParams::default().with_z(7).with_th(4),
            UnrollerParams::default()
                .with_c(8)
                .with_h(8)
                .with_z(9)
                .with_th(3),
            UnrollerParams::default().with_b(3).with_c(2).with_th(2),
            UnrollerParams::default()
                .with_b(5)
                .with_schedule(PhaseSchedule::CumulativeGeometric),
        ];
        for params in configs {
            let det = Unroller::from_params(params).unwrap();
            for _ in 0..60 {
                let walk = if rng.gen_bool(0.2) {
                    unroller_core::Walk::random_loop_free(15, &mut rng)
                } else {
                    unroller_core::Walk::random(rng.gen_range(0..6), rng.gen_range(1..10), &mut rng)
                };
                let mut regs = Registers::default();
                let mut st = det.init_state();
                for hop in 1..=200u64 {
                    let Some(sw) = walk.switch_at(hop) else { break };
                    let before = regs;
                    let hw = UnrollerPipeline::new(sw, params).unwrap().step(&mut regs);
                    assert_eq!(hw, det.on_switch(&mut st, sw), "hop {hop} for {params:?}");
                    if hw.reported() {
                        assert_eq!(regs, before, "a reporting step leaves the registers");
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn registers_encode_like_wire_header_and_clear_padding() {
        let mut rng = unroller_core::test_rng(92);
        for _ in 0..200 {
            let p = UnrollerParams {
                xcnt_in_header: rng.gen(),
                ..UnrollerParams::default()
                    .with_c(rng.gen_range(1..=8))
                    .with_h(rng.gen_range(1..=8))
                    .with_z(rng.gen_range(1..=32))
                    .with_th(rng.gen_range(1..=8))
            };
            let layout = HeaderLayout::from_params(&p);
            let hdr = WireHeader {
                xcnt: if p.xcnt_in_header { rng.gen() } else { 0 },
                thcnt: rng.gen_range(0..p.th),
                swids: (0..layout.slots)
                    .map(|_| rng.gen::<u32>() & p.z_mask())
                    .collect(),
            };
            let wire = hdr.encode(&layout);
            let regs = Registers::decode(&layout, &wire);
            assert_eq!(
                (regs.xcnt, regs.thcnt, &regs.ids[..layout.slots as usize]),
                (hdr.xcnt, hdr.thcnt, &hdr.swids[..])
            );
            assert!(regs.ids[layout.slots as usize..].iter().all(|&id| id == 0));
            // Encoding over garbage reproduces the canonical bytes.
            let mut shim: Vec<u8> = (0..wire.len()).map(|_| rng.gen()).collect();
            regs.encode(&layout, &mut shim);
            assert_eq!(shim, wire);
        }
    }

    #[test]
    fn frame_level_processing_detects_loop() {
        let params = UnrollerParams::default();
        let layout = HeaderLayout::from_params(&params);
        let eth = EthernetHeader::for_hosts(1, 2);
        let shim = WireHeader::initial(&layout);
        let mut frame = build_frame(&layout, &eth, &shim, b"data");

        // Ping-pong between switches 100 and 200.
        let s100 = UnrollerPipeline::new(100, params).unwrap();
        let s200 = UnrollerPipeline::new(200, params).unwrap();
        assert_eq!(s100.process_frame(&mut frame).unwrap(), Verdict::Continue);
        assert_eq!(s200.process_frame(&mut frame).unwrap(), Verdict::Continue);
        assert_eq!(
            s100.process_frame(&mut frame).unwrap(),
            Verdict::LoopReported
        );
    }

    #[test]
    fn payload_untouched_by_processing() {
        let params = UnrollerParams::default();
        let layout = HeaderLayout::from_params(&params);
        let eth = EthernetHeader::for_hosts(1, 2);
        let mut frame = build_frame(&layout, &eth, &WireHeader::initial(&layout), b"payload!");
        let pipe = UnrollerPipeline::new(7, params).unwrap();
        pipe.process_frame(&mut frame).unwrap();
        let (_, _, payload) = parse_frame(&layout, &frame).unwrap();
        assert_eq!(payload, b"payload!");
    }

    #[test]
    fn xcnt_saturates_instead_of_wrapping() {
        let params = UnrollerParams::default();
        let pipe = UnrollerPipeline::new(5, params).unwrap();
        let layout = HeaderLayout::from_params(&params);
        let mut hdr = WireHeader::initial(&layout);
        hdr.xcnt = 255;
        hdr.swids[0] = 999_999;
        let v = pipe.process_header(&mut hdr);
        assert_eq!(v, Verdict::Continue);
        assert_eq!(hdr.xcnt, 255, "must not wrap to 0");
        // Saturated hops must never act as a phase start: the stored ID
        // only min-merges.
        assert_eq!(hdr.swids[0], 5);
        let mut hdr2 = WireHeader::initial(&layout);
        hdr2.xcnt = 255;
        hdr2.swids[0] = 1; // smaller than switch ID 5
        pipe.process_header(&mut hdr2);
        assert_eq!(hdr2.swids[0], 1, "min must survive while saturated");
    }

    #[test]
    fn process_batch_matches_per_header_processing() {
        // The batched entry point must be observationally identical to
        // calling process_header per packet, across parameter space.
        let mut rng = unroller_core::test_rng(77);
        for params in [
            UnrollerParams::default(),
            UnrollerParams::default().with_c(2).with_h(2).with_z(12),
            UnrollerParams::default().with_b(3).with_th(2),
        ] {
            let layout = HeaderLayout::from_params(&params);
            let pipe = UnrollerPipeline::new(42, params).unwrap();
            // Headers at assorted journey stages, including revisits.
            let mut batch: Vec<WireHeader> = (0..64)
                .map(|_| {
                    let mut hdr = WireHeader::initial(&layout);
                    hdr.xcnt = rng.gen_range(0..200);
                    for slot in hdr.swids.iter_mut() {
                        *slot = rng.gen::<u32>() & params.z_mask();
                    }
                    hdr
                })
                .collect();
            let mut singles = batch.clone();
            let mut verdicts = Vec::new();
            pipe.process_batch(&mut batch, &mut verdicts);
            assert_eq!(verdicts.len(), singles.len());
            for (i, hdr) in singles.iter_mut().enumerate() {
                assert_eq!(pipe.process_header(hdr), verdicts[i], "verdict {i}");
                assert_eq!(*hdr, batch[i], "header {i} diverged");
            }
        }
    }

    #[test]
    fn process_batch_appends_without_clearing() {
        let params = UnrollerParams::default();
        let layout = HeaderLayout::from_params(&params);
        let pipe = UnrollerPipeline::new(9, params).unwrap();
        let mut batch = vec![WireHeader::initial(&layout); 3];
        let mut verdicts = vec![Verdict::LoopReported]; // pre-existing entry
        pipe.process_batch(&mut batch, &mut verdicts);
        assert_eq!(verdicts.len(), 4, "appends after existing entries");
        assert!(verdicts[1..].iter().all(|v| !v.reported()));
    }

    #[test]
    fn in_place_matches_frame_path_on_random_walks() {
        // The zero-copy path must produce byte-identical frames and
        // identical verdicts to the decode/encode frame path, hop by
        // hop, across parameter space (incl. multi-chunk, multi-hash,
        // non-power-of-two bases and th=1's zero-width Thcnt).
        let mut rng = unroller_core::test_rng(79);
        for params in [
            UnrollerParams::default(),
            UnrollerParams::default().with_z(7).with_th(4),
            UnrollerParams::default().with_c(2).with_h(2).with_z(12),
            UnrollerParams::default().with_b(3).with_th(2),
            UnrollerParams::default().with_c(4).with_h(1).with_z(9),
        ] {
            let layout = HeaderLayout::from_params(&params);
            for _ in 0..20 {
                let b = rng.gen_range(0..6);
                let l = rng.gen_range(1..10);
                let walk = unroller_core::Walk::random(b, l, &mut rng);
                let eth = EthernetHeader::for_hosts(1, 2);
                let shim = WireHeader::initial(&layout);
                let mut frame_a = build_frame(&layout, &eth, &shim, b"equivalence");
                let mut frame_b = frame_a.clone();
                for hop in 1..=200u64 {
                    let Some(sw) = walk.switch_at(hop) else { break };
                    let pipe = UnrollerPipeline::new(sw, params).unwrap();
                    let va = pipe.process_frame(&mut frame_a).unwrap();
                    let vb = pipe.process_frame_in_place(&mut frame_b).unwrap();
                    assert_eq!(va, vb, "verdict diverged at hop {hop} for {params:?}");
                    assert_eq!(
                        frame_a, frame_b,
                        "bytes diverged at hop {hop} for {params:?}"
                    );
                    if va.reported() {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn in_place_leaves_frame_untouched_on_report() {
        let params = UnrollerParams::default();
        let layout = HeaderLayout::from_params(&params);
        let eth = EthernetHeader::for_hosts(1, 2);
        let mut frame = build_frame(&layout, &eth, &WireHeader::initial(&layout), b"x");
        let s100 = UnrollerPipeline::new(100, params).unwrap();
        let s200 = UnrollerPipeline::new(200, params).unwrap();
        s100.process_frame_in_place(&mut frame).unwrap();
        s200.process_frame_in_place(&mut frame).unwrap();
        let before = frame.clone();
        assert_eq!(
            s100.process_frame_in_place(&mut frame).unwrap(),
            Verdict::LoopReported
        );
        assert_eq!(frame, before, "reported frame must not be rewritten");
    }

    #[test]
    fn in_place_rejects_malformed_frames() {
        let params = UnrollerParams::default();
        let layout = HeaderLayout::from_params(&params);
        let pipe = UnrollerPipeline::new(1, params).unwrap();
        let mut short = vec![0u8; 10];
        assert!(matches!(
            pipe.process_frame_in_place(&mut short),
            Err(FrameError::TooShort { len: 10, .. })
        ));
        let mut eth = EthernetHeader::for_hosts(1, 2);
        eth.ethertype = 0x0800;
        let mut frame = build_frame(&layout, &eth, &WireHeader::initial(&layout), b"");
        let before = frame.clone();
        assert_eq!(
            pipe.process_frame_in_place(&mut frame),
            Err(FrameError::WrongEthertype(0x0800))
        );
        assert_eq!(frame, before, "rejected frame must not be modified");
    }

    #[test]
    fn lut_agrees_with_bitwise_power_check() {
        // For b = 4 the fresh LUT must mark exactly the powers of four —
        // the hardware's single bitwise test.
        let luts = PhaseLuts::build(PhaseSchedule::PowerBoundary, 4, 1);
        for x in 1..256usize {
            let is_pow4 = x.is_power_of_two() && (x.trailing_zeros() % 2 == 0);
            assert_eq!(luts.fresh[x], is_pow4, "x={x}");
        }
    }

    #[test]
    fn occupancy_grows_monotonically() {
        for c in [1u32, 2, 4, 8] {
            let luts = PhaseLuts::build(PhaseSchedule::PowerBoundary, 4, c);
            for x in 1..256usize {
                assert_eq!(
                    luts.occupied[x - 1] & !luts.occupied[x],
                    0,
                    "occupancy lost bits at x={x}, c={c}"
                );
            }
            // Eventually every chunk is occupied.
            assert_eq!(luts.occupied[255], (1u64 << c) - 1);
        }
    }

    #[test]
    fn ttl_inferred_variant_matches_header_variant() {
        // Same algorithm, 8 fewer header bits: drive both variants along
        // identical walks and require identical verdict sequences.
        let hdr_params = UnrollerParams::default().with_z(12).with_th(2);
        let ttl_params = UnrollerParams {
            xcnt_in_header: false,
            ..hdr_params
        };
        assert_eq!(
            ttl_params.overhead_bits() + 8,
            hdr_params.overhead_bits(),
            "TTL variant saves exactly the Xcnt field"
        );
        let mut rng = unroller_core::test_rng(73);
        for _ in 0..20 {
            let walk = unroller_core::Walk::random(4, 8, &mut rng);
            let mut h1 = WireHeader::initial(&HeaderLayout::from_params(&hdr_params));
            let mut h2 = WireHeader::initial(&HeaderLayout::from_params(&ttl_params));
            let initial_ttl = 64u8;
            let mut ttl = initial_ttl;
            for hop in 1..=100u64 {
                let sw = walk.switch_at(hop).unwrap();
                let a = UnrollerPipeline::new(sw, hdr_params)
                    .unwrap()
                    .process_header(&mut h1)
                    .reported();
                let hops_before = initial_ttl - ttl;
                let b = UnrollerPipeline::new(sw, ttl_params)
                    .unwrap()
                    .process_header_ttl(&mut h2, hops_before)
                    .reported();
                ttl -= 1;
                assert_eq!(a, b, "hop {hop}");
                if a {
                    break;
                }
            }
        }
    }

    #[test]
    fn resource_report_sane() {
        let pipe = UnrollerPipeline::new(1, UnrollerParams::default()).unwrap();
        let r = pipe.resources();
        assert_eq!(r.pipeline_stages, 2); // §4: "Unroller requires two pipeline stages"
        assert_eq!(r.header_bits, 40);
        assert_eq!(r.per_packet_hash_ops, 0);
        assert!(r.register_bits > 0);
    }

    #[test]
    fn mismatched_hash_family_rejected() {
        let fam = HashFamily::default_for(8, 2);
        assert!(
            UnrollerPipeline::with_hashes(1, UnrollerParams::default().with_h(4), fam).is_err()
        );
    }
}
