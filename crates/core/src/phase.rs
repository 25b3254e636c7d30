//! Phase schedules: when does the stored identifier reset?
//!
//! Unroller's key trick is to divide a packet's journey into *phases*
//! whose lengths grow geometrically with base `b`, and to overwrite
//! ("reset") the stored identifier at the start of every phase. The paper
//! uses two slightly different schedules:
//!
//! * **Analysis schedule** ([`PhaseSchedule::CumulativeGeometric`], §3):
//!   the *i*-th phase lasts exactly `bⁱ` hops, so phase boundaries fall at
//!   cumulative sums `(bᵖ − 1)/(b − 1)`. Theorem 1's constants
//!   (`≤ 4.67·X` for `b = 4`) are proved for this schedule.
//!
//! * **Implementation schedule** ([`PhaseSchedule::PowerBoundary`], §4):
//!   the identifier resets whenever the hop counter `Xcnt` equals a power
//!   of `b`. For `b = 2` or `b = 4` this is a single bitwise test in
//!   hardware, which is why the P4 prototype uses it. Phase `k` spans hops
//!   `bᵏ ..= bᵏ⁺¹ − 1` and lasts `bᵏ·(b − 1)` hops — still geometric
//!   growth, so the same asymptotics hold with different constants.
//!
//! Both schedules also support the Appendix B *chunk* partition: each
//! phase is split into `c` chunks with boundaries at
//! `⌊len·j/c⌋` for `j = 0..c`, and each chunk tracks its own minimum.

use serde::{Deserialize, Serialize};

/// Which rule decides where phases begin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum PhaseSchedule {
    /// Reset when `Xcnt` is a power of `b` (the paper's P4/FPGA
    /// implementation; the default).
    #[default]
    PowerBoundary,
    /// The *i*-th phase lasts `bⁱ` hops (the paper's analysis; Theorem 1
    /// constants apply to this schedule exactly).
    CumulativeGeometric,
}

/// Where a given hop falls within the phase/chunk structure.
///
/// Hops are numbered from 1 (the value of `Xcnt` *after* the increment a
/// switch performs on packet arrival).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopPosition {
    /// Phase index (0-based).
    pub phase: u32,
    /// First hop number belonging to this phase.
    pub phase_start: u64,
    /// Number of hops in this phase.
    pub phase_len: u64,
    /// Chunk index within the phase (0-based, `< c`).
    pub chunk: u32,
    /// First hop number belonging to this chunk.
    pub chunk_start: u64,
}

impl HopPosition {
    /// True if `xcnt` is the first hop of its phase (identifier reset).
    pub fn is_phase_start(&self, xcnt: u64) -> bool {
        xcnt == self.phase_start
    }

    /// True if `xcnt` is the first hop of its chunk (that chunk's slot is
    /// overwritten rather than min-updated).
    pub fn is_chunk_start(&self, xcnt: u64) -> bool {
        xcnt == self.chunk_start
    }
}

impl PhaseSchedule {
    /// Locates hop number `xcnt` (1-based) in the phase/chunk structure
    /// for base `b` and `c` chunks per phase.
    ///
    /// # Panics
    ///
    /// Panics if `xcnt == 0`, `b < 2` or `c == 0` — these are rejected by
    /// [`crate::params::UnrollerParams::validate`] before any detector is
    /// constructed.
    pub fn position(self, xcnt: u64, b: u32, c: u32) -> HopPosition {
        assert!(xcnt >= 1, "hop numbers are 1-based");
        assert!(b >= 2, "phase base must be at least 2");
        assert!(c >= 1, "chunk count must be at least 1");
        let b = b as u64;
        let (phase, phase_start, phase_len) = match self {
            PhaseSchedule::PowerBoundary => {
                // Phase k spans [b^k, b^{k+1} - 1].
                let mut k = 0u32;
                let mut start = 1u64; // b^0
                loop {
                    let next = start.saturating_mul(b);
                    if xcnt < next || next == start {
                        // `next == start` only when multiplication
                        // saturated at u64::MAX; treat the rest of the hop
                        // line as one final phase.
                        break (k, start, if next == start { 1 } else { next - start });
                    }
                    k += 1;
                    start = next;
                }
            }
            PhaseSchedule::CumulativeGeometric => {
                // Phase i spans [(b^i - 1)/(b-1) + 1, (b^{i+1} - 1)/(b-1)]
                // and lasts b^i hops.
                let mut i = 0u32;
                let mut start = 1u64;
                let mut len = 1u64; // b^0
                loop {
                    let end = start.saturating_add(len - 1);
                    if xcnt <= end {
                        break (i, start, len);
                    }
                    i += 1;
                    start = end + 1;
                    len = len.saturating_mul(b);
                }
            }
        };

        let (chunk, chunk_start) = chunk_of(xcnt - phase_start, phase_len, c);
        HopPosition {
            phase,
            phase_start,
            phase_len,
            chunk,
            chunk_start: phase_start + chunk_start,
        }
    }

    /// True if hop `xcnt` starts a new phase. For the power-boundary
    /// schedule with `b` a power of two this reduces to the bitwise check
    /// the hardware uses (a single `is_power_of_b` test on the counter).
    pub fn is_phase_start(self, xcnt: u64, b: u32) -> bool {
        self.position(xcnt, b, 1).phase_start == xcnt
    }

    /// Builds the phase-start lookup table the BMv2/FPGA implementation
    /// keeps for bases that are not powers of two (§4 "Compiling Unroller
    /// to programmable switches"): `table[x] == true` iff hop `x` starts a
    /// new phase. Index 0 is unused (hops are 1-based).
    pub fn phase_start_table(self, b: u32, size: usize) -> Vec<bool> {
        let mut table = vec![false; size];
        for (x, slot) in table.iter_mut().enumerate().skip(1) {
            *slot = self.is_phase_start(x as u64, b);
        }
        table
    }

    /// Builds the chunk-index lookup table the implementation keeps when
    /// `c > 1`: `table[x]` is the 0-based chunk hop `x` falls in. Index 0
    /// is unused (hops are 1-based). Both the controller's provisioning
    /// script and the `unroller-verify` phase-table pass derive their
    /// expected values from this single source.
    pub fn chunk_table(self, b: u32, c: u32, size: usize) -> Vec<u8> {
        let mut table = vec![0u8; size];
        for (x, slot) in table.iter_mut().enumerate().skip(1) {
            *slot = self.position(x as u64, b, c).chunk as u8;
        }
        table
    }
}

/// Hops a [`PositionTable`] covers directly (index 0 is unused).
pub(crate) const POSITION_TABLE_LEN: usize = 4096;

/// Marks a [`PositionTable`] entry whose hop starts its chunk.
const CHUNK_START: u8 = 0x80;

/// The per-hop answer the detector's update step needs — which chunk
/// hop `xcnt` falls in, and whether it is that chunk's first hop —
/// precomputed from [`PhaseSchedule::position`] for hops
/// `1 .. POSITION_TABLE_LEN`. Hops past the table fall back to
/// `position()`, so every hop count gets the same answer.
///
/// Each entry is one byte: the chunk index in the low 7 bits (a
/// validated configuration has `c ≤ 64`), [`CHUNK_START`] on top.
#[derive(Clone)]
pub(crate) struct PositionTable {
    entries: Box<[u8]>,
    schedule: PhaseSchedule,
    b: u32,
    c: u32,
}

impl PositionTable {
    /// Builds the table for `schedule` with base `b` and `c` chunks.
    ///
    /// # Panics
    ///
    /// Panics if `b < 2` or `c` is not in `1 ..= 127`.
    pub(crate) fn new(schedule: PhaseSchedule, b: u32, c: u32) -> Self {
        assert!((1..=127).contains(&c), "chunk index must fit in 7 bits");
        // Phase by phase, chunk by chunk: chunk `j` of a phase starting
        // at `start` covers `start + ⌊len·j/c⌋ ..` up to the next chunk's
        // start, exactly as `position()` assigns hops (an empty chunk
        // covers nothing). One pass, no per-hop search.
        let end = POSITION_TABLE_LEN as u64;
        let mut entries = vec![0u8; POSITION_TABLE_LEN].into_boxed_slice();
        let mut start = 1u64;
        while start < end {
            let len = schedule.position(start, b, 1).phase_len;
            for j in 0..c as u64 {
                let lo = start + len * j / c as u64;
                let hi = (start + len * (j + 1) / c as u64).min(end);
                for x in lo..hi {
                    entries[x as usize] = j as u8 | if x == lo { CHUNK_START } else { 0 };
                }
            }
            start += len;
        }
        PositionTable {
            entries,
            schedule,
            b,
            c,
        }
    }

    /// `(chunk, chunk starts at this hop)` for 1-based hop `xcnt`.
    #[inline]
    pub(crate) fn at(&self, xcnt: u64) -> (usize, bool) {
        match usize::try_from(xcnt).ok().and_then(|x| self.entries.get(x)) {
            Some(&e) => ((e & !CHUNK_START) as usize, e & CHUNK_START != 0),
            None => {
                let pos = self.schedule.position(xcnt, self.b, self.c);
                (pos.chunk as usize, pos.is_chunk_start(xcnt))
            }
        }
    }
}

impl std::fmt::Debug for PositionTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PositionTable")
            .field("schedule", &self.schedule)
            .field("b", &self.b)
            .field("c", &self.c)
            .field("entries", &self.entries.len())
            .finish()
    }
}

/// Locates 0-based offset `off` within a phase of `len` hops split into
/// `c` chunks with boundaries at `⌊len·j/c⌋`. Returns the chunk index and
/// the chunk's starting offset.
fn chunk_of(off: u64, len: u64, c: u32) -> (u32, u64) {
    debug_assert!(off < len);
    if c == 1 {
        return (0, 0);
    }
    let c = c as u128;
    let (off_w, len_w) = (off as u128, len as u128);
    // chunk j covers offsets [⌊len·j/c⌋, ⌊len·(j+1)/c⌋); pick the largest
    // j with ⌊len·j/c⌋ <= off, i.e. j = ⌊((off+1)·c − 1) / len⌋.
    // 128-bit intermediates: off·c can exceed u64 near the hop-count cap.
    let j = (((off_w + 1) * c - 1) / len_w).min(c - 1);
    // The chunk's first offset is the smallest off' with ⌊len·j/c⌋ <= off':
    let start = (len_w * j / c) as u64;
    let j = j as u64;
    debug_assert!(start <= off);
    (j as u32, start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_boundary_resets_at_powers() {
        let s = PhaseSchedule::PowerBoundary;
        for b in [2u32, 3, 4, 6, 8] {
            for x in 1u64..2000 {
                let expected = {
                    // x is a power of b?
                    let mut p = 1u64;
                    loop {
                        if p == x {
                            break true;
                        }
                        if p > x {
                            break false;
                        }
                        p *= b as u64;
                    }
                };
                assert_eq!(s.is_phase_start(x, b), expected, "b={b} x={x}");
            }
        }
    }

    #[test]
    fn cumulative_geometric_phase_lengths() {
        let s = PhaseSchedule::CumulativeGeometric;
        // For b = 4 phases last 1, 4, 16, 64 hops: boundaries at
        // 1, 2, 6, 22, 86.
        for (x, (phase, start, len)) in [
            (1u64, (0u32, 1u64, 1u64)),
            (2, (1, 2, 4)),
            (5, (1, 2, 4)),
            (6, (2, 6, 16)),
            (21, (2, 6, 16)),
            (22, (3, 22, 64)),
            (85, (3, 22, 64)),
            (86, (4, 86, 256)),
        ] {
            let pos = s.position(x, 4, 1);
            assert_eq!(
                (pos.phase, pos.phase_start, pos.phase_len),
                (phase, start, len),
                "x={x}"
            );
        }
    }

    #[test]
    fn power_boundary_phase_lengths() {
        let s = PhaseSchedule::PowerBoundary;
        // For b = 4: phase 0 = [1,3], phase 1 = [4,15], phase 2 = [16,63].
        for (x, (phase, start, len)) in [
            (1u64, (0u32, 1u64, 3u64)),
            (3, (0, 1, 3)),
            (4, (1, 4, 12)),
            (15, (1, 4, 12)),
            (16, (2, 16, 48)),
            (63, (2, 16, 48)),
            (64, (3, 64, 192)),
        ] {
            let pos = s.position(x, 4, 1);
            assert_eq!(
                (pos.phase, pos.phase_start, pos.phase_len),
                (phase, start, len),
                "x={x}"
            );
        }
    }

    #[test]
    fn phases_partition_the_hop_line() {
        // Every hop belongs to exactly one phase; phases are contiguous.
        for schedule in [
            PhaseSchedule::PowerBoundary,
            PhaseSchedule::CumulativeGeometric,
        ] {
            for b in [2u32, 3, 4, 7] {
                let mut prev = schedule.position(1, b, 1);
                assert_eq!(prev.phase_start, 1);
                for x in 2u64..5000 {
                    let pos = schedule.position(x, b, 1);
                    if pos.phase == prev.phase {
                        assert_eq!(pos.phase_start, prev.phase_start);
                        assert_eq!(pos.phase_len, prev.phase_len);
                    } else {
                        assert_eq!(pos.phase, prev.phase + 1, "phases advance one at a time");
                        assert_eq!(
                            pos.phase_start,
                            prev.phase_start + prev.phase_len,
                            "no gaps between phases (schedule {schedule:?}, b={b}, x={x})"
                        );
                    }
                    prev = pos;
                }
            }
        }
    }

    #[test]
    fn chunks_partition_each_phase() {
        for schedule in [
            PhaseSchedule::PowerBoundary,
            PhaseSchedule::CumulativeGeometric,
        ] {
            for b in [2u32, 4] {
                for c in [1u32, 2, 3, 4, 8] {
                    let mut prev: Option<HopPosition> = None;
                    for x in 1u64..2000 {
                        let pos = schedule.position(x, b, c);
                        assert!(pos.chunk < c);
                        assert!(pos.chunk_start <= x);
                        assert!(pos.chunk_start >= pos.phase_start);
                        if let Some(p) = prev {
                            if pos.phase == p.phase {
                                // Chunk indices never decrease within a phase.
                                assert!(pos.chunk >= p.chunk);
                            } else {
                                // A new phase restarts chunks at the first
                                // non-empty chunk (chunk 0 when len >= c).
                                if pos.phase_len >= c as u64 {
                                    assert_eq!(pos.chunk, 0, "x={x} b={b} c={c}");
                                }
                            }
                        }
                        prev = Some(pos);
                    }
                }
            }
        }
    }

    #[test]
    fn chunk_boundaries_match_paper_formula() {
        // Appendix B: chunk j gets hops ⌊len·(j−1)/c⌋ .. ⌊len·j/c⌋ − 1
        // (1-based j). Check against the closed form directly.
        for len in 1u64..200 {
            for c in 1u32..=8 {
                for off in 0..len {
                    let (j, start) = chunk_of(off, len, c);
                    let lo = len * j as u64 / c as u64;
                    let hi = len * (j as u64 + 1) / c as u64;
                    assert!(
                        lo <= off && (off < hi || j as u64 == c as u64 - 1),
                        "off={off} len={len} c={c} j={j} lo={lo} hi={hi}"
                    );
                    assert_eq!(start, lo);
                }
            }
        }
    }

    #[test]
    fn lookup_table_matches_direct_check() {
        // The 256-entry table used on BMv2 must agree with the bitwise
        // check for b = 4 and with the direct computation for b = 3.
        for b in [2u32, 3, 4, 5] {
            let table = PhaseSchedule::PowerBoundary.phase_start_table(b, 256);
            for x in 1..256u64 {
                assert_eq!(
                    table[x as usize],
                    PhaseSchedule::PowerBoundary.is_phase_start(x, b)
                );
            }
        }
        // For b = 4 the table marks exactly the powers of 4.
        let table = PhaseSchedule::PowerBoundary.phase_start_table(4, 256);
        let marked: Vec<usize> = (0..256).filter(|&i| table[i]).collect();
        assert_eq!(marked, vec![1, 4, 16, 64]);
    }

    #[test]
    fn chunk_table_matches_position() {
        for schedule in [
            PhaseSchedule::PowerBoundary,
            PhaseSchedule::CumulativeGeometric,
        ] {
            for (b, c) in [(4u32, 2u32), (3, 4), (2, 8), (6, 3)] {
                let t = schedule.chunk_table(b, c, 256);
                assert_eq!(t[0], 0, "index 0 unused");
                for x in 1..256u64 {
                    assert_eq!(
                        t[x as usize],
                        schedule.position(x, b, c).chunk as u8,
                        "schedule {schedule:?} b={b} c={c} x={x}"
                    );
                }
            }
        }
    }

    #[test]
    fn saturation_does_not_panic_at_huge_hop_counts() {
        for schedule in [
            PhaseSchedule::PowerBoundary,
            PhaseSchedule::CumulativeGeometric,
        ] {
            let pos = schedule.position(u64::MAX / 2, 2, 4);
            assert!(pos.phase_len > 0);
        }
    }

    #[test]
    fn position_table_matches_position_past_its_end() {
        for schedule in [
            PhaseSchedule::PowerBoundary,
            PhaseSchedule::CumulativeGeometric,
        ] {
            for (b, c) in [(2u32, 1u32), (4, 2), (3, 4), (2, 8), (6, 3), (4, 64)] {
                let table = PositionTable::new(schedule, b, c);
                let far = [u64::MAX / 2, u64::MAX - 1, 1 << 40];
                let near = 1..POSITION_TABLE_LEN as u64 + 600;
                for x in near.chain(far) {
                    let pos = schedule.position(x, b, c);
                    assert_eq!(
                        table.at(x),
                        (pos.chunk as usize, pos.is_chunk_start(x)),
                        "schedule {schedule:?} b={b} c={c} x={x}"
                    );
                }
            }
        }
    }
}
