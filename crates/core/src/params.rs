//! Unroller configuration parameters (the paper's Table 2).
//!
//! | symbol | field | meaning |
//! |---|---|---|
//! | `b`  | [`UnrollerParams::b`]  | phase growth base; the *i*-th phase lasts `bⁱ` hops |
//! | `z`  | [`UnrollerParams::z`]  | bits per stored (hashed) switch identifier |
//! | `c`  | [`UnrollerParams::c`]  | chunks each phase is partitioned into |
//! | `H`  | [`UnrollerParams::h`]  | number of independent hash functions |
//! | `Th` | [`UnrollerParams::th`] | number of matches required before reporting |

use crate::phase::PhaseSchedule;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Most identifier slots (`c · H`) a packet may carry. Dataplane walk
/// registers are sized by this constant, so a validated configuration
/// always fits them.
pub const MAX_SLOTS: usize = 64;

/// Errors raised by [`UnrollerParams::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamError {
    /// `b` must be at least 2: with `b = 1` every phase has the same
    /// length and the resetting intervals never grow, so detection is not
    /// guaranteed (Appendix A, case `β ≤ 0.5`).
    BaseTooSmall(u32),
    /// `z` must be between 1 and 32 — identifiers are 32-bit values and a
    /// zero-width hash can never distinguish switches.
    BadHashWidth(u32),
    /// `c` must be at least 1 (one chunk per phase is the base algorithm).
    NoChunks,
    /// `H` must be at least 1 (one hash function is the base algorithm).
    NoHashes,
    /// `Th` must be at least 1 (report on the first match).
    NoThreshold,
    /// Storing more than [`MAX_SLOTS`] identifiers per packet exceeds any plausible
    /// header budget; the paper evaluates up to `c = 8`, `H = 10`.
    TooManySlots {
        /// requested `c · H` slots
        slots: u32,
    },
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::BaseTooSmall(b) => write!(
                f,
                "phase base b={b} is too small: resetting intervals must grow \
                 geometrically (b >= 2) for detection to be guaranteed"
            ),
            ParamError::BadHashWidth(z) => {
                write!(f, "hash width z={z} out of range 1..=32")
            }
            ParamError::NoChunks => write!(f, "chunk count c must be >= 1"),
            ParamError::NoHashes => write!(f, "hash count H must be >= 1"),
            ParamError::NoThreshold => write!(f, "threshold Th must be >= 1"),
            ParamError::TooManySlots { slots } => {
                write!(
                    f,
                    "c*H = {slots} identifier slots exceed the limit of {MAX_SLOTS}"
                )
            }
        }
    }
}

impl std::error::Error for ParamError {}

/// Configuration of the Unroller detector.
///
/// [`UnrollerParams::default`] matches the paper's evaluation defaults
/// (§5): `b = 4`, `z = 32`, `c = 1`, `H = 1`, `Th = 1`, power-boundary
/// phase schedule, `Xcnt` carried in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UnrollerParams {
    /// Phase growth base `b`. Larger `b` resets less aggressively, which
    /// lowers detection time for long loops but raises it when the
    /// pre-loop path dominates (Figure 2).
    pub b: u32,
    /// Width in bits of each stored identifier (`z`). `z = 32` stores the
    /// full identifier and cannot produce hash-collision false positives.
    pub z: u32,
    /// Number of chunks per phase (`c`). Each chunk keeps the minimum over
    /// a `1/c` fraction of the phase (Appendix B).
    pub c: u32,
    /// Number of independent hash functions (`H`).
    pub h: u32,
    /// Reporting threshold (`Th`): the loop is reported on the `Th`-th
    /// match (§3.3's counting technique).
    pub th: u32,
    /// Which phase schedule drives identifier resets.
    pub schedule: PhaseSchedule,
    /// Whether the hop counter `Xcnt` is carried in the packet header
    /// (8 bits). When the hop number can be inferred from the TTL
    /// (paper footnote 3) this can be `false`, saving 8 bits.
    pub xcnt_in_header: bool,
}

impl Default for UnrollerParams {
    fn default() -> Self {
        UnrollerParams {
            b: 4,
            z: 32,
            c: 1,
            h: 1,
            th: 1,
            schedule: PhaseSchedule::PowerBoundary,
            xcnt_in_header: true,
        }
    }
}

impl UnrollerParams {
    /// The paper's default evaluation configuration (§5).
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// Single full-ID configuration with the analysis phase schedule, as
    /// used by the Theorem 1 proofs.
    pub fn analysis(b: u32) -> Self {
        UnrollerParams {
            b,
            schedule: PhaseSchedule::CumulativeGeometric,
            ..Self::default()
        }
    }

    /// Builder-style setter for the phase base `b`.
    pub fn with_b(mut self, b: u32) -> Self {
        self.b = b;
        self
    }

    /// Builder-style setter for the hash width `z`.
    pub fn with_z(mut self, z: u32) -> Self {
        self.z = z;
        self
    }

    /// Builder-style setter for the chunk count `c`.
    pub fn with_c(mut self, c: u32) -> Self {
        self.c = c;
        self
    }

    /// Builder-style setter for the hash-function count `H`.
    pub fn with_h(mut self, h: u32) -> Self {
        self.h = h;
        self
    }

    /// Builder-style setter for the reporting threshold `Th`.
    pub fn with_th(mut self, th: u32) -> Self {
        self.th = th;
        self
    }

    /// Builder-style setter for the phase schedule.
    pub fn with_schedule(mut self, schedule: PhaseSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Checks parameter consistency.
    pub fn validate(&self) -> Result<(), ParamError> {
        if self.b < 2 {
            return Err(ParamError::BaseTooSmall(self.b));
        }
        if self.z == 0 || self.z > 32 {
            return Err(ParamError::BadHashWidth(self.z));
        }
        if self.c == 0 {
            return Err(ParamError::NoChunks);
        }
        if self.h == 0 {
            return Err(ParamError::NoHashes);
        }
        if self.th == 0 {
            return Err(ParamError::NoThreshold);
        }
        let slots = self.c.saturating_mul(self.h);
        if slots > MAX_SLOTS as u32 {
            return Err(ParamError::TooManySlots { slots });
        }
        Ok(())
    }

    /// Number of identifier slots carried in the packet (`c · H`).
    pub fn slots(&self) -> usize {
        (self.c * self.h) as usize
    }

    /// Bit mask selecting the low `z` bits of a hash output.
    pub fn z_mask(&self) -> u32 {
        if self.z >= 32 {
            u32::MAX
        } else {
            (1u32 << self.z) - 1
        }
    }

    /// Bits needed for the threshold counter `Thcnt`.
    ///
    /// The paper (§3.3, footnote 2) reports on the hop that sees a match
    /// while the counter equals `Th − 1`, so the counter only needs to
    /// represent `0 ..= Th − 1`, i.e. `⌈log₂ Th⌉` bits (0 bits for
    /// `Th = 1`).
    pub fn thcnt_bits(&self) -> u32 {
        32 - (self.th - 1).leading_zeros()
    }

    /// Total per-packet overhead in bits (the paper's Table 3 layout):
    /// `Xcnt` (8 bits, unless inferred from the TTL) + `c·H·z` identifier
    /// bits + `⌈log₂ Th⌉` threshold-counter bits.
    pub fn overhead_bits(&self) -> u32 {
        let xcnt = if self.xcnt_in_header { 8 } else { 0 };
        xcnt + self.c * self.h * self.z + self.thcnt_bits()
    }

    /// Builds the [`crate::Unroller`] detector this configuration
    /// describes (with the default hash family). Every caller that
    /// replicates detection state — one detector per worker shard in
    /// the `unroller-engine` runtime, one per switch in the simulator —
    /// goes through here, so replicas are guaranteed to share hash
    /// seeds and therefore behave identically, as a controller-managed
    /// deployment requires.
    pub fn detector(&self) -> Result<crate::Unroller, ParamError> {
        crate::Unroller::from_params(*self)
    }
}

impl fmt::Display for UnrollerParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "b={},z={},c={},h={},th={},schedule={}{}",
            self.b,
            self.z,
            self.c,
            self.h,
            self.th,
            match self.schedule {
                PhaseSchedule::PowerBoundary => "power",
                PhaseSchedule::CumulativeGeometric => "cumulative",
            },
            if self.xcnt_in_header { "" } else { ",xcnt=ttl" },
        )
    }
}

/// Error parsing an [`UnrollerParams`] configuration string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseParamsError {
    /// An entry was not `key=value`.
    BadEntry(String),
    /// Unknown key.
    UnknownKey(String),
    /// Value failed to parse for the given key.
    BadValue(String),
    /// The parsed parameters failed [`UnrollerParams::validate`].
    Invalid(ParamError),
}

impl fmt::Display for ParseParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseParamsError::BadEntry(e) => write!(f, "expected key=value, got `{e}`"),
            ParseParamsError::UnknownKey(k) => write!(f, "unknown parameter `{k}`"),
            ParseParamsError::BadValue(k) => write!(f, "bad value for `{k}`"),
            ParseParamsError::Invalid(e) => write!(f, "invalid parameters: {e}"),
        }
    }
}

impl std::error::Error for ParseParamsError {}

impl std::str::FromStr for UnrollerParams {
    type Err = ParseParamsError;

    /// Parses a comma-separated configuration string, e.g.
    /// `"b=4,z=7,th=4"` or `"b=3,schedule=cumulative,xcnt=ttl"`.
    /// Omitted keys keep their paper defaults; the result is validated.
    ///
    /// ```
    /// use unroller_core::params::UnrollerParams;
    /// let p: UnrollerParams = "b=4,z=7,th=4".parse().unwrap();
    /// assert_eq!((p.z, p.th), (7, 4));
    /// assert_eq!(p.overhead_bits(), 8 + 7 + 2);
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut p = UnrollerParams::default();
        for entry in s.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let Some((key, value)) = entry.split_once('=') else {
                return Err(ParseParamsError::BadEntry(entry.to_string()));
            };
            let (key, value) = (key.trim(), value.trim());
            let num = || {
                value
                    .parse::<u32>()
                    .map_err(|_| ParseParamsError::BadValue(key.to_string()))
            };
            match key.to_ascii_lowercase().as_str() {
                "b" => p.b = num()?,
                "z" => p.z = num()?,
                "c" => p.c = num()?,
                "h" => p.h = num()?,
                "th" => p.th = num()?,
                "schedule" => {
                    p.schedule = match value.to_ascii_lowercase().as_str() {
                        "power" | "power-boundary" | "powerboundary" => {
                            PhaseSchedule::PowerBoundary
                        }
                        "cumulative" | "cumulative-geometric" | "analysis" => {
                            PhaseSchedule::CumulativeGeometric
                        }
                        _ => return Err(ParseParamsError::BadValue(key.to_string())),
                    }
                }
                "xcnt" => {
                    p.xcnt_in_header = match value.to_ascii_lowercase().as_str() {
                        "header" => true,
                        "ttl" => false,
                        _ => return Err(ParseParamsError::BadValue(key.to_string())),
                    }
                }
                _ => return Err(ParseParamsError::UnknownKey(key.to_string())),
            }
        }
        p.validate().map_err(ParseParamsError::Invalid)?;
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_display() {
        for p in [
            UnrollerParams::default(),
            UnrollerParams::default().with_z(7).with_th(4),
            UnrollerParams::analysis(3).with_c(2).with_h(2),
            UnrollerParams {
                xcnt_in_header: false,
                ..UnrollerParams::default()
            },
        ] {
            let text = p.to_string();
            let back: UnrollerParams = text.parse().unwrap_or_else(|e| {
                panic!("failed to reparse `{text}`: {e}");
            });
            assert_eq!(back, p, "roundtrip of `{text}`");
        }
    }

    #[test]
    fn parse_partial_and_whitespace() {
        let p: UnrollerParams = " z=7 , th=4 ".parse().unwrap();
        assert_eq!((p.b, p.z, p.th), (4, 7, 4));
        let p: UnrollerParams = "".parse().unwrap();
        assert_eq!(p, UnrollerParams::default());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            "banana".parse::<UnrollerParams>(),
            Err(ParseParamsError::BadEntry(_))
        ));
        assert!(matches!(
            "q=4".parse::<UnrollerParams>(),
            Err(ParseParamsError::UnknownKey(_))
        ));
        assert!(matches!(
            "b=lots".parse::<UnrollerParams>(),
            Err(ParseParamsError::BadValue(_))
        ));
        assert!(matches!(
            "b=1".parse::<UnrollerParams>(),
            Err(ParseParamsError::Invalid(ParamError::BaseTooSmall(1)))
        ));
        assert!(matches!(
            "schedule=sometimes".parse::<UnrollerParams>(),
            Err(ParseParamsError::BadValue(_))
        ));
    }

    #[test]
    fn default_is_paper_default() {
        let p = UnrollerParams::default();
        assert_eq!((p.b, p.z, p.c, p.h, p.th), (4, 32, 1, 1, 1));
        assert_eq!(p.schedule, PhaseSchedule::PowerBoundary);
        p.validate().unwrap();
    }

    #[test]
    fn validation_rejects_degenerate_base() {
        assert_eq!(
            UnrollerParams::default().with_b(1).validate(),
            Err(ParamError::BaseTooSmall(1))
        );
        assert_eq!(
            UnrollerParams::default().with_b(0).validate(),
            Err(ParamError::BaseTooSmall(0))
        );
    }

    #[test]
    fn validation_rejects_bad_z() {
        assert_eq!(
            UnrollerParams::default().with_z(0).validate(),
            Err(ParamError::BadHashWidth(0))
        );
        assert_eq!(
            UnrollerParams::default().with_z(33).validate(),
            Err(ParamError::BadHashWidth(33))
        );
        UnrollerParams::default().with_z(32).validate().unwrap();
        UnrollerParams::default().with_z(1).validate().unwrap();
    }

    #[test]
    fn validation_rejects_zero_counts() {
        assert_eq!(
            UnrollerParams::default().with_c(0).validate(),
            Err(ParamError::NoChunks)
        );
        assert_eq!(
            UnrollerParams::default().with_h(0).validate(),
            Err(ParamError::NoHashes)
        );
        assert_eq!(
            UnrollerParams::default().with_th(0).validate(),
            Err(ParamError::NoThreshold)
        );
    }

    #[test]
    fn validation_rejects_slot_blowup() {
        let p = UnrollerParams::default().with_c(16).with_h(8);
        assert_eq!(p.validate(), Err(ParamError::TooManySlots { slots: 128 }));
    }

    #[test]
    fn thcnt_bits_matches_paper() {
        // Th = 1 needs no counter at all; Th = 4 needs 2 bits (§3.3's
        // "7 + 2 bits of overhead" example uses z = 7, Th = 4).
        assert_eq!(UnrollerParams::default().with_th(1).thcnt_bits(), 0);
        assert_eq!(UnrollerParams::default().with_th(2).thcnt_bits(), 1);
        assert_eq!(UnrollerParams::default().with_th(3).thcnt_bits(), 2);
        assert_eq!(UnrollerParams::default().with_th(4).thcnt_bits(), 2);
        assert_eq!(UnrollerParams::default().with_th(5).thcnt_bits(), 3);
    }

    #[test]
    fn overhead_matches_table3_layout() {
        // Default: 8 (Xcnt) + 32 (one full ID) + 0 (Th = 1).
        assert_eq!(UnrollerParams::default().overhead_bits(), 40);
        // The §3.3 example: z = 7, Th = 4 and Xcnt inferred from TTL
        // costs 7 + 2 = 9 bits.
        let p = UnrollerParams {
            z: 7,
            th: 4,
            xcnt_in_header: false,
            ..UnrollerParams::default()
        };
        assert_eq!(p.overhead_bits(), 9);
        // c = 2, H = 2, z = 8: 8 + 2*2*8 + 0 = 40.
        let p = UnrollerParams::default().with_c(2).with_h(2).with_z(8);
        assert_eq!(p.overhead_bits(), 40);
    }

    #[test]
    fn z_mask_widths() {
        assert_eq!(UnrollerParams::default().with_z(1).z_mask(), 0b1);
        assert_eq!(UnrollerParams::default().with_z(7).z_mask(), 0x7f);
        assert_eq!(UnrollerParams::default().with_z(32).z_mask(), u32::MAX);
    }
}
