//! Per-route verdict memoization for generated traffic.
//!
//! For a fixed `(CompiledRoute, UnrollerParams)` pair, the full
//! pipeline walk of a *generated* packet — one that starts from the
//! all-zero initial shim with no injected fault — is a pure function:
//! every packet on the same [`RouteId`](crate::route::RouteId) takes
//! the same hops, flips the same shim bits, and ends with the same
//! verdict. Walking it once and caching `(verdict, final shim bytes)`
//! turns the steady-state per-packet cost from O(hops) pipeline steps
//! into one table lookup (the HashPipe idea applied to routes instead
//! of flows: a compact per-key table maintained entirely on the hot
//! path).
//!
//! Correctness hinges on two invariants the worker enforces:
//!
//! * **Generation keying.** A [`MemoTable`] is only valid for the
//!   route-set generation it was filled under. The worker calls
//!   [`MemoTable::invalidate`] on every epoch route-table swap (at the
//!   batch boundary where [`RouteReader::refresh`](crate::epoch::RouteReader::refresh) observes the new
//!   generation — the same place `first_invalid_hops` is rebuilt), so
//!   a swapped-in route reusing a `RouteId` slot can never serve the
//!   old route's verdict.
//! * **Sampled cross-checking.** With `sample_every = N`, every N-th
//!   cache hit still performs the full walk and compares verdict and
//!   final shim bytes bit-exactly against the cached entry. A mismatch
//!   is counted (`memo_divergence`) and the walked result wins; CI
//!   treats any divergence as fatal. `sample_every = 1` re-walks every
//!   hit (pure paranoia mode, used by the equivalence tests);
//!   `sample_every = 0` disables sampling.
//!
//! Replayed frames (`EnginePacket::frame = Some(..)`) and packets with
//! injected faults never consult the table — their walks are not pure
//! functions of the route.

/// Default sampling rate: cross-check one in this many cache hits.
pub const DEFAULT_SAMPLE_EVERY: u64 = 64;

/// The terminal outcome of a route walk, as cached per `RouteId`.
///
/// Mirrors exactly the outcomes the worker's walk can
/// settle a generated packet with; `hops`/`hop` carry the value the
/// worker adds to its hop histogram so memoized accounting is
/// bit-identical to walked accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoVerdict {
    /// The packet reached the end of a loop-free route after `hops`
    /// pipeline steps.
    Delivered {
        /// Pipeline steps taken.
        hops: u32,
    },
    /// The pipeline reported a loop at step `hop` on switch index
    /// `trigger` (an index into the worker's pipeline/ID tables).
    Loop {
        /// Node index whose pipeline reported.
        trigger: u32,
        /// Pipeline step at which the report fired (1-based).
        hop: u32,
    },
    /// The walk hit the worker's `max_hops` TTL after `hops` steps
    /// without a report (a loop the detector has not yet caught, or a
    /// route longer than the TTL).
    TtlDropped {
        /// Pipeline steps taken.
        hops: u32,
    },
    /// The route references a node outside the provisioned pipeline
    /// set, first at hop `hops` (the packet walks up to, not
    /// including, the invalid hop).
    RouteError {
        /// Pipeline steps taken before the invalid hop.
        hops: u32,
    },
    /// A pipeline rejected the frame (cannot happen for generated
    /// scratch frames, but the cache stores whatever the walk
    /// produced). `hops` is the steps *successfully* taken.
    FrameError {
        /// Pipeline steps successfully taken.
        hops: u32,
    },
}

/// Configuration for the memoization layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoConfig {
    /// Cross-check one in this many cache hits with a full walk
    /// (0 = never sample, 1 = re-walk every hit).
    pub sample_every: u64,
}

impl Default for MemoConfig {
    fn default() -> Self {
        MemoConfig {
            sample_every: DEFAULT_SAMPLE_EVERY,
        }
    }
}

/// A per-shard, per-generation cache of route walk outcomes.
///
/// Slots are indexed by `RouteId::index()`; the final shim bytes of
/// all routes live in one flat buffer (`shim_len` bytes per slot) so
/// `invalidate` reuses both allocations across generation swaps — no
/// per-swap `Vec` churn even under `--churn rate=1000`.
#[derive(Debug)]
pub struct MemoTable {
    shim_len: usize,
    sample_every: u64,
    /// Cache hits seen since the last sampled walk (drives
    /// [`MemoTable::should_sample`]).
    hits_since_sample: u64,
    slots: Vec<Option<MemoVerdict>>,
    shims: Vec<u8>,
}

impl MemoTable {
    /// Creates an empty table caching `shim_len`-byte final shims.
    pub fn new(config: MemoConfig, shim_len: usize) -> Self {
        MemoTable {
            shim_len,
            sample_every: config.sample_every,
            hits_since_sample: 0,
            slots: Vec::new(),
            shims: Vec::new(),
        }
    }

    /// Drops every cached entry and resizes for a route set of
    /// `route_count` slots, reusing the existing allocations. Called
    /// once per observed generation swap (and on supervised worker
    /// restart, where cheap re-warming beats reasoning about a
    /// half-poisoned cache).
    pub fn invalidate(&mut self, route_count: usize) {
        self.slots.clear();
        self.slots.resize(route_count, None);
        self.shims.clear();
        self.shims.resize(route_count * self.shim_len, 0);
    }

    /// Number of route slots currently provisioned.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no slots are provisioned.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Looks up the cached verdict for a route slot (`None` = miss).
    #[inline]
    pub fn lookup_verdict(&self, index: usize) -> Option<MemoVerdict> {
        self.slots.get(index).copied().flatten()
    }

    /// Whether `shim` matches the cached final shim bytes for `index`
    /// bit-exactly. Only meaningful after a hit on the same slot.
    pub fn shim_matches(&self, index: usize, shim: &[u8]) -> bool {
        let start = index * self.shim_len;
        self.shims[start..start + self.shim_len] == *shim
    }

    /// Records a walk outcome and its final shim bytes for a slot.
    ///
    /// # Panics
    ///
    /// Panics if `shim` is not exactly `shim_len` bytes or `index` is
    /// out of range — both are worker bugs, not data conditions.
    pub fn record(&mut self, index: usize, verdict: MemoVerdict, shim: &[u8]) {
        assert_eq!(shim.len(), self.shim_len, "final shim has wrong length");
        self.slots[index] = Some(verdict);
        let start = index * self.shim_len;
        self.shims[start..start + self.shim_len].copy_from_slice(shim);
    }

    /// Ticks the hit counter and reports whether this hit should be
    /// cross-checked with a full walk (every `sample_every`-th hit;
    /// never when `sample_every` is 0).
    #[inline]
    pub fn should_sample(&mut self) -> bool {
        if self.sample_every == 0 {
            return false;
        }
        self.hits_since_sample += 1;
        if self.hits_since_sample >= self.sample_every {
            self.hits_since_sample = 0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_misses_until_recorded() {
        let mut t = MemoTable::new(MemoConfig::default(), 4);
        t.invalidate(3);
        assert_eq!(t.len(), 3);
        assert_eq!(t.lookup_verdict(0), None);
        assert_eq!(t.lookup_verdict(2), None);
        // Out-of-range lookups are misses, not panics: a packet can
        // carry a RouteId minted before the table grew.
        assert_eq!(t.lookup_verdict(99), None);

        t.record(1, MemoVerdict::Delivered { hops: 5 }, &[1, 2, 3, 4]);
        assert_eq!(
            t.lookup_verdict(1),
            Some(MemoVerdict::Delivered { hops: 5 })
        );
        assert!(t.shim_matches(1, &[1, 2, 3, 4]));
        assert!(!t.shim_matches(1, &[1, 2, 3, 5]));
        // Neighbouring slots are untouched.
        assert_eq!(t.lookup_verdict(0), None);
        assert!(t.shim_matches(0, &[0, 0, 0, 0]));
    }

    #[test]
    fn invalidate_drops_entries_and_reuses_allocations() {
        let mut t = MemoTable::new(MemoConfig::default(), 2);
        t.invalidate(8);
        for i in 0..8 {
            t.record(i, MemoVerdict::Loop { trigger: 1, hop: 3 }, &[9, 9]);
        }
        let slots_cap = t.slots.capacity();
        let shims_cap = t.shims.capacity();
        // Same size: every entry gone, no new allocation.
        t.invalidate(8);
        assert!(t.slots.iter().all(Option::is_none));
        assert!(t.shims.iter().all(|&b| b == 0));
        assert_eq!(t.slots.capacity(), slots_cap);
        assert_eq!(t.shims.capacity(), shims_cap);
        // Shrinking generation: capacity still reused.
        t.invalidate(3);
        assert_eq!(t.len(), 3);
        assert_eq!(t.slots.capacity(), slots_cap);
        assert_eq!(t.shims.capacity(), shims_cap);
    }

    #[test]
    fn sampling_fires_every_nth_hit() {
        let mut t = MemoTable::new(MemoConfig { sample_every: 3 }, 1);
        t.invalidate(1);
        let fired: Vec<bool> = (0..9).map(|_| t.should_sample()).collect();
        assert_eq!(
            fired,
            [false, false, true, false, false, true, false, false, true]
        );
    }

    #[test]
    fn sampling_disabled_and_paranoid_modes() {
        let mut off = MemoTable::new(MemoConfig { sample_every: 0 }, 1);
        off.invalidate(1);
        assert!((0..100).all(|_| !off.should_sample()));

        let mut every = MemoTable::new(MemoConfig { sample_every: 1 }, 1);
        every.invalidate(1);
        assert!((0..100).all(|_| every.should_sample()));
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn record_rejects_wrong_shim_length() {
        let mut t = MemoTable::new(MemoConfig::default(), 4);
        t.invalidate(1);
        t.record(0, MemoVerdict::TtlDropped { hops: 64 }, &[0; 3]);
    }
}
