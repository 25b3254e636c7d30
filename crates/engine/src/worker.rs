//! The shard worker: one thread, one ring, a shared read-only view of
//! every switch pipeline — run under in-thread supervision.
//!
//! A worker reads the per-switch [`UnrollerPipeline`]s, indexed by
//! node, through the engine's shared `Arc`: register files are
//! read-only per packet, and a packet's walk state lives in stack
//! registers, so shards process lock-free without private copies. The
//! hot loop writes only its own stack, its scratch frame, a per-batch
//! tally of the settle counters, and its (atomic, uncontended) metrics
//! block, which the tally reaches once per batch. Flow affinity is what
//! makes this sound: a flow's packets all arrive on this one shard, so
//! nothing about a packet's journey is ever visible to another thread.
//!
//! **Wire-frame hot path.** A packet walks all of its hops inside this
//! worker, so the walk does what a P4 parser/deparser pair does around
//! its stages: validate the frame and decode the shim once into stack
//! [`Registers`], run [`UnrollerPipeline::step`] on them at every hop,
//! and encode the registers back into the frame once at the end — no
//! per-hop bit parsing and no allocation. Generated packets share one
//! shard-owned scratch frame (only its shim bytes are re-zeroed per
//! packet); packets replayed from a capture carry their own recorded
//! bytes and are processed in them, shim state and all.
//!
//! **Interned routes, swappable mid-run.** Packets carry a [`RouteId`]
//! into the current route-table *generation*: the worker holds a
//! [`RouteReader`] onto the engine's
//! [`EpochRouteTable`](crate::epoch::EpochRouteTable) and polls it once
//! per batch — one atomic load when nothing changed, a pointer swap
//! when the control plane published new routes. Route validity is
//! settled once per *generation*: on every swap the worker re-evaluates
//! [`RouteSet::first_invalid_hops`](crate::route::RouteSet::first_invalid_hops)
//! against its own pipeline count, so the per-hop walk compares one
//! integer instead of bounds-checking a map lookup — `route_errors` is
//! decided before the first packet of each generation, and the cached
//! table can never go stale across a swap. Loop events raised against
//! a generation published after startup also record **detection
//! latency** (publish → first loop event on this shard).
//!
//! **Memoized walks.** With memoization enabled
//! ([`EngineConfig::memo`](crate::engine::EngineConfig::memo)), the
//! worker keeps a per-`RouteId` [`MemoTable`] of walk outcomes for
//! generated traffic: the first packet on a route walks and records
//! `(verdict, final shim)`, every later packet settles from the cached
//! entry in one lookup, and a configurable 1-in-N sampler re-walks
//! hits to cross-check the cache bit-exactly (`memo_divergence` counts
//! any mismatch). The table is invalidated alongside `first_invalid_hops`
//! on every generation swap — both caches are keyed to the reader's
//! pinned generation — so a swapped-in route reusing a slot never
//! serves a stale verdict. Replayed frames and faulted packets always
//! walk.
//!
//! **Supervision.** Packet processing runs inside `catch_unwind`, and
//! every packet is processed start to finish before the next one
//! begins, so a panic (injected by a
//! [`FaultPlan`](crate::faults::FaultPlan) or a real bug) loses exactly
//! the packet being processed — counted in `panic_lost`, never silent,
//! never retried. The supervisor then restarts the shard in place: a
//! clean scratch frame (the pipelines are read-only and the lost
//! packet's registers died with its stack frame, so nothing else can be
//! half-written), an invalidated memo table, and the batch resumed at
//! the next packet. Flows stay pinned to the shard because the ring,
//! and therefore the flow → shard mapping, never changes. A per-shard
//! restart budget bounds pathological inputs: once exhausted the shard
//! drains its ring into the loss counters instead of looping on poison
//! forever.

use crate::aggregate::LoopEvent;
use crate::epoch::RouteReader;
use crate::faults::{
    apply_bitflip_frame, inject_panic, install_quiet_panic_hook, EventFate, EventFaults,
    PacketFault, ShardFaults,
};
use crate::flow::FlowKey;
use crate::memo::{MemoConfig, MemoTable, MemoVerdict};
use crate::metrics::{thread_cpu_ns, ShardMetrics};
use crate::packet::EnginePacket;
use crate::ring::RingConsumer;
use crate::route::CompiledRoute;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};
use unroller_core::SwitchId;
use unroller_dataplane::parser::{build_frame, check_frame};
use unroller_dataplane::{
    EthernetHeader, HeaderLayout, Registers, UnrollerPipeline, WireHeader, ETH_HEADER_LEN,
};

/// Cap on §3.5 membership collection: a real switch would bound the
/// report it punts to the controller; 64 IDs covers any loop a sane
/// TTL lets live.
const MEMBERSHIP_CAP: usize = 64;

/// Minimum Ethernet frame length; the scratch frame is padded to it so
/// processing touches realistically sized wire buffers.
const MIN_FRAME_LEN: usize = 64;

/// Sentinel in the per-route validity table: every hop is in bounds.
/// (A real hop index never reaches it — `max_hops` caps walks far
/// below `u32::MAX`.)
const ROUTE_VALID: u32 = u32::MAX;

/// The settle-path counters, kept as plain integers while a batch runs
/// and added to the shard's [`ShardMetrics`] once at its end: one
/// atomic add per counter per batch instead of up to three per packet.
#[derive(Default)]
struct BatchTally {
    memo_hits: u64,
    memo_misses: u64,
    hops: u64,
    delivered: u64,
    ttl_dropped: u64,
    route_errors: u64,
    frame_errors: u64,
}

impl BatchTally {
    /// Adds every non-zero count to `metrics` and resets the tally.
    fn flush(&mut self, metrics: &ShardMetrics) {
        let t = std::mem::take(self);
        for (counter, n) in [
            (&metrics.memo_hits, t.memo_hits),
            (&metrics.memo_misses, t.memo_misses),
            (&metrics.hops, t.hops),
            (&metrics.delivered, t.delivered),
            (&metrics.ttl_dropped, t.ttl_dropped),
            (&metrics.route_errors, t.route_errors),
            (&metrics.frame_errors, t.frame_errors),
        ] {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

/// One shard's processing loop.
pub struct ShardWorker {
    /// Shard index (for event attribution).
    pub shard: usize,
    /// Per-node pipelines, indexed by `NodeId` (`pipelines[node]`);
    /// shared read-only across shards.
    pub pipelines: Arc<Vec<UnrollerPipeline>>,
    /// Switch IDs, indexed the same way.
    pub ids: Arc<[SwitchId]>,
    /// This shard's lock-free handle onto the engine's epoch route
    /// table: every packet's `RouteId` resolves against the generation
    /// the reader is pinned to, re-polled once per batch.
    pub routes: RouteReader,
    /// The shim layout shared by all pipelines.
    pub layout: HeaderLayout,
    /// Hop budget per packet (the TTL).
    pub max_hops: u32,
    /// Batch ceiling per ring pull.
    pub batch_size: usize,
    /// This shard's metrics block.
    pub metrics: Arc<ShardMetrics>,
    /// Loop events out (MPSC toward the aggregator).
    pub events: Sender<LoopEvent>,
    /// Packets in (SPSC from the dispatcher).
    pub consumer: RingConsumer<EnginePacket>,
    /// Packet/stall fault streams; `None` runs fault-free.
    pub faults: Option<ShardFaults>,
    /// Loop-event fault stream (inactive when fault-free).
    pub event_faults: EventFaults,
    /// Watchdog kick flag: set by the watchdog when this shard stops
    /// consuming while its ring holds packets; aborts injected stalls.
    pub kick: Arc<AtomicBool>,
    /// CPU core to pin this shard's thread to
    /// ([`EngineConfig::pin_cores`](crate::engine::EngineConfig::pin_cores));
    /// `None` leaves scheduling to the OS.
    pub pin_core: Option<usize>,
    /// Per-route verdict memoization for generated traffic; `None`
    /// walks every packet.
    pub memo: Option<MemoConfig>,
    /// Has no effect: nothing reads it. It stays only so that callers
    /// which name every field keep compiling, and goes with the next
    /// benchmark change.
    pub stepped: bool,
}

impl ShardWorker {
    /// Runs until the dispatcher closes the ring. Consumes the worker.
    pub fn run(mut self) {
        if let Some(core) = self.pin_core {
            if crate::affinity::pin_to_core(core) {
                self.metrics
                    .pinned_core
                    .store(core as u64 + 1, Ordering::Relaxed);
            }
        }
        if self.faults.is_some() {
            install_quiet_panic_hook();
        }
        let cpu_start = thread_cpu_ns();
        // Route validity, settled once *per generation*: err_hops[route]
        // is the first hop that would leave the pipeline array
        // (ROUTE_VALID when none does). The hot walk compares against
        // this instead of re-validating every hop of every packet; the
        // table is rebuilt on every route-table swap, keyed to the
        // reader's pinned generation — a swapped-in route reusing a
        // `RouteId` slot with a different hop count must never be
        // judged by the old generation's validity.
        let mut err_hops: Vec<u32> = Vec::new();
        self.routes
            .routes()
            .first_invalid_hops_into(self.pipelines.len(), &mut err_hops);
        // One scratch wire frame reused across every frameless packet:
        // a walk decodes its shim from this buffer and encodes the
        // result back into it, so walking a path allocates nothing.
        let mut scratch = self.scratch_frame();
        // The memo table shares err_hops' invalidation discipline: both
        // are generation-keyed caches rebuilt at the same batch
        // boundary, with allocations reused across swaps.
        let mut memo: Option<MemoTable> = self.memo.map(|cfg| {
            let mut table = MemoTable::new(cfg, self.layout.total_bytes());
            table.invalidate(self.routes.routes().len());
            table
        });
        let mut batch: Vec<EnginePacket> = Vec::with_capacity(self.batch_size);
        let mut pfaults: Vec<PacketFault> = Vec::new();
        let mut faults = self.faults.take();
        let restart_budget = faults
            .as_ref()
            .map(|f| f.max_restarts())
            .unwrap_or(u64::MAX);
        let mut restarts = 0u64;
        let mut draining_only = false;
        let mut tally = BatchTally::default();
        loop {
            batch.clear();
            let wait_start = Instant::now();
            if !self.consumer.recv_batch(&mut batch, self.batch_size) {
                break;
            }
            // Batch boundary: adopt any newly published route-table
            // generation. One atomic load when nothing changed; on a
            // swap, re-key the validity cache to the new generation.
            if self.routes.refresh().is_some() {
                self.routes
                    .routes()
                    .first_invalid_hops_into(self.pipelines.len(), &mut err_hops);
                if let Some(table) = memo.as_mut() {
                    // Same keying as err_hops: entries from the old
                    // generation must never answer for a reused slot.
                    table.invalidate(self.routes.routes().len());
                }
                self.metrics
                    .route_swaps_observed
                    .fetch_add(1, Ordering::Relaxed);
            }
            let proc_start = Instant::now();
            self.metrics
                .wait_ns
                .record((proc_start - wait_start).as_nanos() as u64);
            self.metrics.batches.fetch_add(1, Ordering::Relaxed);
            self.metrics.batch_sizes.record(batch.len() as u64);
            if draining_only {
                // Restart budget exhausted: consume and count, never
                // process — the ring must still drain so the dispatcher
                // does not wedge on a Block policy.
                self.metrics
                    .panic_lost
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
                continue;
            }
            if let Some(f) = faults.as_mut() {
                if let Some(stall) = f.batch_stall() {
                    self.stall(stall);
                }
                // Per-packet fates are drawn up front, in packet order,
                // so decisions replay identically whatever the batch
                // boundaries or panic interleavings turn out to be.
                pfaults.clear();
                pfaults.extend((0..batch.len()).map(|_| f.packet_fault()));
            }
            let cursor = Cell::new(0usize);
            let mut lost_in_batch = 0u64;
            loop {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    while cursor.get() < batch.len() {
                        let i = cursor.get();
                        cursor.set(i + 1);
                        let fault = pfaults.get(i).copied().unwrap_or(PacketFault::None);
                        self.process(
                            &err_hops,
                            &mut batch[i],
                            &mut scratch,
                            fault,
                            &mut memo,
                            &mut tally,
                        );
                    }
                }));
                if outcome.is_ok() {
                    break;
                }
                // The panic took down exactly the packet at cursor-1.
                // The cursor already moved past it, so it is not retried
                // (a deterministic poison packet must not loop the
                // restart budget away).
                lost_in_batch += 1;
                self.metrics.panic_lost.fetch_add(1, Ordering::Relaxed);
                if restarts >= restart_budget {
                    let rest = (batch.len() - cursor.get()) as u64;
                    lost_in_batch += rest;
                    self.metrics.panic_lost.fetch_add(rest, Ordering::Relaxed);
                    draining_only = true;
                    break;
                }
                restarts += 1;
                self.metrics.restarts.fetch_add(1, Ordering::Relaxed);
                // Restart: a clean scratch frame discards any shim bytes
                // the panic left half-written; pipelines are read-only
                // and walk registers lived on the unwound stack. The
                // memo table is re-warmed from scratch — cheaper than
                // proving a half-recorded entry impossible.
                scratch = self.scratch_frame();
                if let Some(table) = memo.as_mut() {
                    table.invalidate(self.routes.routes().len());
                }
            }
            // The tally lives outside the unwound frames, so it still
            // holds every packet settled before a caught panic.
            tally.flush(&self.metrics);
            self.metrics
                .packets
                .fetch_add(batch.len() as u64 - lost_in_batch, Ordering::Relaxed);
            self.metrics
                .proc_ns
                .record(proc_start.elapsed().as_nanos() as u64);
        }
        if let (Some(start), Some(end)) = (cpu_start, thread_cpu_ns()) {
            self.metrics
                .cpu_ns
                .store(end.saturating_sub(start), Ordering::Relaxed);
        }
    }

    /// An injected ring stall: stop consuming for `dur`, polling the
    /// watchdog's kick flag so a detected stall is cut short — the
    /// recovery path the watchdog exists to exercise.
    fn stall(&self, dur: Duration) {
        self.metrics.stalls_injected.fetch_add(1, Ordering::Relaxed);
        let deadline = Instant::now() + dur;
        while Instant::now() < deadline {
            if self.kick.swap(false, Ordering::Relaxed) {
                self.metrics.stalls_aborted.fetch_add(1, Ordering::Relaxed);
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The reusable wire buffer for frameless packets: a minimum-size
    /// Ethernet frame carrying an all-zero shim. Only the shim bytes
    /// are reset between packets (the rest is never written).
    fn scratch_frame(&self) -> Vec<u8> {
        let mut frame = build_frame(
            &self.layout,
            &EthernetHeader::for_hosts(0, 1),
            &WireHeader::initial(&self.layout),
            &[],
        );
        frame.resize(frame.len().max(MIN_FRAME_LEN), 0);
        frame
    }

    /// Processes one packet, applying this packet's injected fault (if
    /// any). Generated packets (no frame, no fault) — whose walk is a
    /// pure function of their route — go through the memo fast path
    /// when enabled; packets that carry recorded wire bytes or an
    /// injected fault always walk in their own state.
    fn process(
        &self,
        err_hops: &[u32],
        packet: &mut EnginePacket,
        scratch: &mut [u8],
        fault: PacketFault,
        memo: &mut Option<MemoTable>,
        tally: &mut BatchTally,
    ) {
        let flip = match fault {
            PacketFault::Panic => {
                self.metrics.panics_injected.fetch_add(1, Ordering::Relaxed);
                inject_panic(self.shard);
            }
            PacketFault::BitFlip { at_hop, bit } => Some((at_hop, bit)),
            PacketFault::None => None,
        };
        if packet.frame.is_none() && flip.is_none() {
            self.process_generated(err_hops, packet, scratch, memo, tally);
            return;
        }
        let frame: &mut [u8] = match packet.frame.as_mut() {
            Some(frame) => frame,
            None => {
                // Source host emits an all-zero shim: reset just those
                // bytes; everything else in the scratch frame is inert.
                let shim_end = ETH_HEADER_LEN + self.layout.total_bytes();
                scratch[ETH_HEADER_LEN..shim_end].fill(0);
                scratch
            }
        };
        // Checked lookup: a `RouteId` is minted against some generation
        // but resolved against the reader's *current* one, which may be
        // smaller. An out-of-range id is a route error, not a panic.
        let Some(route) = self.routes.routes().get_checked(packet.route) else {
            tally.route_errors += 1;
            return;
        };
        // In bounds: `err_hops` is rebuilt from the same generation the
        // checked lookup just succeeded against.
        let err_hop = err_hops[packet.route.index()];
        let end = self.walk_frame(route, err_hop, frame, flip);
        self.settle(tally, packet.flow, packet.seq, route, end);
    }

    /// The memo-aware path for a generated packet: settle from the
    /// cached verdict on a hit (re-walking 1-in-N hits to cross-check),
    /// walk-and-record on a miss, plain walk with no table.
    fn process_generated(
        &self,
        err_hops: &[u32],
        packet: &EnginePacket,
        scratch: &mut [u8],
        memo: &mut Option<MemoTable>,
        tally: &mut BatchTally,
    ) {
        let Some(route) = self.routes.routes().get_checked(packet.route) else {
            tally.route_errors += 1;
            return;
        };
        let idx = packet.route.index();
        let err_hop = err_hops[idx];
        let shim_end = ETH_HEADER_LEN + self.layout.total_bytes();
        if let Some(table) = memo.as_mut() {
            if let Some(cached) = table.lookup_verdict(idx) {
                tally.memo_hits += 1;
                if table.should_sample() {
                    // Sampled cross-check: the full walk stays the
                    // ground truth — compare verdict and final shim
                    // bit-exactly, count any mismatch, and settle from
                    // the walked result so divergence can never leak
                    // into the run's accounting.
                    self.metrics
                        .memo_sampled_walks
                        .fetch_add(1, Ordering::Relaxed);
                    let end = self.walk_generated(route, err_hop, scratch);
                    if end != cached || !table.shim_matches(idx, &scratch[ETH_HEADER_LEN..shim_end])
                    {
                        self.metrics.memo_divergence.fetch_add(1, Ordering::Relaxed);
                    }
                    self.settle(tally, packet.flow, packet.seq, route, end);
                } else {
                    self.settle(tally, packet.flow, packet.seq, route, cached);
                }
                return;
            }
            tally.memo_misses += 1;
            let end = self.walk_generated(route, err_hop, scratch);
            table.record(idx, end, &scratch[ETH_HEADER_LEN..shim_end]);
            self.settle(tally, packet.flow, packet.seq, route, end);
            return;
        }
        let end = self.walk_generated(route, err_hop, scratch);
        self.settle(tally, packet.flow, packet.seq, route, end);
    }

    /// Resets the scratch shim to the generated-traffic initial state
    /// (all zeros) and walks it.
    fn walk_generated(
        &self,
        route: &CompiledRoute,
        err_hop: u32,
        scratch: &mut [u8],
    ) -> MemoVerdict {
        let shim_end = ETH_HEADER_LEN + self.layout.total_bytes();
        scratch[ETH_HEADER_LEN..shim_end].fill(0);
        self.walk_frame(route, err_hop, scratch, None)
    }

    /// Walks one wire frame along its interned route through the
    /// per-switch pipelines and returns the terminal outcome without
    /// touching any outcome counter ([`Self::settle`] does that), so
    /// walked and memoized packets settle through identical accounting.
    ///
    /// The frame is validated and its shim decoded once, at the first
    /// pipeline step; every hop then runs [`UnrollerPipeline::step`] on
    /// stack registers, and the registers are encoded back once at the
    /// end. The frame comes out byte-identical to chaining
    /// [`UnrollerPipeline::process_frame_in_place`] hop by hop: it is
    /// only rewritten if some hop continued since the last decode (a
    /// reporting hop leaves the registers as they entered it). A
    /// bit-flip fault at hop `k` encodes, flips the wire bits, and
    /// decodes again at that hop only.
    fn walk_frame(
        &self,
        route: &CompiledRoute,
        err_hop: u32,
        frame: &mut [u8],
        mut flip: Option<(u32, u32)>,
    ) -> MemoVerdict {
        let layout = &self.layout;
        let mut regs = Registers::default();
        // True while the registers hold steps the frame does not.
        let mut dirty = false;
        let mut hop = 0u32;
        // Cycle cursor: walks `pre` by hop index, then wraps through
        // `cycle` without a per-hop modulo.
        let mut cycle_idx = 0usize;
        let end = loop {
            let node = if (hop as usize) < route.pre.len() {
                route.pre[hop as usize]
            } else if route.cycle.is_empty() {
                // Route ended: delivered.
                break MemoVerdict::Delivered { hops: hop };
            } else {
                let n = route.cycle[cycle_idx];
                cycle_idx += 1;
                if cycle_idx == route.cycle.len() {
                    cycle_idx = 0;
                }
                n
            };
            if hop == err_hop {
                // Pre-computed per generation: this hop leaves the
                // pipeline array. Everything before it was processed
                // normally.
                break MemoVerdict::RouteError { hops: hop };
            }
            if hop == 0 {
                // The parser: no hop changes the frame's length or
                // EtherType, so one check covers the whole walk.
                if check_frame(layout, frame).is_err() {
                    return MemoVerdict::FrameError { hops: 0 };
                }
                regs = Registers::decode(layout, &frame[ETH_HEADER_LEN..]);
            }
            if let Some((at_hop, bit)) = flip {
                if hop == at_hop {
                    // On-the-wire corruption between two switches: the
                    // previous switch's deparser, the flip, this
                    // switch's parser.
                    if dirty {
                        regs.encode(layout, &mut frame[ETH_HEADER_LEN..]);
                        dirty = false;
                    }
                    apply_bitflip_frame(frame, layout, bit);
                    regs = Registers::decode(layout, &frame[ETH_HEADER_LEN..]);
                    self.metrics
                        .bitflips_injected
                        .fetch_add(1, Ordering::Relaxed);
                    flip = None;
                }
            }
            hop += 1;
            // In bounds by the err_hop pre-check (hop - 1 < err_hop).
            if self.pipelines[node].step(&mut regs).reported() {
                break MemoVerdict::Loop {
                    trigger: node as u32,
                    hop,
                };
            }
            dirty = true;
            if hop >= self.max_hops {
                break MemoVerdict::TtlDropped { hops: hop };
            }
        };
        if dirty {
            // The deparser.
            regs.encode(layout, &mut frame[ETH_HEADER_LEN..]);
        }
        end
    }

    /// Applies a walk outcome to the shard's books: hop and outcome
    /// counters (into the batch tally), plus §3.5 membership collection
    /// and the loop event for detections. The single accounting sink for every walk flavour —
    /// a memoized verdict is indistinguishable from a walked one here.
    fn settle(
        &self,
        tally: &mut BatchTally,
        flow: FlowKey,
        seq: u64,
        route: &CompiledRoute,
        end: MemoVerdict,
    ) {
        match end {
            MemoVerdict::Delivered { hops } => {
                tally.hops += hops as u64;
                tally.delivered += 1;
            }
            MemoVerdict::Loop { trigger, hop } => {
                tally.hops += hop as u64;
                self.report_loop(flow, seq, route, trigger as usize, hop);
            }
            MemoVerdict::TtlDropped { hops } => {
                tally.hops += hops as u64;
                tally.ttl_dropped += 1;
            }
            MemoVerdict::RouteError { hops } => {
                tally.hops += hops as u64;
                tally.route_errors += 1;
            }
            MemoVerdict::FrameError { hops } => {
                tally.hops += hops as u64;
                tally.frame_errors += 1;
            }
        }
    }

    /// §3.5 membership collection: from the trigger switch, keep
    /// following the (known, looping) route recording switch IDs until
    /// the trigger reappears — the recorded set is the loop. Takes the
    /// packet's fields separately so the caller's in-place frame borrow
    /// stays undisturbed.
    fn report_loop(
        &self,
        flow: FlowKey,
        seq: u64,
        route: &CompiledRoute,
        trigger_node: usize,
        hop: u32,
    ) {
        let trigger = self.ids[trigger_node];
        let mut members = vec![trigger];
        let mut complete = false;
        let mut i = hop as usize; // route index of the hop *after* the trigger
        while members.len() < MEMBERSHIP_CAP {
            let Some(node) = route.hop(i) else {
                break;
            };
            let Some(&id) = self.ids.get(node) else {
                break;
            };
            if id == trigger {
                complete = true;
                break;
            }
            members.push(id);
            i += 1;
        }
        self.metrics.loop_events.fetch_add(1, Ordering::Relaxed);
        let gen = self.routes.generation();
        if gen > self.routes.initial_generation() {
            // This loop lives in a route generation published while
            // traffic was already flowing — live detection, not replay.
            self.metrics
                .loops_after_swap
                .fetch_add(1, Ordering::Relaxed);
            // First loop event this shard raises against `gen` records
            // the detection latency: swap publish → loop event.
            if self.metrics.latency_gen.fetch_max(gen, Ordering::Relaxed) < gen {
                if let Some(published) = self.routes.publish_ns(gen) {
                    self.metrics
                        .detect_latency_ns
                        .record(self.routes.now_ns().saturating_sub(published));
                }
            }
        }
        let event = LoopEvent {
            flow,
            seq,
            shard: self.shard,
            trigger,
            hop,
            members,
            complete,
        };
        match self.event_faults.fate() {
            EventFate::Drop => {
                self.metrics
                    .events_dropped_injected
                    .fetch_add(1, Ordering::Relaxed);
            }
            EventFate::Duplicate => {
                self.metrics
                    .events_duplicated_injected
                    .fetch_add(1, Ordering::Relaxed);
                self.send_event(event.clone());
                self.send_event(event);
            }
            EventFate::Deliver => self.send_event(event),
        }
    }

    /// Sends one event toward the aggregator, tolerating a closed
    /// channel: a send can only fail post-aggregator-teardown, which
    /// join ordering rules out in a healthy run — count it and keep
    /// draining rather than panic a worker.
    fn send_event(&self, event: LoopEvent) {
        if self.events.send(event).is_err() {
            self.metrics
                .events_send_failed
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

// Keep the sentinel honest if the table representation ever changes.
const _: () = assert!(ROUTE_VALID == u32::MAX);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::EpochRouteTable;
    use crate::faults::FaultPlan;
    use crate::flow::FlowKey;
    use crate::packet::PathSpec;
    use crate::ring::{ring, FullPolicy};
    use crate::route::{RouteId, RouteSet, RouteSetBuilder};
    use std::time::Duration;
    use unroller_core::UnrollerParams;

    const RECV_WAIT: Duration = Duration::from_secs(10);

    type Fixture = (
        ShardWorker,
        crate::ring::RingProducer<EnginePacket>,
        std::sync::mpsc::Receiver<LoopEvent>,
    );

    fn worker_fixture(nodes: usize, max_hops: u32) -> Fixture {
        worker_fixture_with(UnrollerParams::default(), nodes, max_hops)
    }

    fn worker_fixture_with(params: UnrollerParams, nodes: usize, max_hops: u32) -> Fixture {
        let ids: Arc<[SwitchId]> = (0..nodes as u32).map(|i| 100 + i).collect();
        let pipelines = Arc::new(
            ids.iter()
                .map(|&id| UnrollerPipeline::new(id, params).expect("valid default params"))
                .collect::<Vec<_>>(),
        );
        // Tests enqueue everything before `run()` starts consuming, so
        // the ring must hold the largest test workload without blocking.
        let (producer, consumer, _) = ring(512, FullPolicy::Block);
        let (ev_tx, ev_rx) = std::sync::mpsc::channel();
        let worker = ShardWorker {
            shard: 0,
            pipelines,
            ids,
            routes: Arc::new(EpochRouteTable::new(RouteSetBuilder::new().build())).reader(),
            layout: HeaderLayout::from_params(&params),
            max_hops,
            batch_size: 8,
            metrics: Arc::new(ShardMetrics::default()),
            events: ev_tx,
            consumer,
            faults: None,
            event_faults: EventFaults::inactive(),
            kick: Arc::new(AtomicBool::new(false)),
            pin_core: None,
            memo: None,
            stepped: false,
        };
        (worker, producer, ev_rx)
    }

    /// Interns one path and installs the resulting single-route set on
    /// the worker (as generation 1 of a fresh epoch table); most tests
    /// walk exactly one distinct path.
    fn install_route(worker: &mut ShardWorker, path: PathSpec) -> RouteId {
        let mut b = RouteSetBuilder::new();
        let id = b.intern(&path);
        worker.routes = Arc::new(EpochRouteTable::new(b.build())).reader();
        id
    }

    fn packet(seq: u64, route: RouteId) -> EnginePacket {
        EnginePacket {
            flow: FlowKey::synthetic(0, 1, 0),
            seq,
            route,
            frame: None,
        }
    }

    #[test]
    fn delivers_loop_free_packets() {
        let (mut worker, producer, ev_rx) = worker_fixture(6, 64);
        let route = install_route(&mut worker, PathSpec::linear(vec![0, 1, 2, 3]));
        let metrics = worker.metrics.clone();
        for seq in 0..10 {
            producer.push(packet(seq, route));
        }
        drop(producer);
        worker.run();
        let snap = metrics.snapshot();
        assert_eq!(snap.packets, 10);
        assert_eq!(snap.delivered, 10);
        assert_eq!(snap.loop_events, 0);
        assert_eq!(snap.hops, 40);
        assert!(snap.batches >= 2);
        assert!(ev_rx.try_recv().is_err(), "no events for clean traffic");
    }

    #[test]
    fn detects_loop_and_collects_membership() {
        let (mut worker, producer, ev_rx) = worker_fixture(6, 64);
        // 0 → [1, 2, 3] cycling: IDs 101, 102, 103 form the loop.
        let route = install_route(&mut worker, PathSpec::looping(vec![0], vec![1, 2, 3]));
        let metrics = worker.metrics.clone();
        producer.push(packet(0, route));
        drop(producer);
        worker.run();
        let snap = metrics.snapshot();
        assert_eq!(snap.loop_events, 1);
        assert_eq!(snap.delivered, 0);
        assert_eq!(snap.ttl_dropped, 0, "detector beats the TTL");
        let event = ev_rx
            .recv_timeout(RECV_WAIT)
            .expect("worker sent the loop event before exiting");
        assert!(event.complete, "membership closed the cycle");
        let mut members = event.members.clone();
        members.sort_unstable();
        assert_eq!(members, vec![101, 102, 103]);
        assert_eq!(event.hop as u64, snap.hops);
    }

    #[test]
    fn ttl_caps_undetectable_walks() {
        // max_hops below the detection bound (a ping-pong is detected
        // on hop 3, the loop-closing revisit): the TTL fires first.
        let (mut worker, producer, _ev_rx) = worker_fixture(4, 2);
        let route = install_route(&mut worker, PathSpec::looping(vec![], vec![0, 1]));
        let metrics = worker.metrics.clone();
        producer.push(packet(0, route));
        drop(producer);
        worker.run();
        let snap = metrics.snapshot();
        assert_eq!(snap.ttl_dropped, 1);
        assert_eq!(snap.loop_events, 0);
        assert_eq!(snap.hops, 2);
    }

    #[test]
    fn unknown_nodes_count_route_errors() {
        let (mut worker, producer, _ev_rx) = worker_fixture(3, 64);
        let route = install_route(&mut worker, PathSpec::linear(vec![0, 99]));
        let metrics = worker.metrics.clone();
        producer.push(packet(0, route));
        drop(producer);
        worker.run();
        let snap = metrics.snapshot();
        assert_eq!(snap.route_errors, 1);
        assert_eq!(snap.hops, 1, "the valid prefix was processed");
    }

    #[test]
    fn looping_route_with_invalid_cycle_hop_errors_out() {
        // The invalid hop sits inside the cycle: the pre-computed
        // err_hop must stop the walk there instead of letting the
        // wrapped cycle cursor index out of the pipeline array.
        let (mut worker, producer, _ev_rx) = worker_fixture(3, 64);
        let route = install_route(&mut worker, PathSpec::looping(vec![0], vec![1, 88]));
        let metrics = worker.metrics.clone();
        producer.push(packet(0, route));
        drop(producer);
        worker.run();
        let snap = metrics.snapshot();
        assert_eq!(snap.route_errors, 1);
        assert_eq!(snap.hops, 2, "hops 0 and 1 processed before the error");
        assert_eq!(snap.loop_events, 0);
    }

    #[test]
    fn cpu_time_recorded_on_linux() {
        let (mut worker, producer, _ev_rx) = worker_fixture(4, 64);
        let route = install_route(&mut worker, PathSpec::linear(vec![0, 1]));
        let metrics = worker.metrics.clone();
        producer.push(packet(0, route));
        drop(producer);
        worker.run();
        if thread_cpu_ns().is_some() {
            // Stored (possibly 0 ticks for so little work, but stored).
            let _ = metrics.snapshot().cpu_ns;
        }
    }

    #[test]
    fn pinned_worker_records_its_core() {
        let (mut worker, producer, _ev_rx) = worker_fixture(4, 64);
        let route = install_route(&mut worker, PathSpec::linear(vec![0, 1]));
        worker.pin_core = Some(0); // core 0 always exists
        let metrics = worker.metrics.clone();
        producer.push(packet(0, route));
        drop(producer);
        worker.run();
        let snap = metrics.snapshot();
        if cfg!(target_os = "linux") {
            assert_eq!(snap.pinned_core, Some(0), "pin to core 0 succeeds");
        } else {
            assert_eq!(snap.pinned_core, None, "pinning is Linux-only");
        }
    }

    #[test]
    fn dead_aggregator_is_tolerated_and_counted() {
        // Dropping the event receiver before the worker runs forces
        // every loop-event send to fail: the worker must finish its
        // ring cleanly and count the failures instead of panicking.
        let (mut worker, producer, ev_rx) = worker_fixture(6, 64);
        let route = install_route(&mut worker, PathSpec::looping(vec![0], vec![1, 2]));
        let metrics = worker.metrics.clone();
        drop(ev_rx);
        for seq in 0..5 {
            producer.push(packet(seq, route));
        }
        drop(producer);
        worker.run();
        let snap = metrics.snapshot();
        assert_eq!(snap.packets, 5, "worker drains despite the dead sink");
        assert_eq!(snap.loop_events, 5);
        assert_eq!(snap.events_send_failed, 5);
    }

    #[test]
    fn injected_panics_are_supervised_and_accounted() {
        let (mut worker, producer, _ev_rx) = worker_fixture(6, 64);
        let route = install_route(&mut worker, PathSpec::linear(vec![0, 1, 2]));
        // Every packet panics; budget of 3 restarts, then drain-only.
        worker.faults = Some(
            FaultPlan {
                seed: 1,
                panic_rate: 1.0,
                max_restarts: 3,
                ..FaultPlan::default()
            }
            .for_shard(0),
        );
        let metrics = worker.metrics.clone();
        for seq in 0..20 {
            producer.push(packet(seq, route));
        }
        drop(producer);
        worker.run();
        let snap = metrics.snapshot();
        assert_eq!(snap.restarts, 3, "budget honored exactly");
        assert_eq!(
            snap.packets + snap.panic_lost,
            20,
            "every packet is either processed or counted lost"
        );
        assert_eq!(snap.packets, 0, "all-panic plan processes nothing");
        assert!(snap.panics_injected >= 4, "the supervised panics fired");
    }

    #[test]
    fn moderate_panic_rate_loses_only_the_panicking_packets() {
        // With the memo on, every restart also invalidates the table, so
        // survivors mix cache hits with re-warming walks.
        for memo in [None, Some(MemoConfig { sample_every: 4 })] {
            let (mut worker, producer, _ev_rx) = worker_fixture(6, 64);
            let route = install_route(&mut worker, PathSpec::linear(vec![0, 1, 2, 3]));
            worker.memo = memo;
            worker.faults = Some(
                FaultPlan {
                    seed: 9,
                    panic_rate: 0.05,
                    ..FaultPlan::default()
                }
                .for_shard(0),
            );
            let metrics = worker.metrics.clone();
            for seq in 0..400 {
                producer.push(packet(seq, route));
            }
            drop(producer);
            worker.run();
            let snap = metrics.snapshot();
            assert!(snap.panic_lost > 0, "5% over 400 packets fires");
            assert_eq!(snap.packets + snap.panic_lost, 400, "memo {memo:?}");
            assert_eq!(
                snap.restarts, snap.panic_lost,
                "memo {memo:?}: each panic loses exactly one packet and costs one restart"
            );
            assert_eq!(snap.delivered, snap.packets, "survivors all deliver");
            // The injected panic fires before the walk, so a lost packet
            // adds no hops: a per-batch tally dropped or flushed twice
            // across a restart breaks these sums.
            assert_eq!(snap.hops, 4 * snap.delivered, "memo {memo:?}: 4 hops each");
            assert_eq!(snap.memo_divergence, 0);
            if memo.is_some() {
                assert!(snap.memo_hits > 0, "the table served between restarts");
                assert!(snap.memo_misses > 1, "restarts forced the table to re-warm");
                assert_eq!(
                    snap.memo_hits + snap.memo_misses,
                    snap.packets,
                    "every survivor was a hit or a miss"
                );
            }
        }
    }

    #[test]
    fn bitflips_are_injected_and_survive_processing() {
        let (mut worker, producer, _ev_rx) = worker_fixture(8, 64);
        let route = install_route(&mut worker, PathSpec::linear(vec![0, 1, 2, 3, 4, 5]));
        worker.faults = Some(
            FaultPlan {
                seed: 4,
                bitflip_rate: 1.0,
                ..FaultPlan::default()
            }
            .for_shard(0),
        );
        let metrics = worker.metrics.clone();
        for seq in 0..100 {
            producer.push(packet(seq, route));
        }
        drop(producer);
        worker.run();
        let snap = metrics.snapshot();
        assert_eq!(snap.packets, 100, "corruption never crashes the walk");
        assert!(snap.bitflips_injected > 0, "flips landed");
        // A flipped header may mis-deliver or false-report, but every
        // packet still terminates one way or another. Flips land inside
        // the shim, so the frame itself stays parseable.
        assert_eq!(snap.frame_errors, 0);
        assert_eq!(
            snap.delivered + snap.ttl_dropped + snap.loop_events + snap.route_errors,
            100
        );
    }

    #[test]
    fn injected_stall_is_cut_short_by_a_kick() {
        let (mut worker, producer, _ev_rx) = worker_fixture(4, 64);
        let route = install_route(&mut worker, PathSpec::linear(vec![0, 1]));
        worker.faults = Some(
            FaultPlan {
                seed: 2,
                stall_rate: 1.0,
                stall_ms: 60_000, // would dwarf the test without a kick
                ..FaultPlan::default()
            }
            .for_shard(0),
        );
        let kick = worker.kick.clone();
        let metrics = worker.metrics.clone();
        producer.push(packet(0, route));
        drop(producer);
        // Pre-arm the kick: the stall loop observes it on its first
        // poll and aborts immediately.
        kick.store(true, Ordering::Relaxed);
        let start = Instant::now();
        worker.run();
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "kick must abort the stall"
        );
        let snap = metrics.snapshot();
        assert_eq!(snap.stalls_injected, 1);
        assert_eq!(snap.stalls_aborted, 1);
        assert_eq!(snap.packets, 1);
    }

    #[test]
    fn carried_frames_are_processed_in_their_own_bytes() {
        // A packet with recorded wire bytes (a capture replay) must be
        // processed in that buffer: a shim pre-walked through switches
        // 0 and 1 re-enters switch 0 and reports on the FIRST hop of
        // the replayed walk — state the scratch frame would not have.
        let (mut worker, producer, ev_rx) = worker_fixture(6, 64);
        let route = install_route(&mut worker, PathSpec::linear(vec![0, 2, 3]));
        let params = UnrollerParams::default();
        let layout = HeaderLayout::from_params(&params);
        let mut frame = build_frame(
            &layout,
            &EthernetHeader::for_hosts(0, 1),
            &WireHeader::initial(&layout),
            b"replayed",
        );
        // Pre-walk: the capture point saw the packet after switches
        // 100 and 101 (the fixture's IDs for nodes 0 and 1).
        UnrollerPipeline::new(100, params)
            .unwrap()
            .process_frame_in_place(&mut frame)
            .unwrap();
        UnrollerPipeline::new(101, params)
            .unwrap()
            .process_frame_in_place(&mut frame)
            .unwrap();
        let metrics = worker.metrics.clone();
        let mut p = packet(0, route);
        p.frame = Some(frame.into_boxed_slice());
        producer.push(p);
        drop(producer);
        worker.run();
        let snap = metrics.snapshot();
        assert_eq!(snap.loop_events, 1, "carried shim state must be honored");
        assert_eq!(snap.hops, 1, "reported on the first replayed hop");
        let event = ev_rx.recv_timeout(RECV_WAIT).expect("loop event");
        assert_eq!(event.trigger, 100);
    }

    #[test]
    fn malformed_frames_count_frame_errors() {
        let (mut worker, producer, _ev_rx) = worker_fixture(4, 64);
        let route = install_route(&mut worker, PathSpec::linear(vec![0, 1]));
        let metrics = worker.metrics.clone();
        let mut runt = packet(0, route);
        runt.frame = Some(vec![0u8; 6].into_boxed_slice()); // shorter than an Ethernet header
        producer.push(runt);
        let mut wrong_type = packet(1, route);
        let params = UnrollerParams::default();
        let layout = HeaderLayout::from_params(&params);
        let mut eth = EthernetHeader::for_hosts(0, 1);
        eth.ethertype = 0x0800;
        wrong_type.frame = Some(
            build_frame(&layout, &eth, &WireHeader::initial(&layout), b"ipv4").into_boxed_slice(),
        );
        producer.push(wrong_type);
        producer.push(packet(2, route)); // healthy
        drop(producer);
        worker.run();
        let snap = metrics.snapshot();
        assert_eq!(snap.packets, 3, "malformed frames still count consumed");
        assert_eq!(snap.frame_errors, 2);
        assert_eq!(snap.delivered, 1);
    }

    #[test]
    fn event_faults_drop_and_duplicate_loop_events() {
        let plan = FaultPlan {
            seed: 6,
            event_drop_rate: 0.3,
            event_dup_rate: 0.3,
            ..FaultPlan::default()
        };
        let (mut worker, producer, ev_rx) = worker_fixture(6, 64);
        let route = install_route(&mut worker, PathSpec::looping(vec![0], vec![1, 2]));
        worker.event_faults = plan.event_faults(0);
        let metrics = worker.metrics.clone();
        for seq in 0..50 {
            producer.push(packet(seq, route));
        }
        drop(producer);
        worker.run();
        let snap = metrics.snapshot();
        assert_eq!(snap.loop_events, 50, "every detection is counted");
        assert!(snap.events_dropped_injected > 0);
        assert!(snap.events_duplicated_injected > 0);
        let received = ev_rx.try_iter().count() as u64;
        assert_eq!(
            received,
            snap.loop_events - snap.events_dropped_injected + snap.events_duplicated_injected,
            "channel traffic matches the injected drop/dup accounting"
        );
    }

    /// Spins until the worker has consumed `n` packets, so a publish
    /// lands on a batch boundary between two known packets.
    fn wait_for_packets(metrics: &Arc<ShardMetrics>, n: u64) {
        let deadline = Instant::now() + RECV_WAIT;
        while metrics.snapshot().packets < n {
            assert!(
                Instant::now() < deadline,
                "worker never consumed packet {n}"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn route_swap_rekeys_the_validity_cache() {
        // Gen 1: a 3-hop route whose last hop (99) is invalid — the
        // cached err_hop is 2. Gen 2 swaps the *same slot* to a 6-hop
        // fully valid route: a stale validity cache would flag hop 2 of
        // the new route as a spurious `route_error` (or, worse, let the
        // walk index past the old route's end).
        let (mut worker, producer, _ev_rx) = worker_fixture(8, 64);
        let table = Arc::new(EpochRouteTable::new(RouteSet::from_specs(&[
            PathSpec::linear(vec![0, 1, 99]),
        ])));
        worker.routes = table.reader();
        let route = RouteId::from_index(0);
        let metrics = worker.metrics.clone();
        producer.push(packet(0, route));
        let handle = std::thread::spawn(move || worker.run());
        wait_for_packets(&metrics, 1);
        table.publish(RouteSet::from_specs(&[PathSpec::linear(vec![
            0, 1, 2, 3, 4, 5,
        ])]));
        for seq in 1..=2 {
            producer.push(packet(seq, route));
        }
        drop(producer);
        handle.join().unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.packets, 3);
        assert_eq!(snap.route_errors, 1, "only the gen-1 walk errors");
        assert_eq!(snap.delivered, 2, "gen-2 walks deliver, no spurious errors");
        // 2 valid hops before the gen-1 error + 6 per delivered walk.
        assert_eq!(snap.hops, 2 + 12);
        assert_eq!(snap.route_swaps_observed, 1);
        assert_eq!(snap.loops_after_swap, 0);
    }

    #[test]
    fn loops_after_swap_record_detection_latency() {
        let (mut worker, producer, ev_rx) = worker_fixture(6, 64);
        let table = Arc::new(EpochRouteTable::new(RouteSet::from_specs(&[
            PathSpec::linear(vec![0, 1, 2]),
        ])));
        worker.routes = table.reader();
        let route = RouteId::from_index(0);
        let metrics = worker.metrics.clone();
        producer.push(packet(0, route));
        let handle = std::thread::spawn(move || worker.run());
        wait_for_packets(&metrics, 1);
        // Swap the flow's slot to a micro-loop, published mid-traffic.
        table.publish(RouteSet::from_specs(&[PathSpec::looping(
            vec![0],
            vec![1, 2],
        )]));
        producer.push(packet(1, route));
        producer.push(packet(2, route));
        drop(producer);
        handle.join().unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.delivered, 1, "the gen-1 packet delivered");
        assert_eq!(snap.loop_events, 2);
        assert_eq!(
            snap.loops_after_swap, 2,
            "both loops live in a post-startup generation"
        );
        assert_eq!(
            snap.detect_latency_ns.count, 1,
            "latency recorded once per generation per shard"
        );
        assert!(snap.detect_latency_ns.max < 10_000_000_000, "sane latency");
        assert_eq!(ev_rx.try_iter().count(), 2);
    }

    #[test]
    fn route_swap_never_serves_a_stale_memo_verdict() {
        // Gen 1 caches `Delivered` for slot 0. Gen 2 swaps the SAME
        // slot to a micro-loop with sampling disabled (`sample_every:
        // 0`), so only generation-keyed invalidation stands between
        // post-swap packets and the stale cached verdict. A stale hit
        // would count them delivered and raise no loop events.
        let (mut worker, producer, ev_rx) = worker_fixture(6, 64);
        let table = Arc::new(EpochRouteTable::new(RouteSet::from_specs(&[
            PathSpec::linear(vec![0, 1, 2]),
        ])));
        worker.routes = table.reader();
        worker.memo = Some(MemoConfig { sample_every: 0 });
        let route = RouteId::from_index(0);
        let metrics = worker.metrics.clone();
        // Enough gen-1 packets to both fill and then hit the cache.
        for seq in 0..4 {
            producer.push(packet(seq, route));
        }
        let handle = std::thread::spawn(move || worker.run());
        wait_for_packets(&metrics, 4);
        table.publish(RouteSet::from_specs(&[PathSpec::looping(
            vec![0],
            vec![1, 2],
        )]));
        for seq in 4..8 {
            producer.push(packet(seq, route));
        }
        drop(producer);
        handle.join().unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.delivered, 4, "only the gen-1 packets deliver");
        assert_eq!(snap.loop_events, 4, "every post-swap packet re-walks");
        assert_eq!(snap.route_swaps_observed, 1);
        assert!(snap.memo_hits >= 3, "gen-1 cache was actually serving");
        assert!(
            snap.memo_misses >= 2,
            "the swap forced at least one re-warm miss"
        );
        assert_eq!(ev_rx.try_iter().count(), 4);
    }

    #[test]
    fn carried_frames_bypass_the_memo() {
        // A generated packet caches `Delivered` for the route; a
        // replayed frame on the SAME route arrives pre-walked through
        // two other switches and must loop-report in its own bytes —
        // serving it the cached generated-walk verdict would silently
        // drop the detection.
        let (mut worker, producer, ev_rx) = worker_fixture(6, 64);
        let route = install_route(&mut worker, PathSpec::linear(vec![0, 2, 3]));
        worker.memo = Some(MemoConfig { sample_every: 0 });
        let params = UnrollerParams::default();
        let layout = HeaderLayout::from_params(&params);
        let mut frame = build_frame(
            &layout,
            &EthernetHeader::for_hosts(0, 1),
            &WireHeader::initial(&layout),
            b"replayed",
        );
        UnrollerPipeline::new(100, params)
            .unwrap()
            .process_frame_in_place(&mut frame)
            .unwrap();
        UnrollerPipeline::new(101, params)
            .unwrap()
            .process_frame_in_place(&mut frame)
            .unwrap();
        let metrics = worker.metrics.clone();
        producer.push(packet(0, route)); // warms the cache
        let mut replayed = packet(1, route);
        replayed.frame = Some(frame.into_boxed_slice());
        producer.push(replayed);
        producer.push(packet(2, route)); // hits the cache
        drop(producer);
        worker.run();
        let snap = metrics.snapshot();
        assert_eq!(snap.delivered, 2, "both generated packets deliver");
        assert_eq!(snap.loop_events, 1, "the carried shim state is honored");
        assert_eq!(snap.memo_misses, 1);
        assert_eq!(snap.memo_hits, 1, "the replayed frame never consulted it");
        assert_eq!(ev_rx.try_iter().count(), 1);
    }

    /// Runs a fixed mixed workload — delivered, looping, route-error
    /// and TTL-capped routes interleaved — under the given memo mode and
    /// returns the shard snapshot.
    fn run_mixed(memo: Option<MemoConfig>) -> crate::metrics::ShardSnapshot {
        let (mut worker, producer, _ev_rx) = worker_fixture(12, 8);
        let mut b = RouteSetBuilder::new();
        let routes = [
            b.intern(&PathSpec::linear(vec![0, 1, 2, 3])),
            b.intern(&PathSpec::looping(vec![0], vec![1, 2, 3])),
            b.intern(&PathSpec::linear(vec![0, 1, 99])),
            // Ten distinct hops: nothing to revisit, so the TTL (8)
            // fires before the route ends.
            b.intern(&PathSpec::linear(vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9])),
        ];
        worker.routes = Arc::new(EpochRouteTable::new(b.build())).reader();
        worker.memo = memo;
        let metrics = worker.metrics.clone();
        for seq in 0..60 {
            producer.push(packet(seq, routes[seq as usize % routes.len()]));
        }
        drop(producer);
        worker.run();
        metrics.snapshot()
    }

    #[test]
    fn memoized_modes_match_walked_accounting() {
        let walked = run_mixed(None);
        assert_eq!(walked.packets, 60);
        assert_eq!(walked.delivered, 15);
        assert_eq!(walked.loop_events, 15);
        assert_eq!(walked.route_errors, 15);
        assert_eq!(walked.ttl_dropped, 15, "the long route outruns the TTL");
        for (name, snap) in [
            ("memo", run_mixed(Some(MemoConfig { sample_every: 1 }))),
            (
                "memo-unsampled",
                run_mixed(Some(MemoConfig { sample_every: 0 })),
            ),
        ] {
            assert_eq!(snap.packets, walked.packets, "{name}: packets");
            assert_eq!(snap.delivered, walked.delivered, "{name}: delivered");
            assert_eq!(snap.loop_events, walked.loop_events, "{name}: loops");
            assert_eq!(
                snap.route_errors, walked.route_errors,
                "{name}: route_errors"
            );
            assert_eq!(snap.ttl_dropped, walked.ttl_dropped, "{name}: ttl");
            assert_eq!(snap.hops, walked.hops, "{name}: hop totals");
            assert_eq!(snap.frame_errors, 0, "{name}: frame_errors");
            assert_eq!(snap.memo_divergence, 0, "{name}: divergence");
        }
        let memoized = run_mixed(Some(MemoConfig { sample_every: 1 }));
        assert_eq!(memoized.memo_misses, 4, "one warm-up walk per route");
        assert_eq!(memoized.memo_hits, 56);
        assert_eq!(
            memoized.memo_sampled_walks, 56,
            "paranoid mode re-walks every hit"
        );
    }

    /// The reference walk: one `process_frame_in_place` per hop, the
    /// frame re-parsed and re-deparsed at every switch, a bit-flip
    /// applied to the wire bytes before the flipped hop.
    fn per_hop_walk(
        worker: &ShardWorker,
        route: &CompiledRoute,
        frame: &mut [u8],
        flip: Option<(u32, u32)>,
    ) -> MemoVerdict {
        let mut hop = 0u32;
        loop {
            let Some(node) = route.hop(hop as usize) else {
                return MemoVerdict::Delivered { hops: hop };
            };
            let Some(pipeline) = worker.pipelines.get(node) else {
                return MemoVerdict::RouteError { hops: hop };
            };
            if let Some((_, bit)) = flip.filter(|&(at_hop, _)| at_hop == hop) {
                apply_bitflip_frame(frame, &worker.layout, bit);
            }
            hop += 1;
            match pipeline.process_frame_in_place(frame) {
                Ok(verdict) if verdict.reported() => {
                    return MemoVerdict::Loop {
                        trigger: node as u32,
                        hop,
                    }
                }
                Ok(_) => {}
                Err(_) => return MemoVerdict::FrameError { hops: hop - 1 },
            }
            if hop >= worker.max_hops {
                return MemoVerdict::TtlDropped { hops: hop };
            }
        }
    }

    mod walk_equivalence {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Decode once, step on registers, encode once is bit-exact
            /// with chaining the single-hop in-place path: same outcome,
            /// same hop count, same final frame bytes — across parameter
            /// space (Th > 1, c·H = 64, non-power-of-two b), random
            /// routes (empty, looping, with out-of-range hops), carried
            /// shims in any state (garbage padding, Xcnt at 254/255), an
            /// optional bit-flip, and malformed frames.
            #[test]
            fn register_walk_matches_per_hop_frame_walk(
                params_idx in 0usize..6,
                nodes in 1usize..10,
                max_hops in 1u32..48,
                pre in prop::collection::vec(0usize..12, 0..6),
                cycle in prop::collection::vec(0usize..12, 0..5),
                shim_bytes in prop::collection::vec(any::<u8>(), 260),
                xcnt_mode in 0u8..3,
                xcnt in any::<u8>(),
                flip_at in 0u32..32,
                flip_bit in any::<u32>(),
                malformed in 0usize..8,
            ) {
                let params = [
                    UnrollerParams::default(),
                    UnrollerParams::default().with_z(7).with_th(4),
                    UnrollerParams::default().with_c(2).with_h(2).with_z(12).with_th(3),
                    UnrollerParams::default().with_c(8).with_h(8).with_z(5).with_th(2),
                    UnrollerParams::default().with_b(3).with_th(2),
                    UnrollerParams::default().with_b(5).with_c(3).with_h(2).with_z(11),
                ][params_idx];
                let (worker, _producer, _events) = worker_fixture_with(params, nodes, max_hops);
                let spec = if cycle.is_empty() {
                    PathSpec::linear(pre)
                } else {
                    PathSpec::looping(pre, cycle)
                };
                let routes = RouteSet::from_specs(&[spec]);
                let route = routes.get(RouteId::from_index(0));
                let err_hop = routes.first_invalid_hops(nodes)[0];

                // A carried frame: the shim holds whatever the capture
                // saw, padding included.
                let layout = worker.layout;
                let mut frame = build_frame(
                    &layout,
                    &EthernetHeader::for_hosts(3, 4),
                    &WireHeader::initial(&layout),
                    b"payload",
                );
                let shim_end = ETH_HEADER_LEN + layout.total_bytes();
                frame[ETH_HEADER_LEN..shim_end]
                    .copy_from_slice(&shim_bytes[..shim_end - ETH_HEADER_LEN]);
                match xcnt_mode {
                    1 => frame[ETH_HEADER_LEN] = xcnt,
                    2 => frame[ETH_HEADER_LEN] = 254 + xcnt % 2, // saturation
                    _ => {}
                }
                match malformed {
                    0 => frame.truncate(shim_end - 1),
                    1 => frame[12] ^= 0x40,
                    _ => {}
                }
                let flip = (flip_at < 24).then_some((flip_at, flip_bit));

                let mut expected = frame.clone();
                let want = per_hop_walk(&worker, route, &mut expected, flip);
                let got = worker.walk_frame(route, err_hop, &mut frame, flip);
                prop_assert_eq!(got, want);
                prop_assert_eq!(frame, expected);
            }
        }
    }
}
