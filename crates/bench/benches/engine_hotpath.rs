//! The engine hot-path amortization benchmark: what route interning,
//! batched ring dispatch, and per-route verdict memoization buy over
//! the naive per-packet design.
//!
//! Four measurements, one JSON report:
//!
//! * `legacy_per_packet_vec` — a faithful in-bench reproduction of the
//!   engine's pre-interning shape: every packet carries its own
//!   heap-allocated route `Vec`, crosses a `sync_channel` one `send`
//!   at a time, and is bounds-checked against the pipeline array at
//!   every hop. Same pipelines, same walks, same zero-copy
//!   `process_frame_in_place` per hop — only the amortization differs.
//! * `interned` — the real [`Engine`] (dispatcher → batched SPSC rings
//!   → workers) over the *same* flow walks via
//!   [`ReplaySource::from_paths`]: routes interned once into a shared
//!   [`RouteSet`], packets carrying a `u32` [`RouteId`], validity
//!   precomputed, bursts published with one index store per shard.
//! * `memoized` — the same engine with `--memo` semantics: the first
//!   packet per route walks and caches `(verdict, final shim)`; every
//!   later packet on that route settles from the cache, with 1-in-64
//!   hits re-walked and bit-compared (divergence asserted zero).
//! * `ring` — the SPSC ring in isolation: single `push` per item
//!   versus `push_batch` bursts of 64, ns/item.
//!
//! Output is JSON (schema in `results/README.md`):
//!
//! ```text
//! cargo bench -p unroller-bench --bench engine_hotpath -- [--quick] [--out PATH]
//! ```
//!
//! `--quick` shrinks workloads for CI's `engine-hotpath-smoke` job,
//! which asserts `speedup_interned_vs_legacy >= 1.0`; the committed
//! baseline `results/BENCH_engine_hotpath.json` is a full run.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::mpsc;
use std::time::Instant;
use unroller_core::UnrollerParams;
use unroller_dataplane::parser::build_frame;
use unroller_dataplane::{
    EthernetHeader, HeaderLayout, UnrollerPipeline, WireHeader, ETH_HEADER_LEN,
};
use unroller_engine::ring::ring;
use unroller_engine::{
    Engine, EngineConfig, FlowKey, FullPolicy, Json, MemoConfig, PathSpec, ReplaySource,
};

const NODES: usize = 64;
const FLOWS: usize = 32;
const MAX_HOPS: u32 = 64;
const BATCH: usize = 64;
const WALK_SEED: u64 = 17;

/// The shared workload: deterministic loop-free walks (3–12 hops over
/// `NODES` virtual switches), one per flow. Both the legacy
/// reproduction and the real engine process exactly these walks.
fn flow_walks() -> Vec<(FlowKey, Vec<usize>)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(WALK_SEED);
    let all: Vec<usize> = (0..NODES).collect();
    (0..FLOWS)
        .map(|f| {
            let len = rng.gen_range(3..=12);
            let mut pool = all.clone();
            pool.shuffle(&mut rng);
            let walk = pool[..len].to_vec();
            let key = FlowKey::synthetic(walk[0] as u32, walk[len - 1] as u32, f as u32);
            (key, walk)
        })
        .collect()
}

fn scratch_frame(layout: &HeaderLayout) -> Vec<u8> {
    let mut frame = build_frame(
        layout,
        &EthernetHeader::for_hosts(0, 1),
        &WireHeader::initial(layout),
        &[],
    );
    frame.resize(frame.len().max(64), 0);
    frame
}

/// What the engine looked like before interning and batched dispatch:
/// the route rides in the packet as an owned `Vec`, allocated fresh
/// per packet.
struct LegacyPacket {
    #[allow(dead_code)]
    flow: FlowKey,
    #[allow(dead_code)]
    seq: u64,
    route: Vec<usize>,
}

/// One timed legacy run: a producer thread clones each flow's walk
/// into a per-packet `Vec` and `send`s packets one at a time through a
/// `sync_channel`; the consumer pulls one blocking `recv` then drains
/// up to a batch with `try_recv`, walking each packet hop by hop with
/// a per-hop bounds check. Returns wall nanoseconds.
fn legacy_run_ns(
    walks: &[(FlowKey, Vec<usize>)],
    pipelines: &[UnrollerPipeline],
    layout: &HeaderLayout,
    packets: u64,
) -> u64 {
    let (tx, rx) = mpsc::sync_channel::<LegacyPacket>(1024);
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut next_flow = 0usize;
            for seq in 0..packets {
                let (flow, walk) = &walks[next_flow];
                next_flow = (next_flow + 1) % walks.len();
                let packet = LegacyPacket {
                    flow: *flow,
                    seq,
                    route: walk.clone(), // the per-packet allocation
                };
                if tx.send(packet).is_err() {
                    break;
                }
            }
        });
        scope.spawn(move || {
            let mut scratch = scratch_frame(layout);
            let shim_end = ETH_HEADER_LEN + layout.total_bytes();
            let mut delivered = 0u64;
            let mut hops_total = 0u64;
            // One blocking pull, then drain a batch opportunistically
            // — the pre-ring dispatch pattern.
            'consume: while let Ok(first) = rx.recv() {
                let mut batch = Vec::with_capacity(BATCH);
                batch.push(first);
                while batch.len() < BATCH {
                    match rx.try_recv() {
                        Ok(p) => batch.push(p),
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            // Process what we hold, then stop.
                            for p in &batch {
                                scratch[ETH_HEADER_LEN..shim_end].fill(0);
                                walk_legacy(p, pipelines, &mut scratch, &mut hops_total);
                                delivered += 1;
                            }
                            break 'consume;
                        }
                    }
                }
                for p in &batch {
                    scratch[ETH_HEADER_LEN..shim_end].fill(0);
                    walk_legacy(p, pipelines, &mut scratch, &mut hops_total);
                    delivered += 1;
                }
            }
            assert_eq!(delivered, packets, "legacy path must process everything");
            black_box(hops_total);
        });
    });
    start.elapsed().as_nanos() as u64
}

/// The legacy per-hop walk: bounds-check the node on every hop (no
/// precomputed validity), process the frame in place, honor the TTL.
fn walk_legacy(
    packet: &LegacyPacket,
    pipelines: &[UnrollerPipeline],
    frame: &mut [u8],
    hops_total: &mut u64,
) {
    let mut hops = 0u32;
    for &node in &packet.route {
        let Some(pipeline) = pipelines.get(node) else {
            break;
        };
        hops += 1;
        if pipeline.process_frame_in_place(frame).is_err() {
            break;
        }
        if hops >= MAX_HOPS {
            break;
        }
    }
    *hops_total += hops as u64;
}

/// One timed engine run over the same walks at `shards` shards, with
/// the memo fast path as configured. Returns (wall_ns, capacity_pps).
fn interned_run(
    walks: &[(FlowKey, Vec<usize>)],
    shards: usize,
    packets: u64,
    memo: Option<MemoConfig>,
) -> (u64, f64) {
    let ids: Vec<u32> = (0..NODES as u32).map(|i| 100 + i).collect();
    let memoized = memo.is_some();
    let engine = Engine::new(
        EngineConfig {
            shards,
            batch_size: BATCH,
            max_hops: MAX_HOPS,
            full_policy: FullPolicy::Block,
            memo,
            ..EngineConfig::default()
        },
        &ids,
    )
    .expect("engine config");
    let flows: Vec<(FlowKey, PathSpec, Option<PathSpec>)> = walks
        .iter()
        .map(|(key, walk)| (*key, PathSpec::linear(walk.clone()), None))
        .collect();
    let mut source = ReplaySource::from_paths(flows, packets, None);
    assert!(!source.any_looping_flow(), "workload is loop-free");
    let report = engine.run(&mut source).expect("fault-free run");
    assert!(report.accounted(), "accounting must balance");
    assert_eq!(report.processed(), packets, "nothing dropped under Block");
    if memoized {
        assert_eq!(report.memo_divergence(), 0, "sampled cross-checks agree");
        assert!(report.memo_hits() > 0, "the cache was exercised");
    }
    (report.wall_ns, report.aggregate_capacity_pps())
}

/// Best-of-3 `interned_run`s per shard count; returns the per-shard
/// JSON rows and the 1-shard wall pps (the headline number).
fn sweep_shards(
    label: &str,
    walks: &[(FlowKey, Vec<usize>)],
    shard_counts: &[usize],
    packets: u64,
    memo: Option<MemoConfig>,
) -> (Vec<Json>, f64) {
    let mut runs = Vec::new();
    let mut one_shard_pps = 0.0f64;
    for &shards in shard_counts {
        eprintln!("engine_hotpath: {label} at {shards} shard(s) (best of 3)...");
        let mut best_ns = u64::MAX;
        let mut best_cap = 0.0f64;
        for _ in 0..3 {
            let (ns, cap) = interned_run(walks, shards, packets, memo);
            if ns < best_ns {
                best_ns = ns;
                best_cap = cap;
            }
        }
        let pps = packets as f64 * 1.0e9 / best_ns as f64;
        if shards == 1 {
            one_shard_pps = pps;
        }
        eprintln!(
            "  shards={shards:<2}             {:>8.1} ns/pkt  {:>12.0} pps",
            best_ns as f64 / packets as f64,
            pps
        );
        let mut obj = Json::object();
        obj.set("shards", Json::UInt(shards as u64));
        obj.set("wall_pps", Json::Float(pps));
        obj.set(
            "ns_per_packet",
            Json::Float(best_ns as f64 / packets as f64),
        );
        obj.set("capacity_pps", Json::Float(best_cap));
        runs.push(obj);
    }
    (runs, one_shard_pps)
}

/// Ring in isolation: ns/item for single-push vs batched-push bursts,
/// same drain pattern on the consumer side. Single-threaded, sized so
/// the ring never fills (what's measured is enqueue cost, not waiting).
fn ring_ns_per_item(iters: u64, batched: bool) -> f64 {
    let burst = 512usize;
    let rounds = (iters as usize / burst).max(1);
    let run = || -> u64 {
        let (producer, consumer, _) = ring::<u64>(1024, FullPolicy::Drop);
        let mut out: Vec<u64> = Vec::with_capacity(burst);
        let mut batch: Vec<u64> = Vec::with_capacity(BATCH);
        let start = Instant::now();
        for round in 0..rounds {
            if batched {
                for chunk in 0..burst / BATCH {
                    batch.extend((0..BATCH as u64).map(|i| round as u64 + chunk as u64 + i));
                    let result = producer.push_batch(&mut batch);
                    assert_eq!(result.dropped, 0, "ring never fills");
                }
            } else {
                for i in 0..burst as u64 {
                    assert!(producer.push(round as u64 + i), "ring never fills");
                }
            }
            let mut drained = 0;
            while drained < burst {
                out.clear();
                assert!(consumer.recv_batch(&mut out, burst));
                drained += out.len();
                black_box(&out);
            }
        }
        start.elapsed().as_nanos() as u64
    };
    let mut best = u64::MAX;
    for _ in 0..3 {
        best = best.min(run());
    }
    best as f64 / (rounds * burst) as f64
}

fn main() {
    let mut quick = false;
    let mut out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_engine_hotpath.json"
    )
    .to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => {
                out = args.next().unwrap_or_else(|| {
                    eprintln!("engine_hotpath: --out requires an argument");
                    std::process::exit(2);
                })
            }
            "--bench" | "--test" => {}
            other => {
                eprintln!("engine_hotpath: unknown argument `{other}` (--quick, --out PATH)");
                std::process::exit(2);
            }
        }
    }

    let packets: u64 = if quick { 40_000 } else { 200_000 };
    let ring_iters: u64 = if quick { 200_000 } else { 2_000_000 };
    let shard_counts: &[usize] = if quick { &[1] } else { &[1, 2, 4] };

    let walks = flow_walks();
    let params = UnrollerParams::default();
    let layout = HeaderLayout::from_params(&params);
    let pipelines: Vec<UnrollerPipeline> = (0..NODES as u32)
        .map(|i| UnrollerPipeline::new(100 + i, params).unwrap())
        .collect();

    eprintln!("engine_hotpath: legacy per-packet-Vec path ({packets} packets, best of 3)...");
    let mut legacy_ns = u64::MAX;
    for _ in 0..3 {
        legacy_ns = legacy_ns.min(legacy_run_ns(&walks, &pipelines, &layout, packets));
    }
    let legacy_pps = packets as f64 * 1.0e9 / legacy_ns as f64;
    eprintln!(
        "  legacy                {:>8.1} ns/pkt  {:>12.0} pps",
        legacy_ns as f64 / packets as f64,
        legacy_pps
    );

    let (interned_runs, interned_1shard_pps) = sweep_shards(
        "interned+batched engine",
        &walks,
        shard_counts,
        packets,
        None,
    );
    let (memo_runs, memo_1shard_pps) = sweep_shards(
        "memoized engine",
        &walks,
        shard_counts,
        packets,
        Some(MemoConfig::default()),
    );

    eprintln!("engine_hotpath: ring push vs push_batch ({ring_iters} items each)...");
    let push_ns = ring_ns_per_item(ring_iters, false);
    let push_batch_ns = ring_ns_per_item(ring_iters, true);
    eprintln!("  push                  {push_ns:>8.2} ns/item");
    eprintln!("  push_batch(64)        {push_batch_ns:>8.2} ns/item");

    let speedup = interned_1shard_pps / legacy_pps;
    let speedup_memo = memo_1shard_pps / interned_1shard_pps;

    let mut legacy_obj = Json::object();
    legacy_obj.set("wall_pps", Json::Float(legacy_pps));
    legacy_obj.set(
        "ns_per_packet",
        Json::Float(legacy_ns as f64 / packets as f64),
    );

    let mut interned_obj = Json::object();
    interned_obj.set("runs", Json::Array(interned_runs));

    let mut memo_obj = Json::object();
    memo_obj.set(
        "sample_every",
        Json::UInt(unroller_engine::DEFAULT_SAMPLE_EVERY),
    );
    memo_obj.set("runs", Json::Array(memo_runs));

    let mut ring_obj = Json::object();
    ring_obj.set("items", Json::UInt(ring_iters));
    ring_obj.set("batch", Json::UInt(BATCH as u64));
    ring_obj.set("push_ns_per_item", Json::Float(push_ns));
    ring_obj.set("push_batch_ns_per_item", Json::Float(push_batch_ns));
    ring_obj.set("batch_speedup", Json::Float(push_ns / push_batch_ns));

    let mut root = Json::object();
    root.set("bench", Json::Str("engine_hotpath".to_string()));
    root.set("quick", Json::Bool(quick));
    root.set("packets", Json::UInt(packets));
    root.set("flows", Json::UInt(FLOWS as u64));
    root.set("nodes", Json::UInt(NODES as u64));
    root.set("legacy_per_packet_vec", legacy_obj);
    root.set("interned", interned_obj);
    root.set("memoized", memo_obj);
    root.set("ring", ring_obj);
    root.set("speedup_interned_vs_legacy", Json::Float(speedup));
    root.set("speedup_memoized_vs_walked", Json::Float(speedup_memo));
    let rendered = root.render_pretty();

    if let Some(parent) = std::path::Path::new(&out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    std::fs::write(&out, &rendered).expect("write benchmark output");
    eprintln!("wrote {out}");
    eprintln!("engine_hotpath: interned+batched is {speedup:.2}x the per-packet-Vec path");
    eprintln!("engine_hotpath: memoization is {speedup_memo:.2}x the interned walk at 1 shard");
}
