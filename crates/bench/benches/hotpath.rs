//! The wire-frame hot-path baseline: a machine-readable benchmark
//! comparing the four ways a packet moves through the Unroller control
//! block, plus the sharded engine end to end.
//!
//! Paths measured (single-threaded, default parameters, 64-byte
//! frames, 16 distinct switch pipelines round-robined so the walk
//! resembles a real multi-hop journey):
//!
//! * `struct_path` — [`UnrollerPipeline::process_header`] on a decoded
//!   [`WireHeader`]: the control block alone, no wire format in sight.
//! * `frame_alloc_path` — [`UnrollerPipeline::process_frame`]: parse
//!   the shim out of the frame bytes into a struct (allocating its
//!   `swids` vector), process, re-encode.
//! * `frame_in_place_path` — [`UnrollerPipeline::process_frame_in_place`]:
//!   decode the shim from the frame buffer into stack [`Registers`],
//!   step, encode back — every hop, no allocation.
//! * `frame_walk_path` — the engine's multi-hop walk: decode the shim
//!   once, [`UnrollerPipeline::step`] the registers through a whole
//!   `RESET_EVERY`-hop route, encode once.
//!
//! The engine section replays an identically-seeded synthetic stream
//! through the full runtime (dispatcher → rings → workers →
//! aggregator) per shard count; workers walk reusable scratch frames
//! the `frame_walk_path` way.
//!
//! Output is JSON (written with [`unroller_engine::Json`], schema
//! documented in `results/README.md`):
//!
//! ```text
//! cargo bench -p unroller-bench --bench hotpath -- [--quick] [--out PATH]
//! ```
//!
//! `--quick` shrinks iteration counts for CI smoke runs; the committed
//! baseline `results/BENCH_hotpath.json` is a full run. CI's
//! `bench-smoke` job asserts the output parses, that the in-place path
//! is not slower than the allocating frame path, and that the
//! decode-once walk is not slower per hop than the in-place path.

use std::hint::black_box;
use std::time::Instant;
use unroller_core::UnrollerParams;
use unroller_dataplane::header::{HeaderLayout, WireHeader};
use unroller_dataplane::parser::build_frame;
use unroller_dataplane::{EthernetHeader, Registers, UnrollerPipeline, ETH_HEADER_LEN};
use unroller_engine::{Engine, EngineConfig, FullPolicy, Json, SyntheticSource};

const SWITCHES: u32 = 16;
/// Reset the walked header/frame to its initial state every this many
/// hops, bounding `thcnt` growth the way a real TTL-bounded walk does.
const RESET_EVERY: usize = 64;

struct PathStats {
    ns_per_hop: f64,
    headers_per_sec: f64,
}

impl PathStats {
    fn from_total(total_ns: u128, iters: u64) -> Self {
        let ns_per_hop = total_ns as f64 / iters as f64;
        PathStats {
            ns_per_hop,
            headers_per_sec: 1.0e9 / ns_per_hop,
        }
    }

    fn to_json(&self, iters: u64) -> Json {
        let mut obj = Json::object();
        obj.set("iters", Json::UInt(iters));
        obj.set("ns_per_hop", Json::Float(self.ns_per_hop));
        obj.set("headers_per_sec", Json::Float(self.headers_per_sec));
        obj
    }
}

/// Times `hop` for `iters` iterations after a small warmup, taking the
/// best of three samples to shave scheduler noise.
fn time_path(iters: u64, mut hop: impl FnMut(usize)) -> u128 {
    for i in 0..(iters / 10).max(1) as usize {
        hop(i);
    }
    let mut best = u128::MAX;
    for _ in 0..3 {
        let start = Instant::now();
        for i in 0..iters as usize {
            hop(i);
        }
        best = best.min(start.elapsed().as_nanos());
    }
    best
}

fn bench_struct_path(pipes: &[UnrollerPipeline], layout: &HeaderLayout, iters: u64) -> PathStats {
    let mut hdr = WireHeader::initial(layout);
    let total = time_path(iters, |i| {
        if i % RESET_EVERY == 0 {
            hdr = WireHeader::initial(layout);
        }
        black_box(pipes[i % pipes.len()].process_header(black_box(&mut hdr)));
    });
    PathStats::from_total(total, iters)
}

fn bench_frame_alloc_path(pipes: &[UnrollerPipeline], template: &[u8], iters: u64) -> PathStats {
    let mut frame = template.to_vec();
    let total = time_path(iters, |i| {
        if i % RESET_EVERY == 0 {
            frame.copy_from_slice(template);
        }
        black_box(
            pipes[i % pipes.len()]
                .process_frame(black_box(&mut frame))
                .unwrap(),
        );
    });
    PathStats::from_total(total, iters)
}

fn bench_frame_in_place_path(pipes: &[UnrollerPipeline], template: &[u8], iters: u64) -> PathStats {
    let mut frame = template.to_vec();
    let total = time_path(iters, |i| {
        if i % RESET_EVERY == 0 {
            frame.copy_from_slice(template);
        }
        black_box(
            pipes[i % pipes.len()]
                .process_frame_in_place(black_box(&mut frame))
                .unwrap(),
        );
    });
    PathStats::from_total(total, iters)
}

fn bench_frame_walk_path(
    pipes: &[UnrollerPipeline],
    layout: &HeaderLayout,
    template: &[u8],
    iters: u64,
) -> PathStats {
    let mut frame = template.to_vec();
    let shim = ETH_HEADER_LEN..ETH_HEADER_LEN + layout.total_bytes();
    let walks = iters / RESET_EVERY as u64;
    let total = time_path(walks, |w| {
        frame.copy_from_slice(template);
        let mut regs = Registers::decode(layout, &frame[shim.clone()]);
        for hop in w * RESET_EVERY..(w + 1) * RESET_EVERY {
            black_box(pipes[hop % pipes.len()].step(&mut regs));
        }
        regs.encode(layout, &mut frame[shim.clone()]);
        black_box(&mut frame);
    });
    PathStats::from_total(total, walks * RESET_EVERY as u64)
}

fn bench_engine(shards: usize, packets: u64) -> Json {
    let ids: Vec<u32> = (0..64).map(|i| 100 + i).collect();
    let engine = Engine::new(
        EngineConfig {
            shards,
            full_policy: FullPolicy::Block,
            ..EngineConfig::default()
        },
        &ids,
    )
    .expect("engine config");
    // Identically-seeded stream per shard count; every 8th of 32 flows
    // loops from a quarter of the way in.
    let mut best_wall_ns = u64::MAX;
    let mut report = None;
    for _ in 0..3 {
        let mut source = SyntheticSource::new(64, 32, packets, 8, packets / 4, 17);
        let r = engine.run(&mut source).expect("fault-free run");
        assert!(r.accounted(), "engine accounting must balance");
        if r.wall_ns < best_wall_ns {
            best_wall_ns = r.wall_ns;
            report = Some(r);
        }
    }
    let report = report.expect("at least one run");
    let mut obj = Json::object();
    obj.set("shards", Json::UInt(shards as u64));
    obj.set("packets", Json::UInt(packets));
    obj.set("wall_pps", Json::Float(report.wall_pps()));
    obj.set(
        "ns_per_packet",
        Json::Float(best_wall_ns as f64 / packets as f64),
    );
    let hops: u64 = report.shard_snapshots.iter().map(|s| s.hops).sum();
    obj.set("hops", Json::UInt(hops));
    obj.set("loop_detected", Json::Bool(report.loop_detected()));
    obj
}

fn main() {
    let mut quick = false;
    // `cargo bench` runs with the crate as CWD; anchor the default at
    // the workspace root so the baseline lands in the tracked results/.
    let mut out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_hotpath.json"
    )
    .to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => {
                out = args.next().unwrap_or_else(|| {
                    eprintln!("hotpath: --out requires an argument");
                    std::process::exit(2);
                })
            }
            // `cargo bench` forwards its own flags (e.g. --bench).
            "--bench" | "--test" => {}
            other => {
                eprintln!("hotpath: unknown argument `{other}` (--quick, --out PATH)");
                std::process::exit(2);
            }
        }
    }

    let iters: u64 = if quick { 200_000 } else { 2_000_000 };
    let engine_packets: u64 = if quick { 20_000 } else { 200_000 };
    let shard_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };

    let params = UnrollerParams::default();
    let layout = HeaderLayout::from_params(&params);
    let pipes: Vec<UnrollerPipeline> = (0..SWITCHES)
        .map(|i| UnrollerPipeline::new(0x3000 + i, params).unwrap())
        .collect();
    let payload = vec![0u8; 64usize.saturating_sub(14 + layout.total_bytes())];
    let template = build_frame(
        &layout,
        &EthernetHeader::for_hosts(1, 2),
        &WireHeader::initial(&layout),
        &payload,
    );

    eprintln!("hotpath: timing dataplane paths ({iters} hops each)...");
    let struct_path = bench_struct_path(&pipes, &layout, iters);
    let alloc_path = bench_frame_alloc_path(&pipes, &template, iters);
    let in_place_path = bench_frame_in_place_path(&pipes, &template, iters);
    let walk_path = bench_frame_walk_path(&pipes, &layout, &template, iters);
    for (name, s) in [
        ("struct_path", &struct_path),
        ("frame_alloc_path", &alloc_path),
        ("frame_in_place_path", &in_place_path),
        ("frame_walk_path", &walk_path),
    ] {
        eprintln!(
            "  {name:<22} {:>8.2} ns/hop  {:>12.0} headers/s",
            s.ns_per_hop, s.headers_per_sec
        );
    }

    let mut engine_runs = Vec::new();
    for &shards in shard_counts {
        eprintln!("hotpath: engine end-to-end at {shards} shard(s) ({engine_packets} packets)...");
        engine_runs.push(bench_engine(shards, engine_packets));
    }

    let mut dataplane = Json::object();
    dataplane.set("struct_path", struct_path.to_json(iters));
    dataplane.set("frame_alloc_path", alloc_path.to_json(iters));
    dataplane.set("frame_in_place_path", in_place_path.to_json(iters));
    dataplane.set("frame_walk_path", walk_path.to_json(iters));

    let mut root = Json::object();
    root.set("bench", Json::Str("hotpath".to_string()));
    root.set("quick", Json::Bool(quick));
    root.set("frame_len", Json::UInt(template.len() as u64));
    root.set("switch_pipelines", Json::UInt(SWITCHES as u64));
    root.set("params", Json::Str(params.to_string()));
    root.set("dataplane", dataplane);
    let mut engine_obj = Json::object();
    engine_obj.set("runs", Json::Array(engine_runs));
    root.set("engine", engine_obj);
    let rendered = root.render_pretty();

    if let Some(parent) = std::path::Path::new(&out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    std::fs::write(&out, &rendered).expect("write benchmark output");
    eprintln!("wrote {out}");

    let speedup = alloc_path.ns_per_hop / in_place_path.ns_per_hop;
    eprintln!("hotpath: in-place is {speedup:.2}x the allocating frame path");
    let speedup = in_place_path.ns_per_hop / walk_path.ns_per_hop;
    eprintln!("hotpath: decode-once walk is {speedup:.2}x the per-hop in-place path");
}
