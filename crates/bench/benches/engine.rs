//! Engine-runtime benchmarks: batched pipeline processing and the
//! sharded runtime end to end at 1 / 2 / 4 shards.
//!
//! On a host with fewer cores than shards the end-to-end wall numbers
//! time-share (see `results/engine_scaling.json` for the CPU-time
//! capacity view); the batch benchmarks below are single-threaded and
//! portable.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use unroller_core::UnrollerParams;
use unroller_dataplane::parser::build_frame;
use unroller_dataplane::{HeaderLayout, UnrollerPipeline, WireHeader};
use unroller_engine::{Engine, EngineConfig, FullPolicy, SyntheticSource};

const BATCH: usize = 64;

/// `process_batch` vs per-header dispatch on one switch pipeline.
fn bench_batch_processing(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_batch");
    group.throughput(Throughput::Elements(BATCH as u64));
    let params = UnrollerParams::default();
    let layout = HeaderLayout::from_params(&params);
    let pipeline = UnrollerPipeline::new(42, params).unwrap();
    let template: Vec<WireHeader> = (0..BATCH)
        .map(|i| {
            let mut hdr = WireHeader::initial(&layout);
            hdr.xcnt = (i % 200) as u8;
            hdr
        })
        .collect();

    group.bench_function("per_header", |b| {
        let mut batch = template.clone();
        b.iter(|| {
            let mut reported = 0u32;
            for hdr in batch.iter_mut() {
                if pipeline.process_header(hdr).reported() {
                    reported += 1;
                }
            }
            black_box(reported)
        })
    });
    group.bench_function("process_batch", |b| {
        let mut batch = template.clone();
        let mut verdicts = Vec::with_capacity(BATCH);
        b.iter(|| {
            verdicts.clear();
            pipeline.process_batch(&mut batch, &mut verdicts);
            black_box(verdicts.len())
        })
    });
    // The same batch as wire frames through the in-place path.
    let frame_template: Vec<Vec<u8>> = template
        .iter()
        .map(|hdr| {
            build_frame(
                &layout,
                &unroller_dataplane::EthernetHeader::for_hosts(1, 2),
                hdr,
                &[0u8; 46],
            )
        })
        .collect();
    group.bench_function("frame_batch_in_place", |b| {
        let mut frames = frame_template.clone();
        b.iter(|| {
            let mut reported = 0u32;
            for frame in frames.iter_mut() {
                if pipeline.process_frame_in_place(frame).unwrap().reported() {
                    reported += 1;
                }
            }
            black_box(reported)
        })
    });
    group.finish();
}

/// The full runtime — dispatcher, rings, workers, aggregator — over a
/// synthetic stream, across shard counts.
fn bench_engine_shards(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_throughput");
    const PACKETS: u64 = 20_000;
    group.throughput(Throughput::Elements(PACKETS));
    group.sample_size(10);
    let ids: Vec<u32> = (0..64).map(|i| 100 + i).collect();
    for shards in [1usize, 2, 4] {
        let engine = Engine::new(
            EngineConfig {
                shards,
                full_policy: FullPolicy::Block,
                ..EngineConfig::default()
            },
            &ids,
        )
        .unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(shards), &engine, |b, engine| {
            b.iter(|| {
                // Every 8th of 32 flows loops from packet 5000 on.
                let mut source = SyntheticSource::new(64, 32, PACKETS, 8, 5_000, 17);
                black_box(engine.run(&mut source).expect("fault-free run").processed())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batch_processing, bench_engine_shards);
criterion_main!(benches);
