//! Each engine layer measured alone, from outside: the benchmark times
//! calls into the layer's public functions on the workload's own
//! packets, routes and loop events, under one span per layer.

use crate::common::{median, ratio, Sheet};
use crate::engine_wl::{capture, Prepared, Traffic};
use crate::trace::Tracer;
use crate::Scale;
use std::hint::black_box;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};
use unroller_control::Controller;
use unroller_dataplane::parser::build_frame;
use unroller_dataplane::{
    EthernetHeader, PcapReader, UnrollerPipeline, WireHeader, ETH_HEADER_LEN,
};
use unroller_engine::aggregate::aggregate_with;
use unroller_engine::faults::EventFaults;
use unroller_engine::ring::ring;
use unroller_engine::worker::ShardWorker;
use unroller_engine::{
    EnginePacket, EpochRouteTable, FullPolicy, LoopEvent, PathSpec, RouteSet, ShardMetrics,
    TrafficSource,
};

/// Timed passes per layer measurement (the median is reported).
const PASSES: usize = 5;

/// Minimum measured time per pass for sub-microsecond calls.
const MIN_PASS: Duration = Duration::from_millis(20);

/// The per-packet costs the ladders are built from, ns.
pub struct LayerCosts {
    /// `FlowKey::shard` per packet.
    pub shard_ns: f64,
    /// `RingProducer::push_batch` per packet.
    pub push_ns: f64,
    /// `ShardWorker::run` per packet (its ring pulls included).
    pub worker_ns: f64,
}

/// Hands the capture tee prepared packets.
struct IterSource<I> {
    packets: I,
    routes: Arc<RouteSet>,
}

impl<I: Iterator<Item = EnginePacket>> TrafficSource for IterSource<I> {
    fn fill(&mut self, max: usize, out: &mut Vec<EnginePacket>) -> usize {
        let before = out.len();
        out.extend(self.packets.by_ref().take(max));
        out.len() - before
    }

    fn routes(&self) -> Arc<RouteSet> {
        self.routes.clone()
    }
}

/// Measures every engine layer on this workload's data and records it
/// in `sheet`. `unique_events` are the first loop events per flow of
/// one engine run.
pub fn measure(
    prep: &Prepared,
    unique_events: &[LoopEvent],
    sheet: &mut Sheet,
    tracer: &mut Tracer,
    scale: &Scale,
) -> LayerCosts {
    let layers = tracer.open("layers", None);
    let span = tracer.open("layer.sample", Some(layers));
    let (sample, routes) = sample(prep, scale);
    tracer.close(span);

    let span = tracer.open("layer.flow", Some(layers));
    let shard_ns = shard_ns_per_pkt(prep, &sample);
    tracer.close(span);

    let span = tracer.open("layer.ring", Some(layers));
    let (push_ns, recv_ns) = ring_ns_per_pkt(prep, &sample);
    tracer.close(span);

    let span = tracer.open("layer.worker", Some(layers));
    let (worker_ns, raw_events) = worker_ns_per_pkt(prep, &sample, &routes);
    tracer.close(span);

    let span = tracer.open("layer.pipeline", Some(layers));
    let hop_ns = pipeline_ns_per_hop(prep, &routes);
    tracer.close(span);

    let span = tracer.open("layer.pcap", Some(layers));
    let read_ns = pcap_read_ns_per_frame(prep, &sample, &routes);
    tracer.close(span);

    let span = tracer.open("layer.route", Some(layers));
    let compile_us = route_compile_us(&routes);
    tracer.close(span);

    let span = tracer.open("layer.epoch", Some(layers));
    let (publish_us, refresh_ns) = epoch_us_ns(&routes);
    tracer.close(span);

    let span = tracer.open("layer.aggregate", Some(layers));
    let aggregate_ns = aggregate_ns_per_event(&raw_events);
    tracer.close(span);

    let span = tracer.open("layer.control", Some(layers));
    let ingest_us = control_ingest_us(prep, unique_events);
    tracer.close(span);
    tracer.close(layers);

    sheet.set("flow.shard_ns_per_pkt", shard_ns, "ns");
    sheet.set("ring.push_batch_ns_per_pkt", push_ns, "ns");
    sheet.set("ring.recv_batch_ns_per_pkt", recv_ns, "ns");
    sheet.set("worker.ns_per_pkt", worker_ns, "ns");
    sheet.set("pipeline.ns_per_hop", hop_ns, "ns");
    sheet.set("pcap.read_ns_per_frame", read_ns, "ns");
    sheet.set("route.compile_us", compile_us, "us");
    sheet.set("epoch.publish_us", publish_us, "us");
    sheet.set("epoch.refresh_ns", refresh_ns, "ns");
    sheet.set("aggregate.ns_per_event", aggregate_ns, "ns");
    sheet.set("control.ingest_us", ingest_us, "us");
    LayerCosts {
        shard_ns,
        push_ns,
        worker_ns,
    }
}

/// The workload's packets (all of the capture, or a stream of the
/// sample length) and the routes they resolve against when it ends.
fn sample(prep: &Prepared, scale: &Scale) -> (Vec<EnginePacket>, Arc<RouteSet>) {
    let len = match prep.traffic {
        Traffic::Steady => scale.sample,
        Traffic::Carried => prep.packets,
        Traffic::Churn => scale.churn_sample,
    };
    let mut stream = prep.stream(len);
    let mut packets = Vec::with_capacity(len as usize);
    while stream.fill(1024, &mut packets) > 0 {}
    let routes = stream.routes();
    (packets, routes)
}

/// Times `f` over `PASSES` passes, each repeated until it lasts at
/// least [`MIN_PASS`]; returns the median ns per unit, `f` returning
/// the units it processed.
fn per_unit_ns(mut f: impl FnMut() -> u64) -> f64 {
    let mut passes = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let t0 = Instant::now();
        let mut units = 0u64;
        while units == 0 || t0.elapsed() < MIN_PASS {
            let done = f();
            if done == 0 {
                return 0.0;
            }
            units += done;
        }
        passes.push(t0.elapsed().as_nanos() as f64 / units as f64);
    }
    median(&passes)
}

/// `FlowKey::shard` at the engine's shard count, per packet.
fn shard_ns_per_pkt(prep: &Prepared, sample: &[EnginePacket]) -> f64 {
    let shards = prep.engine.config().shards;
    per_unit_ns(|| {
        let mut acc = 0usize;
        for p in sample {
            acc = acc.wrapping_add(black_box(&p.flow).shard(black_box(shards)));
        }
        black_box(acc);
        sample.len() as u64
    })
}

/// `push_batch` and `recv_batch` per packet, at the engine's batch size
/// and ring capacity, on one thread: each round fills the ring with
/// whole batches, then drains it.
fn ring_ns_per_pkt(prep: &Prepared, sample: &[EnginePacket]) -> (f64, f64) {
    let cfg = prep.engine.config();
    let batch = cfg.batch_size;
    let batches_per_round = (cfg.ring_capacity / batch).max(1);
    let mut push = Vec::with_capacity(PASSES);
    let mut recv = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let (producer, consumer, _) = ring::<EnginePacket>(cfg.ring_capacity, FullPolicy::Block);
        let mut input = sample.iter().cloned();
        let mut out: Vec<EnginePacket> = Vec::with_capacity(batch * batches_per_round);
        let mut done: Vec<EnginePacket> = Vec::with_capacity(sample.len());
        let (mut push_ns, mut recv_ns, mut moved) = (0u128, 0u128, 0usize);
        loop {
            let mut stages: Vec<Vec<EnginePacket>> = (0..batches_per_round)
                .map(|_| input.by_ref().take(batch).collect::<Vec<_>>())
                .filter(|s| !s.is_empty())
                .collect();
            let round: usize = stages.iter().map(Vec::len).sum();
            if round == 0 {
                break;
            }
            let t0 = Instant::now();
            for stage in &mut stages {
                producer.push_batch(stage);
            }
            let t1 = Instant::now();
            while out.len() < round {
                consumer.recv_batch(&mut out, batch);
            }
            let t2 = Instant::now();
            push_ns += (t1 - t0).as_nanos();
            recv_ns += (t2 - t1).as_nanos();
            moved += round;
            done.append(&mut out);
        }
        push.push(push_ns as f64 / moved.max(1) as f64);
        recv.push(recv_ns as f64 / moved.max(1) as f64);
    }
    (median(&push), median(&recv))
}

/// The pipelines the engine provisions, one per switch.
fn pipelines(prep: &Prepared) -> Vec<UnrollerPipeline> {
    let params = prep.engine.config().params;
    prep.ids
        .iter()
        .map(|&id| UnrollerPipeline::new(id, params).expect("valid detector parameters"))
        .collect()
}

/// `ShardWorker::run` alone, draining a pre-filled, closed ring of the
/// workload's packets; also returns every loop event it raised.
fn worker_ns_per_pkt(
    prep: &Prepared,
    sample: &[EnginePacket],
    routes: &Arc<RouteSet>,
) -> (f64, Vec<LoopEvent>) {
    let cfg = prep.engine.config();
    let template = Arc::new(pipelines(prep));
    let ids: Arc<[u32]> = prep.ids.clone().into();
    let mut passes = Vec::with_capacity(PASSES);
    let mut events = Vec::new();
    for _ in 0..PASSES {
        let (producer, consumer, _) = ring::<EnginePacket>(sample.len(), FullPolicy::Block);
        let mut all = sample.to_vec();
        producer.push_batch(&mut all);
        drop(producer);
        let (tx, rx) = std::sync::mpsc::channel();
        let table = Arc::new(EpochRouteTable::new(routes.clone()));
        let worker = ShardWorker {
            shard: 0,
            pipelines: template.clone(),
            ids: ids.clone(),
            routes: table.reader(),
            layout: prep.layout(),
            max_hops: cfg.max_hops,
            batch_size: cfg.batch_size,
            metrics: Arc::new(ShardMetrics::default()),
            events: tx,
            consumer,
            faults: None,
            event_faults: EventFaults::inactive(),
            kick: Arc::new(AtomicBool::new(false)),
            pin_core: None,
            memo: cfg.memo,
            stepped: cfg.stepped,
        };
        let t0 = Instant::now();
        worker.run();
        passes.push(ratio(t0.elapsed().as_nanos() as f64, sample.len() as f64));
        events = rx.try_iter().collect();
    }
    (median(&passes), events)
}

/// `process_frame_in_place` hop by hop along every route of the
/// workload, from an all-zero shim, as the worker walks them.
fn pipeline_ns_per_hop(prep: &Prepared, routes: &RouteSet) -> f64 {
    let pipes = pipelines(prep);
    let layout = prep.layout();
    let max_hops = prep.engine.config().max_hops;
    let mut frame = build_frame(
        &layout,
        &EthernetHeader::for_hosts(0, 1),
        &WireHeader::initial(&layout),
        &[],
    );
    frame.resize(frame.len().max(64), 0);
    let shim = ETH_HEADER_LEN..ETH_HEADER_LEN + layout.total_bytes();
    per_unit_ns(|| {
        let mut hops = 0u64;
        for route in routes.iter() {
            frame[shim.clone()].fill(0);
            let mut hop = 0u32;
            while let Some(node) = route.hop(hop as usize) {
                hop += 1;
                match pipes[node].process_frame_in_place(black_box(&mut frame)) {
                    Ok(v) if !v.reported() && hop < max_hops => {}
                    _ => break,
                }
            }
            hops += hop as u64;
        }
        hops
    })
}

/// One `PcapReader` pass over a capture of the workload's packets (the
/// workload's own capture for `carried_replay`).
fn pcap_read_ns_per_frame(prep: &Prepared, sample: &[EnginePacket], routes: &Arc<RouteSet>) -> f64 {
    let bytes = if prep.traffic == Traffic::Carried {
        prep.capture.clone()
    } else {
        let source = IterSource {
            packets: sample.iter().cloned(),
            routes: routes.clone(),
        };
        capture(source, prep.layout())
    };
    let mut passes = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let reader = PcapReader::new(bytes.clone()).expect("capture written by PcapWriter");
        let t0 = Instant::now();
        let mut frames = 0u64;
        for record in reader {
            black_box(record.expect("capture written by PcapWriter"));
            frames += 1;
        }
        passes.push(ratio(t0.elapsed().as_nanos() as f64, frames as f64));
    }
    median(&passes)
}

/// `RouteSet::from_specs` over the workload's routes.
fn route_compile_us(routes: &RouteSet) -> f64 {
    let specs: Vec<PathSpec> = routes
        .iter()
        .map(|r| PathSpec {
            pre: Arc::from(&r.pre[..]),
            cycle: Arc::from(&r.cycle[..]),
        })
        .collect();
    per_unit_ns(|| {
        black_box(RouteSet::from_specs(specs.iter()));
        1
    }) / 1e3
}

/// `EpochRouteTable::publish` of the workload's route set, and the
/// `RouteReader::refresh` that adopts it.
fn epoch_us_ns(routes: &Arc<RouteSet>) -> (f64, f64) {
    let table = Arc::new(EpochRouteTable::new(routes.clone()));
    let mut reader = table.reader();
    let mut publish = Vec::with_capacity(200);
    let mut refresh = Vec::with_capacity(200);
    for _ in 0..200 {
        let next = routes.clone();
        let t0 = Instant::now();
        table.publish(next);
        let t1 = Instant::now();
        black_box(reader.refresh());
        let t2 = Instant::now();
        publish.push((t1 - t0).as_nanos() as f64 / 1e3);
        refresh.push((t2 - t1).as_nanos() as f64);
    }
    (median(&publish), median(&refresh))
}

/// `aggregate_with` over every loop event one worker pass raised,
/// replayed through a channel.
fn aggregate_ns_per_event(events: &[LoopEvent]) -> f64 {
    if events.is_empty() {
        return 0.0;
    }
    let mut passes = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let (tx, rx) = std::sync::mpsc::channel();
        for e in events {
            tx.send(e.clone()).expect("receiver alive");
        }
        drop(tx);
        let t0 = Instant::now();
        black_box(aggregate_with(rx, |_| {}));
        passes.push(t0.elapsed().as_nanos() as f64 / events.len() as f64);
    }
    median(&passes)
}

/// `Controller::ingest` of each unique loop report, into a fresh
/// controller per pass (its construction untimed).
fn control_ingest_us(prep: &Prepared, unique: &[LoopEvent]) -> f64 {
    if unique.is_empty() {
        return 0.0;
    }
    let mut passes = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let (mut spent, mut ingested) = (Duration::ZERO, 0u64);
        while spent < MIN_PASS {
            let mut controller = Controller::new(&prep.ids);
            let t0 = Instant::now();
            for e in unique {
                black_box(controller.ingest(&e.members));
            }
            spent += t0.elapsed();
            ingested += unique.len() as u64;
        }
        passes.push(spent.as_nanos() as f64 / ingested as f64 / 1e3);
    }
    median(&passes)
}
