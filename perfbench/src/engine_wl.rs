//! The three engine workloads: one fixed engine configuration (1 shard,
//! `FullPolicy::Block`, default batch and ring sizes, memoization on
//! with its default 1-in-64 cross-check), three kinds of traffic.
//!
//! * `steady_generated` — generated packets with an all-zero shim on
//!   stable WAN routes; a loop appears halfway through.
//! * `carried_replay` — the same flows as a pcap capture replayed
//!   through `PcapReplaySource`: every packet carries its frame, so the
//!   memo never applies and every packet walks.
//! * `churn_storm` — `ChurnSource` fails and heals links through the
//!   distance-vector control plane, publishing route generations under
//!   the running worker. Not listed in `BENCHMARK.json` (see
//!   [`churn_probe`]); it runs by hand.

use crate::common::{
    json_floats, median, process_cpu_ns, ratio, run_seed, Gates, Outcome, Sheet, Tally,
};
use crate::layers;
use crate::trace::{TracedSource, Tracer};
use crate::Scale;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use unroller_core::SwitchId;
use unroller_dataplane::{HeaderLayout, PcapReader, PcapWriter};
use unroller_engine::{
    CaptureSource, ChurnPlan, ChurnSource, Engine, EngineConfig, EnginePacket, EngineReport,
    EpochRouteTable, FlowKey, FullPolicy, Json, LoopEvent, MemoConfig, PathSpec, PcapReplaySource,
    ReplaySource, RouteSet, TrafficSource,
};
use unroller_sim::{NullDetector, SimConfig, Simulator};
use unroller_topology::ids::assign_sequential_ids;
use unroller_topology::{generators, Graph, NodeId};

/// The topology every engine workload runs on.
pub const TOPOLOGY: &str = "wan:256";

/// Control-plane events per million packets in `churn_storm`.
pub const CHURN_RATE: u64 = 1000;

/// Links `churn_storm` cycles through failure.
pub const CHURN_LINKS: usize = 4;

/// Which traffic an engine workload offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Generated, memoizable packets.
    Steady,
    /// Captured frames replayed from pcap.
    Carried,
    /// Generated packets under live route churn.
    Churn,
}

/// The fixed engine configuration shared by every engine workload.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        shards: 1,
        full_policy: FullPolicy::Block,
        memo: Some(MemoConfig::default()),
        ..EngineConfig::default()
    }
}

/// One generated flow: key, route before the loop, route after it.
type FlowSpec = (FlowKey, PathSpec, Option<PathSpec>);

/// Everything a workload builds before its first timed run.
pub struct Prepared {
    /// The traffic this workload offers.
    pub traffic: Traffic,
    graph: Graph,
    /// Switch IDs, indexed by node.
    pub ids: Vec<SwitchId>,
    /// The engine every run goes through.
    pub engine: Engine,
    seed: u64,
    /// Generated flows (steady and carried).
    flows: Vec<FlowSpec>,
    /// Packets per timed run.
    pub packets: u64,
    /// The capture `carried_replay` replays.
    pub capture: Vec<u8>,
    /// Post-loop routes by endpoint pair, for resolving the capture.
    resolve: std::collections::HashMap<(NodeId, NodeId), PathSpec>,
    flow_count: usize,
}

/// One run's traffic.
pub enum Stream {
    /// `steady_generated` (and the generated twin of the capture).
    Generated(ReplaySource),
    /// `carried_replay`.
    Replayed(PcapReplaySource),
    /// `churn_storm`.
    Churn(Box<ChurnSource>),
}

impl Stream {
    /// Ground truth: the flows whose routes loop (for churn, every flow
    /// the live oracle saw trapped so far).
    pub fn truth(&self) -> Vec<FlowKey> {
        match self {
            Stream::Generated(s) => s.looping_flow_keys(),
            Stream::Replayed(s) => s.looping_flow_keys(),
            Stream::Churn(s) => s.looping_flow_keys(),
        }
    }

    /// Route generations the control plane published.
    pub fn generations(&self) -> u64 {
        match self {
            Stream::Churn(s) => s.generations_published(),
            _ => 0,
        }
    }
}

impl TrafficSource for Stream {
    fn fill(&mut self, max: usize, out: &mut Vec<EnginePacket>) -> usize {
        match self {
            Stream::Generated(s) => s.fill(max, out),
            Stream::Replayed(s) => s.fill(max, out),
            Stream::Churn(s) => s.fill(max, out),
        }
    }

    fn routes(&self) -> Arc<RouteSet> {
        match self {
            Stream::Generated(s) => s.routes(),
            Stream::Replayed(s) => s.routes(),
            Stream::Churn(s) => s.routes(),
        }
    }

    fn route_table(&self) -> Option<Arc<EpochRouteTable>> {
        match self {
            Stream::Churn(s) => s.route_table(),
            _ => None,
        }
    }
}

/// Builds the workload: topology, simulation, route interning, the
/// capture written and read back (`carried_replay`), the churn source
/// (`churn_storm`) and the engine.
pub fn prepare(traffic: Traffic, seed: u64, scale: &Scale) -> Prepared {
    let graph = generators::from_spec(TOPOLOGY).expect("valid topology spec");
    let ids = assign_sequential_ids(graph.node_count(), 100);
    let engine = Engine::new(engine_config(), &ids).expect("valid engine configuration");
    let mut prep = Prepared {
        traffic,
        graph,
        ids,
        engine,
        seed,
        flows: Vec::new(),
        packets: match traffic {
            Traffic::Steady => scale.steady_packets,
            Traffic::Carried => scale.carried_packets,
            Traffic::Churn => scale.churn_packets,
        },
        capture: Vec::new(),
        resolve: Default::default(),
        flow_count: scale.flows,
    };
    match traffic {
        Traffic::Steady | Traffic::Carried => {
            prep.flows = generated_flows(&prep.graph, &prep.ids, scale, seed);
            prep.resolve = prep
                .flows
                .iter()
                .map(|(key, healthy, poisoned)| {
                    let (s, d) = key.synthetic_endpoints();
                    let route = poisoned.clone().unwrap_or_else(|| healthy.clone());
                    ((s as NodeId, d as NodeId), route)
                })
                .collect();
            if traffic == Traffic::Carried {
                prep.capture = capture(prep.generated(prep.packets), prep.layout());
                let replay = prep.replay();
                assert_eq!(replay.packet_count() as u64, prep.packets);
                assert_eq!(replay.skipped_frames(), 0);
            }
        }
        Traffic::Churn => {
            // Built here once so set-up time covers DV convergence and
            // the oracle mirror; every run rebuilds its own copy.
            drop(prep.churn(prep.packets));
        }
    }
    prep
}

/// The flows of the generated workloads: `flows - looping` random
/// endpoint pairs on stable routes, plus `looping` flows toward one
/// destination whose last two hops become a forwarding cycle. Looping
/// flows are spread evenly through the round-robin order.
fn generated_flows(graph: &Graph, ids: &[SwitchId], scale: &Scale, seed: u64) -> Vec<FlowSpec> {
    let n = graph.node_count();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x7065_7266);
    loop {
        let mut sim = Simulator::new(
            graph.clone(),
            ids.to_vec(),
            NullDetector,
            SimConfig::default(),
        );
        let dst: NodeId = rng.gen_range(0..n);
        let probe = sim.route(rng.gen_range(0..n), dst);
        if probe.len() < 4 || probe.last() != Some(&dst) {
            continue;
        }
        let cycle = vec![probe[probe.len() - 3], probe[probe.len() - 2]];
        let healthy: Vec<Vec<NodeId>> = (0..n).map(|s| sim.route(s, dst)).collect();
        sim.inject_cycle(&cycle, dst);
        let mut loopers: Vec<NodeId> = (0..n)
            .filter(|&s| s != dst && PathSpec::from_route(&sim.route(s, dst)).loops())
            .collect();
        if loopers.len() < scale.looping {
            continue;
        }
        // Seeded choice of which looping sources carry traffic.
        for i in 0..scale.looping {
            let j = rng.gen_range(i..loopers.len());
            loopers.swap(i, j);
        }
        let every = scale.flows / scale.looping;
        let mut next_looper = 0;
        return (0..scale.flows)
            .map(|f| {
                if f % every == 0 && next_looper < scale.looping {
                    let src = loopers[next_looper];
                    next_looper += 1;
                    let key = FlowKey::synthetic(src as u32, dst as u32, f as u32);
                    let poisoned = PathSpec::from_route(&sim.route(src, dst));
                    (key, PathSpec::from_route(&healthy[src]), Some(poisoned))
                } else {
                    let (src, to) = loop {
                        let (s, d) = (rng.gen_range(0..n), rng.gen_range(0..n));
                        if s != d && d != dst {
                            break (s, d);
                        }
                    };
                    let key = FlowKey::synthetic(src as u32, to as u32, f as u32);
                    (key, PathSpec::from_route(&sim.route(src, to)), None)
                }
            })
            .collect();
    }
}

/// Drains `source` through the capture tee and returns the pcap bytes
/// it wrote (the tee attaches each packet's initial frame, as a capture
/// taken at the source host would hold it).
pub fn capture<S: TrafficSource>(source: S, layout: HeaderLayout) -> Vec<u8> {
    let writer = Arc::new(Mutex::new(PcapWriter::default()));
    let mut tee = CaptureSource::new(source, layout, writer.clone());
    let mut burst = Vec::with_capacity(1024);
    while tee.fill(1024, &mut burst) > 0 {
        burst.clear();
    }
    assert_eq!(tee.capture_errors(), 0, "capture writer poisoned");
    drop(tee);
    Arc::try_unwrap(writer)
        .expect("the tee held the only other handle")
        .into_inner()
        .expect("capture writer poisoned")
        .finish()
}

impl Prepared {
    /// The shim layout of the engine's detector parameters.
    pub fn layout(&self) -> HeaderLayout {
        HeaderLayout::from_params(&self.engine.config().params)
    }

    /// A fresh generated stream of `packets` packets (loop at 1/2).
    pub fn generated(&self, packets: u64) -> Stream {
        Stream::Generated(ReplaySource::from_paths(
            self.flows.clone(),
            packets,
            Some(packets / 2),
        ))
    }

    /// A fresh replay of the capture, resolved against the routing
    /// state the capture ends in.
    pub fn replay(&self) -> PcapReplaySource {
        let reader = PcapReader::new(self.capture.clone()).expect("capture written by PcapWriter");
        PcapReplaySource::from_reader(reader, |s, d| self.resolve.get(&(s, d)).cloned())
            .expect("capture written by PcapWriter")
    }

    /// A fresh churn storm of `packets` packets.
    pub fn churn(&self, packets: u64) -> ChurnSource {
        let plan = ChurnPlan {
            rate: CHURN_RATE,
            seed: self.seed,
            links: CHURN_LINKS,
        };
        ChurnSource::new(self.graph.clone(), &plan, self.flow_count, packets)
    }

    /// A fresh stream of this workload's traffic, `packets` long.
    pub fn stream(&self, packets: u64) -> Stream {
        match self.traffic {
            Traffic::Steady => self.generated(packets),
            Traffic::Carried => {
                assert_eq!(packets, self.packets, "the capture has a fixed length");
                Stream::Replayed(self.replay())
            }
            Traffic::Churn => Stream::Churn(Box::new(self.churn(packets))),
        }
    }

    /// The workload's parameters, for provenance.
    pub fn params(&self) -> Json {
        let cfg = self.engine.config();
        let mut p = Json::object();
        p.set("topology", Json::Str(TOPOLOGY.to_string()));
        p.set("flows", Json::UInt(self.flow_count as u64));
        p.set("packets_per_run", Json::UInt(self.packets));
        p.set("shards", Json::UInt(cfg.shards as u64));
        p.set("batch_size", Json::UInt(cfg.batch_size as u64));
        p.set("ring_capacity", Json::UInt(cfg.ring_capacity as u64));
        p.set("full_policy", Json::Str("block".to_string()));
        p.set(
            "memo_sample_every",
            Json::UInt(cfg.memo.map_or(0, |m| m.sample_every)),
        );
        p.set("max_hops", Json::UInt(cfg.max_hops as u64));
        match self.traffic {
            Traffic::Steady | Traffic::Carried => {
                let looping = self.flows.iter().filter(|f| f.2.is_some()).count();
                p.set("looping_flows", Json::UInt(looping as u64));
                p.set("loop_at", Json::Str("packets/2".to_string()));
            }
            Traffic::Churn => {
                p.set("churn_rate_per_mpkt", Json::UInt(CHURN_RATE));
                p.set("churn_links", Json::UInt(CHURN_LINKS as u64));
            }
        }
        p
    }
}

/// Runs that always happen, however short `--seconds` is.
const MIN_RUNS: usize = 3;

/// What one engine run measured.
#[derive(Debug, Default)]
pub struct RunStats {
    /// Wall time of `Engine::run`, ns.
    pub wall_ns: u64,
    /// Process CPU time during `Engine::run`, ns.
    pub cpu_ns: u64,
    /// Packets processed by the workers.
    pub processed: u64,
    /// Switch hops walked or settled.
    pub hops: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Loop events raised.
    pub loop_events: u64,
    /// Memo hits.
    pub memo_hits: u64,
    /// Memo misses.
    pub memo_misses: u64,
    /// Memo hits re-walked by the cross-check.
    pub memo_sampled: u64,
    /// Ring stalls (dispatcher waited on a full ring).
    pub stalls: u64,
    /// Worker time processing batches, ns.
    pub proc_ns: u64,
    /// Worker time waiting on the ring, ns.
    pub wait_ns: u64,
    /// The engine's own wall time, ns.
    pub engine_wall_ns: u64,
    /// Publish → first detection: sum (ns) and count.
    pub latency_sum_ns: u64,
    /// Generations with a detection latency sample.
    pub latency_count: u64,
    /// Loop events the aggregator received.
    pub events_received: u64,
    /// Of those, duplicates of an already reported flow.
    pub duplicates: u64,
    /// First loop event per flow.
    pub unique_events: Vec<LoopEvent>,
    /// Route generations published.
    pub generations: u64,
    /// Rule deltas applied.
    pub rules: u64,
    /// Size of the ground-truth looping flow set.
    pub looping_flows: usize,
    /// Traced runs: time inside `fill`, ns.
    pub fill_ns: u64,
    /// Traced runs: durations of fills that published a generation.
    pub event_fills_ns: Vec<u64>,
}

impl RunStats {
    /// Packets processed per second of `Engine::run` wall time.
    pub fn pps(&self) -> f64 {
        ratio(self.processed as f64 * 1e9, self.wall_ns as f64)
    }

    /// Process CPU time per processed packet.
    pub fn cpu_ns_per_pkt(&self) -> f64 {
        ratio(self.cpu_ns as f64, self.processed as f64)
    }

    fn absorb(&mut self, report: &EngineReport) {
        self.processed = report.processed();
        self.engine_wall_ns = report.wall_ns;
        for s in &report.shard_snapshots {
            self.hops += s.hops;
            self.delivered += s.delivered;
            self.loop_events += s.loop_events;
            self.memo_hits += s.memo_hits;
            self.memo_misses += s.memo_misses;
            self.memo_sampled += s.memo_sampled_walks;
            self.proc_ns += s.proc_ns.sum;
            self.wait_ns += s.wait_ns.sum;
            self.latency_sum_ns += s.detect_latency_ns.sum;
            self.latency_count += s.detect_latency_ns.count;
        }
        self.stalls = report.ring_snapshots.iter().map(|r| r.stalls).sum();
        self.events_received = report.aggregator.events_received;
        self.duplicates = report.aggregator.duplicates_suppressed;
        self.unique_events = report.aggregator.events.clone();
    }
}

/// Applies the engine gates to one run: total accounting with nothing
/// dropped, shed or lost to a panic, no memo divergence, and a detected
/// flow set equal to the ground truth (`gate_fault` removes one looping
/// flow from the truth, which must make this gate fail).
fn check_run(
    label: &str,
    report: &EngineReport,
    mut truth: Vec<FlowKey>,
    require_loop: bool,
    gates: &mut Gates,
    tally: &mut Tally,
    gate_fault: bool,
) -> usize {
    truth.sort_by_key(|k| k.rss_hash());
    if gate_fault {
        truth.pop();
    }
    let truth: HashSet<FlowKey> = truth.into_iter().collect();
    let detected: HashSet<FlowKey> = report.aggregator.events.iter().map(|e| e.flow).collect();
    gates.check(report.accounted(), || {
        format!("{label}: accounting identity broken")
    });
    gates.check(
        report.dropped_full() == 0 && report.shed() == 0 && report.panic_lost() == 0,
        || {
            format!(
                "{label}: dropped_full={} shed={} panic_lost={}",
                report.dropped_full(),
                report.shed(),
                report.panic_lost()
            )
        },
    );
    gates.check(report.memo_divergence() == 0, || {
        format!("{label}: memo_divergence={}", report.memo_divergence())
    });
    // Loops are injected by construction in the generated and replayed
    // traffic; a churn storm may form none (checked over the whole
    // benchmark run instead).
    gates.check(!require_loop || !truth.is_empty(), || {
        format!("{label}: no looping flow in the workload")
    });
    gates.check(detected == truth, || {
        format!(
            "{label}: detected {} looping flows, truth has {} ({} missed, {} unexpected)",
            detected.len(),
            truth.len(),
            truth.difference(&detected).count(),
            detected.difference(&truth).count()
        )
    });
    tally.attempted += report.offered + truth.len() as u64;
    tally.failed += report.offered - report.processed().min(report.offered)
        + truth.difference(&detected).count() as u64;
    truth.len()
}

/// One engine run over a fresh stream; traced runs record a span per
/// `fill` under an `engine.run` span.
fn run_once(
    label: &str,
    prep: &Prepared,
    tracer: Option<&mut Tracer>,
    gates: &mut Gates,
    tally: &mut Tally,
    gate_fault: bool,
) -> RunStats {
    let mut stream = prep.stream(prep.packets);
    // A replay source hands its packets over as it runs, so its truth
    // is read up front; churn truth grows during the run.
    let truth_before = stream.truth();
    let mut stats = RunStats::default();
    let report = match tracer {
        None => {
            let cpu0 = process_cpu_ns();
            let t0 = Instant::now();
            let report = prep.engine.run(&mut stream);
            stats.wall_ns = t0.elapsed().as_nanos() as u64;
            stats.cpu_ns = process_cpu_ns() - cpu0;
            report
        }
        Some(tracer) => {
            let span = tracer.open("engine.run", None);
            let mut traced = TracedSource::new(&mut stream, tracer, span, Stream::generations);
            let cpu0 = process_cpu_ns();
            let t0 = Instant::now();
            let report = prep.engine.run(&mut traced);
            stats.wall_ns = t0.elapsed().as_nanos() as u64;
            stats.cpu_ns = process_cpu_ns() - cpu0;
            stats.fill_ns = traced.fill_ns;
            stats.event_fills_ns = std::mem::take(&mut traced.event_fills_ns);
            tracer.close(span);
            report
        }
    }
    .expect("the aggregator thread does not panic");
    stats.absorb(&report);
    if let Stream::Churn(churn) = &stream {
        stats.generations = churn.generations_published();
        stats.rules = churn.rules_applied();
        let oracle = churn.oracle_check();
        gates.check(oracle.is_ok(), || {
            format!("{label}: live oracle diverged from the control plane: {oracle:?}")
        });
    }
    let truth = match &stream {
        Stream::Churn(churn) => churn.looping_flow_keys(),
        _ => truth_before,
    };
    let require_loop = prep.traffic != Traffic::Churn;
    stats.looping_flows = check_run(
        label,
        &report,
        truth,
        require_loop,
        gates,
        tally,
        gate_fault,
    );
    stats
}

/// `carried_replay` and `steady_generated` must agree exactly on the
/// same packet stream: the generated stream once with frames attached
/// (the capture tee, so every packet walks in place) and once without
/// (memoized).
fn check_carried_equivalence(prep: &Prepared, gates: &mut Gates, tally: &mut Tally) {
    let writer = Arc::new(Mutex::new(PcapWriter::default()));
    let mut carried = CaptureSource::new(prep.generated(prep.packets), prep.layout(), writer);
    let mut generated = prep.generated(prep.packets);
    let truth = match &generated {
        Stream::Generated(s) => s.looping_flow_keys(),
        _ => unreachable!("generated() builds a generated stream"),
    };
    let a = prep.engine.run(&mut carried).expect("aggregator alive");
    let b = prep.engine.run(&mut generated).expect("aggregator alive");
    check_run(
        "equivalence/carried",
        &a,
        truth.clone(),
        true,
        gates,
        tally,
        false,
    );
    check_run(
        "equivalence/generated",
        &b,
        truth,
        true,
        gates,
        tally,
        false,
    );
    let (mut ra, mut rb) = (RunStats::default(), RunStats::default());
    ra.absorb(&a);
    rb.absorb(&b);
    gates.check(
        (ra.hops, ra.delivered, ra.loop_events) == (rb.hops, rb.delivered, rb.loop_events),
        || {
            format!(
                "carried vs generated on one stream: hops {} vs {}, delivered {} vs {}, loop_events {} vs {}",
                ra.hops, rb.hops, ra.delivered, rb.delivered, ra.loop_events, rb.loop_events
            )
        },
    );
}

/// Traced churn storms run by the `steady_generated` traced run.
const CHURN_PROBE_RUNS: u64 = 4;

/// `churn_storm` is not a listed workload: on the reference host its
/// control-plane-bound throughput spread too widely between runs for any
/// bound the benchmark may set. Its layers are measured instead in the
/// traced run of `steady_generated`, on storms over the same topology
/// through the same engine configuration.
fn churn_probe(
    seed: u64,
    scale: &Scale,
    tracer: &mut Tracer,
    gates: &mut Gates,
    tally: &mut Tally,
) -> Vec<RunStats> {
    (0..CHURN_PROBE_RUNS)
        .map(|i| {
            let input = run_seed(seed, u64::MAX - i);
            let prep = prepare(Traffic::Churn, input, scale);
            let label = format!("churn probe {i} (input seed {input})");
            run_once(&label, &prep, Some(tracer), gates, tally, false)
        })
        .collect()
}

/// The control-plane layers, from traced churn runs: event time is the
/// time of the fills during which a generation was published.
fn churn_layers(runs: &[RunStats], sheet: &mut Sheet) {
    let events_ms: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.event_fills_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    let med = |f: &dyn Fn(&RunStats) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    sheet.set("churn.event_ms.p50", median(&events_ms), "ms");
    sheet.set(
        "churn.event_ms.max",
        events_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    sheet.set(
        "churn.rules_per_event",
        med(&|r| ratio(r.rules as f64, r.generations as f64)),
        "count",
    );
    sheet.set(
        "churn.detect_latency_mean_us",
        med(&|r| ratio(r.latency_sum_ns as f64, r.latency_count as f64) / 1e3),
        "us",
    );
}

/// Runs one engine workload for `seconds` and reports its metrics:
/// end-to-end ones untraced, per-layer ones (`trace`) from traced runs
/// alternated with untraced ones plus each layer measured alone.
pub fn run(
    traffic: Traffic,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: &Scale,
    gate_fault: bool,
) -> Outcome {
    let mut gates = Gates::default();
    let mut tally = Tally::default();
    // Every run draws a fresh input from (seed, run index) and sets it
    // up anew, so the medians average over inputs and the set-up samples
    // spread over the whole measurement window like the runs' own.
    let mut setup_s = Vec::new();
    let mut input_seeds = Vec::new();
    let mut timed_prepare = |run: u64| {
        let input = run_seed(seed, run);
        let t0 = Instant::now();
        let p = prepare(traffic, input, scale);
        setup_s.push(t0.elapsed().as_secs_f64());
        input_seeds.push(Json::UInt(input));
        (format!("run {run} (input seed {input})"), p)
    };
    let (label, mut prep) = timed_prepare(0);
    // Warm-up: lazy allocations and caches, not measured.
    run_once(&label, &prep, None, &mut gates, &mut tally, gate_fault);

    let mut tracer = trace.then(Tracer::default);
    let mut untraced: Vec<RunStats> = Vec::new();
    let mut traced: Vec<RunStats> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while untraced.len() < MIN_RUNS || Instant::now() < deadline {
        let (label, next) = timed_prepare(untraced.len() as u64 + 1);
        prep = next;
        let plain = run_once(&label, &prep, None, &mut gates, &mut tally, gate_fault);
        if let Some(t) = tracer.as_mut() {
            let run = run_once(&label, &prep, Some(t), &mut gates, &mut tally, gate_fault);
            // One input replayed twice walks identically, traced or not
            // (churn excepted: where generation swaps fall between
            // packets depends on thread timing).
            gates.check(
                traffic == Traffic::Churn
                    || (run.hops, run.delivered, run.loop_events)
                        == (plain.hops, plain.delivered, plain.loop_events),
                || format!("{label}: traced and untraced runs of one input disagree"),
            );
            traced.push(run);
        }
        untraced.push(plain);
    }
    if traffic == Traffic::Carried {
        check_carried_equivalence(&prep, &mut gates, &mut tally);
    }
    gates.check(untraced.iter().any(|r| r.looping_flows > 0), || {
        "no run formed a routing loop: detection went unchecked".to_string()
    });

    let pps: Vec<f64> = untraced.iter().map(RunStats::pps).collect();
    let cpu: Vec<f64> = untraced.iter().map(RunStats::cpu_ns_per_pkt).collect();
    let mut sheet = Sheet::default();
    let mut details = Json::object();
    details.set("input_seeds", Json::Array(input_seeds));
    details.set("setup_s", json_floats(&setup_s));
    details.set("throughput_pps", json_floats(&pps));
    details.set("cpu_ns_per_pkt", json_floats(&cpu));
    let med = |f: &dyn Fn(&RunStats) -> f64| median(&untraced.iter().map(f).collect::<Vec<_>>());
    if let Some(tracer) = tracer.as_mut() {
        let traced_pps: Vec<f64> = traced.iter().map(RunStats::pps).collect();
        details.set("traced_throughput_pps", json_floats(&traced_pps));
        let e2e_ns = ratio(1e9, median(&pps));
        let fill_ns = median(
            &traced
                .iter()
                .map(|r| ratio(r.fill_ns as f64, r.processed as f64))
                .collect::<Vec<_>>(),
        );
        sheet.set("source.fill_ns_per_pkt", fill_ns, "ns");
        match traffic {
            Traffic::Churn => churn_layers(&traced, &mut sheet),
            Traffic::Steady => {
                let probe = churn_probe(seed, scale, tracer, &mut gates, &mut tally);
                churn_layers(&probe, &mut sheet);
            }
            Traffic::Carried => {}
        }
        sheet.set(
            "ring.stalls_per_kpkt",
            med(&|r| ratio(r.stalls as f64 * 1e3, r.processed as f64)),
            "count",
        );
        sheet.set(
            "worker.busy_share",
            med(&|r| ratio(r.proc_ns as f64, r.engine_wall_ns as f64)),
            "ratio",
        );
        sheet.set(
            "worker.wait_share",
            med(&|r| ratio(r.wait_ns as f64, r.engine_wall_ns as f64)),
            "ratio",
        );
        sheet.set(
            "memo.hit_ratio",
            med(&|r| ratio(r.memo_hits as f64, (r.memo_hits + r.memo_misses) as f64)),
            "ratio",
        );
        sheet.set(
            "pipeline.walked_share",
            med(&|r| 1.0 - ratio((r.memo_hits - r.memo_sampled) as f64, r.processed as f64)),
            "ratio",
        );
        sheet.set(
            "pipeline.hops_per_pkt",
            med(&|r| ratio(r.hops as f64, r.processed as f64)),
            "count",
        );
        sheet.set(
            "aggregate.dup_ratio",
            med(&|r| ratio(r.duplicates as f64, r.events_received as f64)),
            "ratio",
        );
        sheet.set(
            "trace.overhead_share",
            1.0 - ratio(median(&traced_pps), median(&pps)),
            "ratio",
        );
        let last = untraced.last().expect("at least MIN_RUNS runs");
        let costs = layers::measure(&prep, &last.unique_events, &mut sheet, tracer, scale);
        let dispatch = fill_ns + costs.shard_ns + costs.push_ns;
        sheet.set("ladder.dispatch_ns_per_pkt", dispatch, "ns");
        sheet.set("ladder.worker_ns_per_pkt", costs.worker_ns, "ns");
        sheet.set(
            "ladder.residual_share",
            1.0 - ratio(dispatch.max(costs.worker_ns), e2e_ns),
            "ratio",
        );
    } else {
        sheet.set("throughput_pps", median(&pps), "1/s");
        sheet.set("cpu_ns_per_pkt", median(&cpu), "ns");
        sheet.set("setup_s", median(&setup_s), "s");
    }
    Outcome {
        sheet,
        gates,
        tally,
        params: prep.params(),
        busy_threads: 2,
        details,
        tracer,
    }
}
