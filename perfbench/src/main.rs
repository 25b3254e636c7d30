//! The repository benchmark: four traffic workloads through the engine
//! and the software detector, each measured end to end (untraced) or
//! layer by layer (traced), with every correctness gate checked on every
//! run.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--tiny] [--gate-fault] [--out <dir>]
//! ```
//!
//! Run it from the repository root (see `perfbench/README.md`). The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. A failed gate prints its seed to
//! standard error and exits with code 1.

mod common;
mod engine_wl;
mod layers;
mod trace;
mod trials;

use common::{peak_rss_mib, provenance, steal_s, Outcome};
use engine_wl::Traffic;
use std::path::PathBuf;
use unroller_engine::Json;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: &[&str] = &[
    "steady_generated",
    "carried_replay",
    "churn_storm",
    "paper_trials",
];

/// End-to-end metrics (untraced runs), with units.
const END_TO_END: &[(&str, &str)] = &[
    ("throughput_pps", "1/s"),
    ("cpu_ns_per_pkt", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (traced runs), with units. A workload that does
/// not exercise a layer reports 0 for it and names it under
/// `not_applicable` in its details file.
const PER_LAYER: &[(&str, &str)] = &[
    ("source.fill_ns_per_pkt", "ns"),
    ("churn.event_ms.p50", "ms"),
    ("churn.event_ms.max", "ms"),
    ("churn.rules_per_event", "count"),
    ("churn.detect_latency_mean_us", "us"),
    ("route.compile_us", "us"),
    ("epoch.publish_us", "us"),
    ("epoch.refresh_ns", "ns"),
    ("flow.shard_ns_per_pkt", "ns"),
    ("ring.push_batch_ns_per_pkt", "ns"),
    ("ring.recv_batch_ns_per_pkt", "ns"),
    ("ring.stalls_per_kpkt", "count"),
    ("worker.ns_per_pkt", "ns"),
    ("worker.busy_share", "ratio"),
    ("worker.wait_share", "ratio"),
    ("memo.hit_ratio", "ratio"),
    ("pipeline.walked_share", "ratio"),
    ("pipeline.ns_per_hop", "ns"),
    ("pipeline.hops_per_pkt", "count"),
    ("pcap.read_ns_per_frame", "ns"),
    ("aggregate.ns_per_event", "ns"),
    ("aggregate.dup_ratio", "ratio"),
    ("control.ingest_us", "us"),
    ("core.ns_per_hop", "ns"),
    ("core.hops_per_trial", "count"),
    ("ladder.dispatch_ns_per_pkt", "ns"),
    ("ladder.worker_ns_per_pkt", "ns"),
    ("ladder.residual_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Input sizes. `full` is what the benchmark measures; `tiny` only
/// exercises every path (the self-test).
pub struct Scale {
    /// Concurrent flows of the engine workloads.
    pub flows: usize,
    /// Of those, flows routed into the injected loop.
    pub looping: usize,
    /// Packets per `steady_generated` run.
    pub steady_packets: u64,
    /// Packets in the `carried_replay` capture.
    pub carried_packets: u64,
    /// Packets per `churn_storm` run.
    pub churn_packets: u64,
    /// Packets the steady layers are measured on.
    pub sample: u64,
    /// Packets the churn layers are measured on.
    pub churn_sample: u64,
    /// Default-point trials per `paper_trials` run.
    pub trials: u64,
    /// Walks the `core` layer is timed on.
    pub core_walks: usize,
}

impl Scale {
    fn full() -> Scale {
        Scale {
            flows: 256,
            looping: 2,
            steady_packets: 2_000_000,
            carried_packets: 400_000,
            churn_packets: 200_000,
            sample: 262_144,
            churn_sample: 32_768,
            trials: 400_000,
            core_walks: 20_000,
        }
    }

    fn tiny() -> Scale {
        Scale {
            flows: 64,
            looping: 2,
            steady_packets: 20_000,
            carried_packets: 8_000,
            churn_packets: 100_000,
            sample: 4_096,
            churn_sample: 4_096,
            trials: 8_192,
            core_walks: 500,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    gate_fault: bool,
    out: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> \
         --trace <0|1> [--tiny] [--gate-fault] [--out <dir>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut gate_fault = false;
    let mut out = PathBuf::from("perfbench/out");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse::<u64>().ok(),
            "--seconds" => seconds = value().parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value().as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--tiny" => tiny = true,
            "--gate-fault" => gate_fault = true,
            "--out" => out = PathBuf::from(value()),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload `{workload}`"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed needs a whole number")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        tiny,
        gate_fault,
        out,
    }
}

fn main() {
    let args = parse_args();
    let scale = if args.tiny {
        Scale::tiny()
    } else {
        Scale::full()
    };
    let traffic = match args.workload.as_str() {
        "steady_generated" => Some(Traffic::Steady),
        "carried_replay" => Some(Traffic::Carried),
        "churn_storm" => Some(Traffic::Churn),
        _ => None,
    };
    let (steal0, t0) = (steal_s(), std::time::Instant::now());
    let mut outcome: Outcome = match traffic {
        Some(t) => engine_wl::run(
            t,
            args.seed,
            args.seconds,
            args.trace,
            &scale,
            args.gate_fault,
        ),
        None => trials::run(args.seed, args.seconds, args.trace, &scale, args.gate_fault),
    };
    // Share of the machine's CPU time taken by other guests while this
    // run measured: the noise its figures carry, not a metric.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let steal_share = (steal_s() - steal0) / (t0.elapsed().as_secs_f64() * nproc as f64);
    if !args.trace {
        outcome.sheet.set("peak_rss_mib", peak_rss_mib(), "MiB");
    }

    // Every metric of the run's kind is printed; layers this workload
    // does not exercise read 0 and are listed as not applicable.
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut not_applicable = Vec::new();
    for &(name, unit) in wanted {
        if outcome.sheet.get(name).is_none() {
            outcome.sheet.set(name, 0.0, unit);
            not_applicable.push(Json::Str(name.to_string()));
        }
    }
    let mut metrics = Json::object();
    for &(name, unit) in wanted {
        let value = outcome.sheet.get(name).expect("filled above");
        assert_eq!(outcome.sheet.unit(name), Some(unit), "unit of {name}");
        println!("{name} = {value} {unit}");
        let mut m = Json::object();
        m.set("value", Json::Float(value));
        m.set("unit", Json::Str(unit.to_string()));
        metrics.set(name, m);
    }

    let correct = outcome.gates.passed();
    let mut result = Json::object();
    result.set("correct", Json::Bool(correct));
    result.set("attempted", Json::UInt(outcome.tally.attempted.max(1)));
    result.set("failed", Json::UInt(outcome.tally.failed));
    result.set("metrics", metrics);

    let mut record = Json::object();
    record.set(
        "provenance",
        provenance(
            &args.workload,
            args.seed,
            outcome.busy_threads,
            outcome.params,
        ),
    );
    record.set("result", result.clone());
    record.set("host_steal_share", Json::Float(steal_share));
    let mut gates = Json::object();
    gates.set("checked", Json::UInt(outcome.gates.checked));
    gates.set(
        "failures",
        Json::Array(
            outcome
                .gates
                .failures
                .iter()
                .cloned()
                .map(Json::Str)
                .collect(),
        ),
    );
    record.set("gates", gates);
    record.set("not_applicable", Json::Array(not_applicable));
    record.set("runs", outcome.details);
    if let Some(t) = &outcome.tracer {
        let mut spans = Json::object();
        for (name, st) in t.stats() {
            let mut s = Json::object();
            s.set("count", Json::UInt(st.count));
            s.set("total_ns", Json::UInt(st.total_ns));
            s.set("self_ns", Json::UInt(st.self_ns()));
            spans.set(name, s);
        }
        record.set("span_self_time", spans);
    }
    write_outputs(&args, &record, outcome.tracer.as_ref());

    for failure in &outcome.gates.failures {
        eprintln!(
            "perfbench: GATE FAILED ({} seed {}): {failure}",
            args.workload, args.seed
        );
    }
    println!("{}", result.render());
    if !correct {
        std::process::exit(1);
    }
}

/// Writes the run record (and a traced run's spans) under `--out`.
fn write_outputs(args: &Args, record: &Json, tracer: Option<&trace::Tracer>) {
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| {
            std::fs::write(
                args.out.join(format!("{stem}.json")),
                record.render_pretty(),
            )
        })
        .and_then(|()| match tracer {
            Some(t) => t.write(&args.out.join(format!("{stem}.spans.jsonl"))),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!(
            "perfbench: cannot write results under {}: {e}",
            args.out.display()
        );
    }
}
