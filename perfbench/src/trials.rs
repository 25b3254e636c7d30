//! `paper_trials`: the paper's Monte-Carlo detection trials through the
//! software detector (`unroller-core`), via
//! `experiments::sweeps::detection_stats`. Each trial is one packet's
//! walk of `B` pre-loop hops into an `L`-switch loop with fresh random
//! switch IDs; a run measures the paper's default point and one hashed
//! point.

use crate::common::{
    json_floats, median, process_cpu_ns, ratio, run_seed, Gates, Outcome, Sheet, Tally,
};
use crate::trace::Tracer;
use crate::Scale;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};
use unroller_core::bounds::worst_case_bound;
use unroller_core::walk::run_detector_with;
use unroller_core::{InPacketDetector, Unroller, UnrollerParams, Walk};
use unroller_engine::Json;
use unroller_experiments::runner::TrialAccumulator;
use unroller_experiments::sweeps::{detection_stats, SweepConfig};

/// Pre-loop hops `B` (the paper's default).
const B_HOPS: usize = 5;
/// Loop length `L` (the paper's default).
const L_HOPS: usize = 20;
/// Hop cap per trial.
const MAX_HOPS: u64 = 1_000_000;

/// The hashed point: 7-bit identifiers reported on the 4th match.
fn hashed_params() -> UnrollerParams {
    UnrollerParams {
        z: 7,
        th: 4,
        ..UnrollerParams::default()
    }
}

/// Inputs built before the first timed run.
struct Prepared {
    cfg: SweepConfig,
    hashed_runs: u64,
    /// Walks the `core` layer is timed on.
    walks: Vec<Walk>,
}

fn prepare(seed: u64, scale: &Scale) -> Prepared {
    for params in [UnrollerParams::default(), hashed_params()] {
        Unroller::from_params(params).expect("valid detector parameters");
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x636f_7265);
    let walks = (0..scale.core_walks)
        .map(|_| Walk::random(B_HOPS, L_HOPS, &mut rng))
        .collect();
    Prepared {
        cfg: SweepConfig {
            runs: scale.trials,
            seed,
            threads: threads(),
            max_hops: MAX_HOPS,
        },
        hashed_runs: scale.trials / 4,
        walks,
    }
}

/// Worker threads: one per available CPU.
fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One timed run: both points.
struct RunStats {
    wall_ns: u64,
    cpu_ns: u64,
    trials: u64,
    default: TrialAccumulator,
}

fn run_once(
    prep: &Prepared,
    tracer: Option<&mut Tracer>,
    gates: &mut Gates,
    tally: &mut Tally,
    gate_fault: bool,
) -> RunStats {
    let hashed_cfg = SweepConfig {
        runs: prep.hashed_runs,
        ..prep.cfg
    };
    let cpu0 = process_cpu_ns();
    let t0 = Instant::now();
    let (default, hashed) = match tracer {
        None => (
            detection_stats(UnrollerParams::default(), B_HOPS, L_HOPS, &prep.cfg),
            detection_stats(hashed_params(), B_HOPS, L_HOPS, &hashed_cfg),
        ),
        Some(t) => {
            let run = t.open("trials.run", None);
            let span = t.open("core.detection_stats", Some(run));
            let default = detection_stats(UnrollerParams::default(), B_HOPS, L_HOPS, &prep.cfg);
            t.close(span);
            let span = t.open("core.detection_stats", Some(run));
            let hashed = detection_stats(hashed_params(), B_HOPS, L_HOPS, &hashed_cfg);
            t.close(span);
            t.close(run);
            (default, hashed)
        }
    };
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let cpu_ns = process_cpu_ns() - cpu0;

    let seed = prep.cfg.seed;
    let p = UnrollerParams::default();
    let x = (B_HOPS + L_HOPS) as f64;
    let bound = worst_case_bound(p.b, B_HOPS as u64, L_HOPS as u64) / x;
    let expected = default.runs + u64::from(gate_fault);
    gates.check(default.false_positives == 0, || {
        format!(
            "trials (input seed {seed}): {} false positives at z = 32",
            default.false_positives
        )
    });
    gates.check(default.detected == expected, || {
        format!(
            "trials (input seed {seed}): {} of {expected} trials detected at z = 32",
            default.detected
        )
    });
    gates.check(default.avg_ratio() <= bound, || {
        format!(
            "trials (input seed {seed}): mean detection ratio {:.3} exceeds the Theorem 1 bound {bound:.3}",
            default.avg_ratio()
        )
    });
    gates.check(hashed.detected == hashed.runs, || {
        format!(
            "trials (input seed {seed}): {} of {} hashed trials detected",
            hashed.detected, hashed.runs
        )
    });
    tally.attempted += default.runs + hashed.runs;
    tally.failed += (default.runs - default.detected)
        + default.false_positives
        + (hashed.runs - hashed.detected);
    RunStats {
        wall_ns,
        cpu_ns,
        trials: default.runs + hashed.runs,
        default,
    }
}

/// `run_detector_with` timed over the prepared walks: ns per hop.
fn core_ns_per_hop(prep: &Prepared) -> f64 {
    let det = Unroller::from_params(UnrollerParams::default()).expect("valid parameters");
    let mut state = det.init_state();
    let mut passes = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut hops = 0u64;
        for walk in &prep.walks {
            let out = run_detector_with(&det, black_box(walk), MAX_HOPS, &mut state);
            hops += out.reported_at.unwrap_or(0);
        }
        passes.push(ratio(t0.elapsed().as_nanos() as f64, hops as f64));
    }
    median(&passes)
}

/// Runs `paper_trials` for `seconds`.
pub fn run(seed: u64, seconds: f64, trace: bool, scale: &Scale, gate_fault: bool) -> Outcome {
    let mut gates = Gates::default();
    let mut tally = Tally::default();
    // As for the engine workloads: a fresh input and set-up per run.
    let mut setup_s = Vec::new();
    let mut input_seeds = Vec::new();
    let mut timed_prepare = |run: u64| {
        let input = run_seed(seed, run);
        let t0 = Instant::now();
        let p = prepare(input, scale);
        setup_s.push(t0.elapsed().as_secs_f64());
        input_seeds.push(Json::UInt(input));
        p
    };
    let mut prep = timed_prepare(0);
    run_once(&prep, None, &mut gates, &mut tally, gate_fault);

    let mut tracer = trace.then(Tracer::default);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while untraced.len() < 3 || Instant::now() < deadline {
        prep = timed_prepare(untraced.len() as u64 + 1);
        untraced.push(run_once(&prep, None, &mut gates, &mut tally, gate_fault));
        if let Some(t) = tracer.as_mut() {
            traced.push(run_once(&prep, Some(t), &mut gates, &mut tally, gate_fault));
        }
    }
    let rate = |r: &RunStats| ratio(r.trials as f64 * 1e9, r.wall_ns as f64);
    let tps: Vec<f64> = untraced.iter().map(rate).collect();
    let cpu: Vec<f64> = untraced
        .iter()
        .map(|r| ratio(r.cpu_ns as f64, r.trials as f64))
        .collect();
    let mut sheet = Sheet::default();
    let mut details = Json::object();
    details.set("input_seeds", Json::Array(input_seeds));
    details.set("setup_s", json_floats(&setup_s));
    details.set("throughput_pps", json_floats(&tps));
    details.set("cpu_ns_per_pkt", json_floats(&cpu));
    if let Some(t) = tracer.as_mut() {
        let traced_tps: Vec<f64> = traced.iter().map(rate).collect();
        details.set("traced_throughput_pps", json_floats(&traced_tps));
        let span = t.open("layer.core", None);
        sheet.set("core.ns_per_hop", core_ns_per_hop(&prep), "ns");
        t.close(span);
        let acc = untraced[0].default;
        sheet.set(
            "core.hops_per_trial",
            ratio(acc.sum_hops as f64, acc.detected as f64),
            "count",
        );
        sheet.set(
            "trace.overhead_share",
            1.0 - ratio(median(&traced_tps), median(&tps)),
            "ratio",
        );
    } else {
        sheet.set("throughput_pps", median(&tps), "1/s");
        sheet.set("cpu_ns_per_pkt", median(&cpu), "ns");
        sheet.set("setup_s", median(&setup_s), "s");
    }
    let mut params = Json::object();
    params.set("b_hops", Json::UInt(B_HOPS as u64));
    params.set("l_hops", Json::UInt(L_HOPS as u64));
    params.set("trials_per_run_default", Json::UInt(prep.cfg.runs));
    params.set("trials_per_run_hashed", Json::UInt(prep.hashed_runs));
    params.set(
        "hashed_point",
        Json::Str("b=4,z=7,c=1,h=1,th=4".to_string()),
    );
    params.set("threads", Json::UInt(prep.cfg.threads as u64));
    Outcome {
        sheet,
        gates,
        tally,
        params,
        busy_threads: prep.cfg.threads,
        details,
        tracer,
    }
}
