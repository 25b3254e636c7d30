//! Measurement plumbing shared by every workload: clocks, order
//! statistics, the metric sheet, correctness gates and provenance.

use std::collections::BTreeMap;
use std::path::Path;
use unroller_engine::Json;

/// Process CPU time (user + system, every thread the process ever ran,
/// exited ones included), in nanoseconds.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable struct with the layout of the C
    // `timespec` on 64-bit Linux (two 64-bit fields), and
    // `clock_gettime` writes nothing but that struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads process CPU time through 64-bit Linux clock_gettime");

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// The input seed of run `run` of a benchmark invoked with `seed`
/// (SplitMix64 over both): every run draws a fresh input, and one seed
/// always yields the same sequence of inputs.
pub fn run_seed(seed: u64, run: u64) -> u64 {
    let mut x = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(run.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Time the hypervisor ran other guests on this machine's CPUs (the
/// `steal` column of `/proc/stat`), summed over CPUs, in seconds
/// (Linux reports it in 1/100 s ticks).
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Median of `values` (0.0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of `values` (0.0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0.0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The metrics one run reports, by name, each with its unit.
#[derive(Debug, Default)]
pub struct Sheet {
    entries: BTreeMap<String, (f64, &'static str)>,
}

impl Sheet {
    /// Records `name = value unit`, replacing an earlier value.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.insert(name.to_string(), (value, unit));
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.get(name).map(|&(v, _)| v)
    }

    /// The unit `name` was recorded with.
    pub fn unit(&self, name: &str) -> Option<&'static str> {
        self.entries.get(name).map(|&(_, u)| u)
    }
}

/// Correctness gates: every failed check is kept, with its message.
#[derive(Debug, Default)]
pub struct Gates {
    /// Checks evaluated.
    pub checked: u64,
    /// Messages of the checks that failed.
    pub failures: Vec<String>,
}

impl Gates {
    /// Evaluates one check; `what` describes it for the failure list.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// True when no check failed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Operations offered and lost: packets to process plus loops to
/// detect (engine), or trials to detect (detector).
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (lost packets, missed loops).
    pub failed: u64,
}

/// Where the run came from: code identity, machine, toolchain, inputs.
pub fn provenance(workload: &str, seed: u64, busy_threads: usize, params: Json) -> Json {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut p = Json::object();
    p.set("workload", Json::Str(workload.to_string()));
    p.set("seed", Json::UInt(seed));
    p.set("git_rev", Json::Str(git_rev()));
    p.set(
        "source_digest",
        Json::Str(format!("{:016x}", source_digest())),
    );
    p.set("nproc", Json::UInt(nproc as u64));
    p.set("busy_threads", Json::UInt(busy_threads as u64));
    p.set("oversubscribed", Json::Bool(busy_threads > nproc));
    p.set(
        "build_profile",
        Json::Str(
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
    );
    p.set("rustc", Json::Str(env!("PERFBENCH_RUSTC").to_string()));
    p.set("params", params);
    p
}

/// The checked-out commit, read from `.git` in the working directory
/// without leaving it; "none" outside a git checkout.
fn git_rev() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the path and bytes of every source file the benchmark
/// builds from, in sorted order: identifies the measured code even where
/// there is no git metadata.
fn source_digest() -> u64 {
    let mut files = Vec::new();
    for root in ["crates", "vendor", "perfbench/src"] {
        collect_files(Path::new(root), &mut files);
    }
    for file in ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"] {
        files.push(Path::new(file).to_path_buf());
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in &files {
        feed(f.to_string_lossy().as_bytes());
        feed(&std::fs::read(f).unwrap_or_default());
    }
    h
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

/// Everything one benchmark run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Metrics, by name.
    pub sheet: Sheet,
    /// Correctness gates.
    pub gates: Gates,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// The workload's parameters.
    pub params: Json,
    /// Threads the workload keeps busy at once.
    pub busy_threads: usize,
    /// Per-run measurements behind the medians.
    pub details: Json,
    /// Spans of a traced run.
    pub tracer: Option<crate::trace::Tracer>,
}

/// `values` as a JSON array.
pub fn json_floats(values: &[f64]) -> Json {
    Json::Array(values.iter().map(|&v| Json::Float(v)).collect())
}
