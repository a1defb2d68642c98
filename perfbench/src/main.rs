//! `bfdn-perfbench` — the repository benchmark.
//!
//! ```text
//! bfdn-perfbench --workload explore-local|serve-mixed|serve-reheat
//!                --seed N --seconds S --trace 0|1 --serve-bin PATH
//! ```
//!
//! Prints as its last line one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (name → value and unit). With `--trace 0` the
//! metrics are the end-to-end metrics of the named workload; with
//! `--trace 1` they are the per-layer ledger, from one traced pass of
//! every workload. Any failed correctness check exits 1 without a
//! result. See README.md for the workloads and metrics.

mod daemon;
mod explore;
mod ledger;
mod plan;
mod probe;
mod served;
mod stats;

use bfdn_obs::json::JsonObject;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

/// The interactive latency limit: a request answered later, or not at
/// all, misses it.
pub const SLO_MS: f64 = 100.0;

/// End-to-end metric names, as `BENCHMARK.json` lists them.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "explore_wall_s",
    "peak_rss_mb",
    "interactive_p50_ms",
    "interactive_within_slo",
    "batch_specs_per_s",
    "ok_ratio",
];

/// Per-layer metric names, as `BENCHMARK.json` lists them.
const PER_LAYER: [&str; 31] = [
    "trees.build_ns_per_node",
    "sim.ns_per_robot_round",
    "sim.breadth.ns_per_robot_round",
    "sim.depth.ns_per_robot_round",
    "sim.bfdn.ns_per_robot_round",
    "sim.write-read.ns_per_robot_round",
    "sim.bfdn-l2.ns_per_robot_round",
    "sim.cte.ns_per_robot_round",
    "sim.robot_rounds",
    "exec.overhead_ms",
    "server.queue_wait_ms.p50",
    "server.queue_wait_ms.p99",
    "server.execute_ms.p50",
    "server.worker_busy_ratio",
    "server.queue_rejects",
    "server.serialize_ms.p50",
    "wire.gap_ms.p50",
    "protocol.encode_us",
    "protocol.decode_us",
    "protocol.reply_bytes.p50",
    "cache.get_us",
    "cache.put_us",
    "cache.hit_ratio",
    "store.get_us",
    "store.put_us",
    "store.hit_share",
    "codec.compress_mb_per_s",
    "codec.decompress_mb_per_s",
    "store.compression_ratio",
    "loadgen.late_ms",
    "tracing.overhead_pct",
];

/// One measured number.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What one run of a workload produced.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics.
    pub metrics: Vec<Metric>,
    /// Per-layer metrics, filled by traced runs.
    pub layers: Vec<Metric>,
}

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    ExploreLocal,
    ServeMixed,
    ServeReheat,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ExploreLocal,
        Workload::ServeMixed,
        Workload::ServeReheat,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ExploreLocal => "explore-local",
            Workload::ServeMixed => "serve-mixed",
            Workload::ServeReheat => "serve-reheat",
        }
    }

    fn run(self, cfg: &Config) -> Result<Report, String> {
        match self {
            Workload::ExploreLocal => explore::run(cfg),
            Workload::ServeMixed => served::mixed(cfg),
            Workload::ServeReheat => served::reheat(cfg),
        }
    }

    /// The end-to-end metric tracing overhead is read from.
    fn primary(self) -> &'static str {
        match self {
            Workload::ExploreLocal => "explore_wall_s",
            _ => "interactive_p50_ms",
        }
    }
}

/// Settings of one run.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub serve_bin: PathBuf,
    /// A directory of this run's own, removed when the run ends.
    pub scratch: PathBuf,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut serve_bin) =
        (None, None, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
    })
}

/// Peak resident memory (`VmHWM`) of process `pid` (`self` for this
/// one), in megabytes.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status =
        fs::read_to_string(format!("/proc/{pid}/status")).map_err(|e| format!("peak RSS: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("peak RSS: no VmHWM line")?;
    Ok(kb / 1024.0)
}

fn metric_of<'a>(metrics: &'a [Metric], name: &str) -> Option<&'a Metric> {
    metrics.iter().find(|m| m.name == name)
}

/// The traced run: the named workload untraced and then every workload
/// traced, each for a quarter of the run. Per-layer numbers come from
/// the traced passes; the named workload's pair gives the overhead.
fn run_traced(args: &Args, scratch: &std::path::Path) -> Result<Report, String> {
    let quarter = args.seconds / 4.0;
    let cfg = |traced| Config {
        seed: args.seed,
        seconds: quarter,
        traced,
        serve_bin: args.serve_bin.clone(),
        scratch: scratch.to_path_buf(),
    };
    let untraced = args.workload.run(&cfg(false))?;
    let primary = args.workload.primary();
    let base = metric_of(&untraced.metrics, primary)
        .expect("primary metric")
        .value;
    let mut report = Report {
        attempted: untraced.attempted,
        failed: untraced.failed,
        metrics: Vec::new(),
        layers: Vec::new(),
    };
    let mut overhead = None;
    for workload in Workload::ALL {
        let (layers, attempted, traced_primary) = if workload == Workload::ExploreLocal {
            let (layers, wall) = explore::traced(&cfg(true))?;
            (layers, explore::LIST_LEN as u64, wall)
        } else {
            let r = workload.run(&cfg(true))?;
            let v = metric_of(&r.metrics, workload.primary())
                .expect("primary metric")
                .value;
            report.failed += r.failed;
            (r.layers, r.attempted, v)
        };
        report.attempted += attempted;
        report.layers.extend(layers);
        if workload == args.workload {
            overhead = Some(100.0 * (traced_primary - base) / base);
        }
    }
    report.layers.push(Metric::new(
        "tracing.overhead_pct",
        overhead.expect("named workload ran"),
        "%",
    ));
    Ok(report)
}

/// The result line, or why there is none: every listed metric must
/// have been measured, as a finite number.
fn result_line(report: &Report, trace: bool) -> Result<String, String> {
    let (names, metrics): (&[&str], &[Metric]) = if trace {
        (&PER_LAYER, &report.layers)
    } else {
        (&END_TO_END, &report.metrics)
    };
    let mut out = JsonObject::new();
    for name in names {
        let m =
            metric_of(metrics, name).ok_or_else(|| format!("metric {name} was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("metric {name} has no value (too few samples?)"));
        }
        let mut v = JsonObject::new();
        v.f64("value", m.value).str("unit", m.unit);
        out.raw(name, &v.finish());
    }
    let mut line = JsonObject::new();
    line.bool("correct", true)
        .u64("attempted", report.attempted)
        .u64("failed", report.failed)
        .raw("metrics", &out.finish());
    Ok(line.finish())
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = PathBuf::from(".bench_tmp").join(format!("run-{}", std::process::id()));
    if let Err(e) = fs::create_dir_all(&scratch) {
        eprintln!("perfbench: {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let result = if args.trace {
        run_traced(&args, &scratch)
    } else {
        args.workload.run(&Config {
            seed: args.seed,
            seconds: args.seconds,
            traced: false,
            serve_bin: args.serve_bin.clone(),
            scratch: scratch.clone(),
        })
    };
    let _ = fs::remove_dir_all(&scratch);
    let _ = fs::remove_dir(".bench_tmp");
    match result.and_then(|report| result_line(&report, args.trace)) {
        Ok(line) => {
            let mut context = JsonObject::new();
            context
                .str("workload", args.workload.name())
                .u64("seed", args.seed)
                .f64("seconds", args.seconds)
                .bool("trace", args.trace)
                .u64(
                    "nproc",
                    std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
                )
                .str(
                    "revision",
                    bfdn_obs::git_revision().as_deref().unwrap_or("unknown"),
                );
            println!("{{\"context\":{}}}", context.finish());
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
