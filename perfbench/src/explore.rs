//! `explore-local`: the simulator and tree builder in-process, with no
//! daemon. Protocol, cache, store and server are bypassed entirely.

use crate::plan::{self, Pool};
use crate::stats::{median, quantile, tail};
use crate::{peak_rss_mb, Config, Metric, Report};
use bfdn_service::exec::{self, run_spec};
use bfdn_service::{ExploreResult, ExploreSpec};
use bfdn_sim::Simulator;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// One entry of the fixed list: arm, family, n, k, and the round count
/// pinned for the families whose shape does not depend on the seed.
type Entry = (&'static str, &'static str, u64, u64, Option<u64>);

/// The fixed spec list, about six seconds at the seed commit. The first
/// five are shallow: the `2n/k` breadth term dominates their rounds. The
/// last six are deep: the `D²` reanchor term does. Each of the four arms
/// is on both sides.
const LIST: [Entry; 11] = [
    ("bfdn", "random-recursive", 1_000_000, 1_024, None),
    ("bfdn", "binary", 1_000_000, 4_096, Some(659)),
    ("write-read", "random-recursive", 200_000, 256, None),
    ("bfdn-l2", "random-recursive", 200_000, 256, None),
    ("cte", "random-recursive", 200_000, 256, None),
    ("bfdn", "path", 20_000, 256, Some(59_049)),
    ("bfdn", "broom", 20_000, 64, Some(39_883)),
    ("bfdn", "caterpillar", 20_000, 64, Some(41_529)),
    ("write-read", "path", 20_000, 64, Some(40_399)),
    ("bfdn-l2", "broom", 20_000, 64, Some(43_279)),
    ("cte", "caterpillar", 10_000, 64, Some(6_666)),
];

/// The arms on the list, each with its per-arm metric.
const ARMS: [(&str, &str); 4] = [
    ("bfdn", "sim.bfdn.ns_per_robot_round"),
    ("write-read", "sim.write-read.ns_per_robot_round"),
    ("bfdn-l2", "sim.bfdn-l2.ns_per_robot_round"),
    ("cte", "sim.cte.ns_per_robot_round"),
];

/// Seconds of the interactive mix per round, spread over the list.
const INTERACTIVE_SLICE_S: f64 = 0.5;

/// Sweep batches per round.
const SWEEP_BATCHES: usize = 2;

/// Times the set-up is repeated; its median is reported.
const SETUP_REPEATS: usize = 3;

fn list(seed: u64) -> Vec<(ExploreSpec, Option<u64>)> {
    LIST.iter()
        .enumerate()
        .map(|(i, &(algo, family, n, k, pinned))| {
            (
                ExploreSpec::new(
                    algo,
                    family,
                    n,
                    k,
                    seed.wrapping_mul(1_000).wrapping_add(i as u64),
                ),
                pinned,
            )
        })
        .collect()
}

/// The paper bound that covers `algo`: Theorem 1 for the single-layer
/// arms, Theorem 10 (ℓ = 2) for `bfdn-l2`, which trades Theorem 1's
/// constant for fewer whiteboard writes and exceeds it by design.
fn paper_bound(algo: &str, r: &ExploreResult) -> f64 {
    let (n, d, k, delta) = (
        r.nodes as usize,
        r.depth as usize,
        r.spec.k as usize,
        r.max_degree as usize,
    );
    match algo {
        "bfdn-l2" => bfdn::theorem10_bound(n, d, k, delta, 2),
        _ => bfdn::theorem1_bound(n, d, k, delta),
    }
}

/// Whether the breadth term of the offline floor `max{2(n−1)/k, 2D}`
/// is the larger one.
fn breadth_regime(r: &ExploreResult) -> bool {
    2.0 * (r.nodes - 1) as f64 / r.spec.k as f64 >= 2.0 * r.depth as f64
}

/// Checks one list result: pinned rounds, every edge discovered, the
/// paper bound met, and the offline floor respected.
fn check(r: &ExploreResult, pinned: Option<u64>) -> Result<(), String> {
    let spec = r.spec.canonical();
    let rounds = r.metrics.rounds;
    if let Some(want) = pinned {
        if rounds != want {
            return Err(format!("{spec}: {rounds} rounds, pinned {want}"));
        }
    }
    if r.metrics.edges_discovered != r.nodes - 1 {
        return Err(format!(
            "{spec}: discovered {} of {} edges",
            r.metrics.edges_discovered,
            r.nodes - 1
        ));
    }
    let margin = paper_bound(&r.spec.algorithm, r) - rounds as f64;
    if margin < 0.0 {
        return Err(format!("{spec}: paper bound exceeded by {}", -margin));
    }
    let floor = bfdn::offline_lower_bound(r.nodes as usize, r.depth as usize, r.spec.k as usize);
    if (rounds as f64) < floor {
        return Err(format!(
            "{spec}: {rounds} rounds beat the offline floor {floor}"
        ));
    }
    Ok(())
}

fn run_checked(spec: &ExploreSpec) -> Result<ExploreResult, String> {
    run_spec(spec)
        .map(|(r, _)| r)
        .map_err(|e| format!("{}: {e}", spec.canonical()))
}

/// Warm-up: validates the plan and runs the list at 1/100 scale plus a
/// slice of the interactive mix, so allocator and page cache are warm
/// before anything is timed.
fn setup(seed: u64) -> Result<f64, String> {
    let start = Instant::now();
    for (spec, _) in list(seed) {
        exec::validate(&spec).map_err(|e| e.to_string())?;
        let mut small = spec.clone();
        small.n = (spec.n / 100).max(200);
        run_checked(&small)?;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for item in plan::interactive(&mut rng, 64, plan::namespace(0)) {
        run_checked(&item.spec)?;
    }
    Ok(start.elapsed().as_secs_f64())
}

/// Runs the workload for `cfg.seconds` and reports its end-to-end
/// metrics.
///
/// The run is a sequence of rounds, at least two so that determinism is
/// checked pass against pass. Each round is one pass over the fixed
/// list, with a sliver of the interactive mix before every list spec
/// and the sweep batches spread evenly among them. So every metric
/// samples the whole run, and a stretch of machine noise lands on all
/// metrics alike rather than on one. `explore_wall_s` sums, over the
/// list, each spec's median time across rounds.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let setups = (0..SETUP_REPEATS)
        .map(|_| setup(cfg.seed))
        .collect::<Result<Vec<_>, _>>()?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let interactive = plan::interactive(&mut rng, 1 << 16, plan::namespace(1));
    let mut interactive = interactive.iter().cycle();
    let mut pool = Pool::ordered(plan::SWEEP, plan::namespace(2));
    let specs = list(cfg.seed);

    let mut latencies = Vec::new();
    let (mut batch_specs, mut batch_s) = (0usize, 0.0);
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
    let mut first: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    // Rounds continue while the next one, as long as the last, would end
    // closer to the end of the run than stopping now.
    let start = Instant::now();
    let mut round_s = 0.0;
    while walls[0].len() < 2 || start.elapsed().as_secs_f64() + round_s / 2.0 < cfg.seconds {
        let round = Instant::now();
        for (i, (spec, pinned)) in specs.iter().enumerate() {
            // The interactive mix, in-process: what serve-mixed's
            // interactive requests cost with no transport, queue or
            // cache in the way.
            let sliver = Instant::now();
            while sliver.elapsed().as_secs_f64() < INTERACTIVE_SLICE_S / specs.len() as f64 {
                let item = &interactive.next().expect("cycled plan").spec;
                let t = Instant::now();
                run_checked(item)?;
                latencies.push(t.elapsed().as_secs_f64() * 1e3);
                attempted += 1;
            }

            // A sweep batch, item after item on this thread.
            if (0..SWEEP_BATCHES).any(|b| b * specs.len() / SWEEP_BATCHES == i) {
                let batch: Vec<ExploreSpec> =
                    (0..plan::SWEEP_BATCH).map(|_| pool.fresh()).collect();
                let t = Instant::now();
                for item in &batch {
                    run_checked(item)?;
                }
                batch_s += t.elapsed().as_secs_f64();
                batch_specs += batch.len();
            }

            // The list spec.
            let t = Instant::now();
            let r = run_checked(spec)?;
            walls[i].push(t.elapsed().as_secs_f64());
            attempted += 1;
            check(&r, *pinned)?;
            let payload = r.payload_json();
            match first.get(i) {
                None => first.push(payload),
                Some(p) if *p == payload => {}
                Some(_) => {
                    return Err(format!(
                        "{}: payload changed between passes",
                        r.spec.canonical()
                    ))
                }
            }
        }
        round_s = round.elapsed().as_secs_f64();
    }
    attempted += batch_specs as u64;
    eprintln!(
        "explore-local: {} rounds, {} interactive specs, p95 {:.3} ms",
        walls[0].len(),
        latencies.len(),
        tail(&latencies, 0.95)
    );

    let within = latencies.iter().filter(|&&ms| ms <= crate::SLO_MS).count();
    Ok(Report {
        attempted,
        failed: 0,
        metrics: vec![
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("explore_wall_s", walls.iter().map(|w| median(w)).sum(), "s"),
            Metric::new("peak_rss_mb", peak_rss_mb("self")?, "MB"),
            Metric::new("interactive_p50_ms", quantile(&latencies, 0.5), "ms"),
            Metric::new(
                "interactive_within_slo",
                within as f64 / latencies.len() as f64,
                "ratio",
            ),
            Metric::new("batch_specs_per_s", batch_specs as f64 / batch_s, "1/s"),
            Metric::new("ok_ratio", 1.0, "ratio"),
        ],
        layers: Vec::new(),
    })
}

/// One decomposed list spec: tree build, simulator run, and the whole
/// `run_spec` around them, timed separately.
struct Decomposed {
    algo: &'static str,
    breadth: bool,
    nodes: u64,
    robot_rounds: u64,
    build_ns: f64,
    sim_ns: f64,
    run_spec_ns: f64,
}

/// The traced pass: one pass over the list with each layer called on
/// its own — `Family::instance`, then `Simulator::run`, then
/// `exec::run_spec` on the same spec — and the per-layer metrics of the
/// trees, sim and exec layers. Also returns the summed `run_spec` wall,
/// the traced counterpart of `explore_wall_s`.
pub fn traced(cfg: &Config) -> Result<(Vec<Metric>, f64), String> {
    let mut rows = Vec::new();
    for ((spec, pinned), &(algo, ..)) in list(cfg.seed).iter().zip(&LIST) {
        let family = exec::find_family(&spec.family).ok_or("unknown family")?;
        let t = Instant::now();
        let tree = family.instance(spec.n as usize, &mut StdRng::seed_from_u64(spec.seed));
        let build_ns = t.elapsed().as_nanos() as f64;
        let mut explorer = exec::build_explorer(algo, spec.k as usize).ok_or("unknown arm")?;
        let t = Instant::now();
        let outcome = Simulator::new(&tree, spec.k as usize)
            .run(explorer.as_mut())
            .map_err(|e| format!("{}: {e}", spec.canonical()))?;
        let sim_ns = t.elapsed().as_nanos() as f64;
        drop(tree);
        let t = Instant::now();
        let result = run_checked(spec)?;
        let run_spec_ns = t.elapsed().as_nanos() as f64;
        check(&result, *pinned)?;
        if outcome.rounds != result.metrics.rounds {
            return Err(format!(
                "{}: Simulator::run took {} rounds, run_spec {}",
                spec.canonical(),
                outcome.rounds,
                result.metrics.rounds
            ));
        }
        rows.push(Decomposed {
            algo,
            breadth: breadth_regime(&result),
            nodes: result.nodes,
            robot_rounds: outcome.rounds * spec.k,
            build_ns,
            sim_ns,
            run_spec_ns,
        });
    }
    let per_rr = |keep: &dyn Fn(&Decomposed) -> bool| {
        let (ns, rr) = rows
            .iter()
            .filter(|r| keep(r))
            .fold((0.0, 0u64), |(ns, rr), r| {
                (ns + r.sim_ns, rr + r.robot_rounds)
            });
        ns / rr as f64
    };
    let total = |f: &dyn Fn(&Decomposed) -> f64| rows.iter().map(f).sum::<f64>();
    let mut layers = vec![
        Metric::new(
            "trees.build_ns_per_node",
            total(&|r| r.build_ns) / total(&|r| r.nodes as f64),
            "ns",
        ),
        Metric::new("sim.ns_per_robot_round", per_rr(&|_| true), "ns"),
        Metric::new(
            "sim.breadth.ns_per_robot_round",
            per_rr(&|r| r.breadth),
            "ns",
        ),
        Metric::new(
            "sim.depth.ns_per_robot_round",
            per_rr(&|r| !r.breadth),
            "ns",
        ),
    ];
    for (arm, name) in ARMS {
        layers.push(Metric::new(name, per_rr(&|r| r.algo == arm), "ns"));
    }
    layers.push(Metric::new(
        "sim.robot_rounds",
        rows.iter().map(|r| r.robot_rounds).sum::<u64>() as f64,
        "count",
    ));
    layers.push(Metric::new(
        "exec.overhead_ms",
        total(&|r| r.run_spec_ns - r.build_ns - r.sim_ns) / rows.len() as f64 / 1e6,
        "ms",
    ));
    Ok((layers, total(&|r| r.run_spec_ns) / 1e9))
}

/// Specs per pass over the fixed list.
pub const LIST_LEN: usize = LIST.len();
