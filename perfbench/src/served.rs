//! The two served workloads, `serve-mixed` and `serve-reheat`, against a
//! spawned `bfdn-serve`. Load comes from two threads, one connection
//! each.

use crate::daemon::{Counters, Daemon, Launch};
use crate::ledger::{self, ClientSpan};
use crate::plan::{self, Pool};
use crate::probe::{self, Exchange};
use crate::stats::{mean, median, quantile, tail};
use crate::{Config, Metric, Report, SLO_MS};
use bfdn_service::exec::run_spec;
use bfdn_service::{Client, ExploreResult, ExploreSpec, Request, Response};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Interactive arrivals per second on serve-mixed. At the seed commit
/// the client's delayed ACK stalls a reply by about 40 ms whenever the
/// next request follows the last reply closely: at 20 per second every
/// reply stalled, at 15 runs went either way, at 10 and below none did.
/// Ten keeps serve-mixed's interactive latency about queueing and still
/// gives 300 samples in 30 s.
const INTERACTIVE_HZ: f64 = 10.0;
/// Seconds between sweep batches on serve-mixed: three interactive
/// gaps, so the two schedules keep a fixed phase.
const SWEEP_PERIOD_S: f64 = 3.0 / INTERACTIVE_HZ;
/// When the first sweep batch is due: 0.02 s before an interactive
/// request. See [`mixed`] for the phases this gives.
const SWEEP_OFFSET_S: f64 = 0.08;

/// Keys serve-reheat stores before the restart.
const STORED_KEYS: usize = 3_000;
/// Specs per fill batch.
const FILL_BATCH: usize = 250;
/// The resident budget of the restarted daemon: a few payloads per
/// cache shard, smaller than the replayed sweep, so LRU keeps almost
/// nothing the traffic reads and warm reads go to the store.
const REHEAT_BUDGET_BYTES: u64 = 8 * 1024;
/// Share of serve-reheat singles that read a stored key; the rest are
/// cold tiny specs, written through to the store.
const WARM_READ_SHARE: f64 = 0.85;

/// Times a set-up is repeated; its median is reported.
const SETUP_REPEATS: usize = 3;
/// Served payloads re-executed locally and compared byte for byte.
const SAMPLED_PAYLOADS: usize = 16;

/// Trace classes, for distinct trace ids per connection.
const CLASS_SINGLE: u64 = 1;
const CLASS_BATCH: u64 = 2;

/// One request as a load thread saw it, in seconds since the epoch.
struct Sample {
    due: f64,
    /// When the request could first go out: its due time, or the
    /// previous reply on the connection when that came in later.
    ready: f64,
    sent: f64,
    done: f64,
    trace: u64,
}

impl Sample {
    /// Open-loop latency: from when the request was due, less the time
    /// the generator's thread overslept past `ready`. A backlog on the
    /// connection is charged in full; the oversleep is not, because it
    /// is the load generator waiting for a core the daemon holds, which
    /// a client on another machine would not do. Counting it made the
    /// slowest requests of a run read 2–4 ms higher or not, depending
    /// on how the host scheduled that run.
    fn open_loop_ms(&self) -> f64 {
        (self.done - self.due - (self.sent - self.ready)) * 1e3
    }
    fn since_send_ms(&self) -> f64 {
        (self.done - self.sent) * 1e3
    }
    fn late_ms(&self) -> f64 {
        (self.sent - self.due) * 1e3
    }
}

/// What a load thread collected: one sample per request, with the reply
/// when there was one.
struct Lane<T> {
    samples: Vec<Sample>,
    replies: Vec<Option<T>>,
}

impl<T> Lane<T> {
    fn new() -> Self {
        Lane {
            samples: Vec::new(),
            replies: Vec::new(),
        }
    }
    fn failed(&self) -> u64 {
        self.replies.iter().filter(|r| r.is_none()).count() as u64
    }
    fn ok_samples(&self) -> impl Iterator<Item = &Sample> {
        self.samples
            .iter()
            .zip(&self.replies)
            .filter_map(|(s, r)| r.as_ref().map(|_| s))
    }
}

fn secs(epoch: Instant) -> f64 {
    epoch.elapsed().as_secs_f64()
}

/// Open loop: request `i` is due `offset + i · period` after the epoch
/// and is sent then, or as soon as the previous reply is in when the
/// connection is behind. Requests due within `seconds` are sent.
fn open_loop<T>(
    epoch: Instant,
    offset: f64,
    period: f64,
    seconds: f64,
    trace: Option<(u64, u64)>,
    client: &mut Client,
    mut op: impl FnMut(usize, &mut Client) -> Option<T>,
) -> Lane<T> {
    let mut lane = Lane::new();
    for i in 0.. {
        let due = offset + i as f64 * period;
        if due >= seconds {
            break;
        }
        let wait = due - secs(epoch);
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
        lane.request(epoch, due, i, trace, client, &mut op);
    }
    lane
}

/// Closed loop: each request is sent as soon as the previous reply is
/// in, until `seconds` have passed.
fn closed_loop<T>(
    epoch: Instant,
    seconds: f64,
    trace: Option<(u64, u64)>,
    client: &mut Client,
    mut op: impl FnMut(usize, &mut Client) -> Option<T>,
) -> Lane<T> {
    let mut lane = Lane::new();
    for i in 0.. {
        let now = secs(epoch);
        if now >= seconds {
            break;
        }
        lane.request(epoch, now, i, trace, client, &mut op);
    }
    lane
}

impl<T> Lane<T> {
    fn request(
        &mut self,
        epoch: Instant,
        due: f64,
        i: usize,
        trace: Option<(u64, u64)>,
        client: &mut Client,
        op: &mut impl FnMut(usize, &mut Client) -> Option<T>,
    ) {
        let id = trace.map_or(0, |(seed, class)| plan::trace_id(seed, class, i as u64));
        client.set_trace((id != 0).then_some(id));
        let ready = self.samples.last().map_or(due, |s| s.done.max(due));
        let sent = secs(epoch);
        let reply = op(i, client);
        let done = secs(epoch);
        self.samples.push(Sample {
            due,
            ready,
            sent,
            done,
            trace: id,
        });
        self.replies.push(reply);
    }
}

/// Rejects a run whose generator fell further and further behind: the
/// last quarter of requests was sent later after its due time than the
/// first quarter by more than `slack_ms`. Latencies from such a run
/// measure the backlog, not the system.
fn check_backlog<T>(lane: &Lane<T>, slack_ms: f64, what: &str) -> Result<(), String> {
    let late: Vec<f64> = lane.samples.iter().map(Sample::late_ms).collect();
    let q = late.len() / 4;
    if q == 0 {
        return Ok(());
    }
    let (first, last) = (median(&late[..q]), median(&late[late.len() - q..]));
    if last > first + slack_ms {
        return Err(format!(
            "{what}: growing backlog (lateness {first:.1} ms in the first quarter, {last:.1} ms in the last)"
        ));
    }
    Ok(())
}

/// Re-executes a seeded sample of served results locally; each payload
/// must be byte-identical.
fn check_payloads(served: &[&ExploreResult], rng: &mut StdRng) -> Result<(), String> {
    for _ in 0..SAMPLED_PAYLOADS.min(served.len()) {
        let r = served[rng.random_range(0..served.len())];
        let (local, _) = run_spec(&r.spec).map_err(|e| e.to_string())?;
        if local.payload_json() != r.payload_json() {
            return Err(format!(
                "{}: served payload differs from local run_spec",
                r.spec.canonical()
            ));
        }
    }
    Ok(())
}

/// A reply must be for the spec sent, and `cached` exactly when the
/// plan sent a spec the daemon already held.
fn check_cached(spec: &ExploreSpec, warm: bool, reply: &ExploreResult) -> Result<(), String> {
    if reply.spec != *spec || reply.cached != warm {
        return Err(format!(
            "{}: answered cached={} for {} spec",
            spec.canonical(),
            reply.cached,
            if warm { "a stored" } else { "a fresh" }
        ));
    }
    Ok(())
}

/// The daemon re-checks the paper's bounds on every spec it executes;
/// none may have been violated since it started.
fn check_bounds(counters: &Counters) -> Result<(), String> {
    if counters.bound_violations != 0.0 {
        return Err(format!(
            "daemon counted {} bound violations",
            counters.bound_violations
        ));
    }
    Ok(())
}

/// A fresh scratch directory for one daemon.
fn fresh_dir(cfg: &Config, name: &str) -> Result<PathBuf, String> {
    let dir = cfg.scratch.join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn launch<'a>(
    cfg: &'a Config,
    dir: &'a Path,
    budget: Option<u64>,
    trace: Option<&'a Path>,
    log: &str,
) -> Launch<'a> {
    Launch {
        bin: &cfg.serve_bin,
        store_dir: dir,
        budget_bytes: budget,
        trace_out: trace,
        log: cfg.scratch.join(log),
    }
}

/// End-to-end metrics shared by both served workloads.
struct Served {
    setups: Vec<f64>,
    interactive_ms: Vec<f64>,
    interactive_attempted: usize,
    batch_s: Vec<f64>,
    batch_specs: usize,
    attempted: u64,
    failed: u64,
    peak_rss_mb: f64,
}

impl Served {
    /// The end-to-end metrics. The interactive p95 is not one of them:
    /// on serve-mixed it is set by how many scheduler ticks a woken
    /// thread waits while a sweep holds both cores, which the host
    /// decides from run to run, so it goes to standard error instead.
    fn metrics(&self) -> Vec<Metric> {
        let within = self
            .interactive_ms
            .iter()
            .filter(|&&ms| ms <= SLO_MS)
            .count();
        vec![
            Metric::new("setup_s", median(&self.setups), "s"),
            Metric::new("explore_wall_s", median(&self.batch_s), "s"),
            Metric::new("peak_rss_mb", self.peak_rss_mb, "MB"),
            Metric::new(
                "interactive_p50_ms",
                quantile(&self.interactive_ms, 0.5),
                "ms",
            ),
            Metric::new(
                "interactive_within_slo",
                within as f64 / self.interactive_attempted as f64,
                "ratio",
            ),
            Metric::new(
                "batch_specs_per_s",
                self.batch_specs as f64 / self.batch_s.iter().sum::<f64>(),
                "1/s",
            ),
            Metric::new(
                "ok_ratio",
                1.0 - self.failed as f64 / self.attempted as f64,
                "ratio",
            ),
        ]
    }

    /// Prints the interactive p95 to standard error, when there are
    /// samples enough for one.
    fn note_tail(&self, workload: &str) {
        let p95 = tail(&self.interactive_ms, 0.95);
        if p95.is_finite() {
            eprintln!("{workload}: interactive p95 {p95:.3} ms");
        }
    }
}

/// `serve-mixed`: cold open-loop traffic on a fresh daemon. Returns the
/// report, with the server-layer metrics when `cfg.traced`.
///
/// The two schedules keep a fixed phase. Of every three interactive
/// requests, one is due 0.02 s after a sweep and meets its first
/// sub-job; the other two are due 0.12 and 0.22 s after it, when the
/// sweep is done (it takes 0.05–0.1 s). So a fixed third of the
/// interactive requests meets a sweep whatever the machine's speed, and
/// no request races a sweep sent at the same instant. The median then
/// falls among the requests that meet no sweep. A share that followed
/// the sweep's duration would put the median on the bend between the
/// two groups, where it moves with the machine's speed.
pub fn mixed(cfg: &Config) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut daemon = None;
    let trace_out = cfg.scratch.join("mixed-spans.jsonl");
    for i in 0..SETUP_REPEATS {
        let dir = fresh_dir(cfg, "mixed-store")?;
        let last = i + 1 == SETUP_REPEATS;
        let trace = (cfg.traced && last).then_some(trace_out.as_path());
        let t = Instant::now();
        let d = Daemon::start(&launch(cfg, &dir, None, trace, "mixed.log"))?;
        setups.push(t.elapsed().as_secs_f64());
        if last {
            daemon = Some(d);
        } else {
            d.shutdown()?;
        }
    }
    let daemon = daemon.expect("at least one set-up");

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let count = (cfg.seconds * INTERACTIVE_HZ).ceil() as usize;
    let interactive = plan::interactive(&mut rng, count, plan::namespace(1));
    let mut pool = Pool::ordered(plan::MIXED_SWEEP, plan::namespace(2));
    let batches: Vec<Vec<ExploreSpec>> = (0..(cfg.seconds / SWEEP_PERIOD_S).ceil() as usize)
        .map(|_| (0..plan::SWEEP_BATCH).map(|_| pool.fresh()).collect())
        .collect();

    // Two load connections; the daemon's counters are read on fresh
    // connections at the edges of the window.
    let mut ci = daemon.client()?;
    let mut cs = daemon.client()?;
    let before = Counters::scrape(&mut daemon.client()?)?;
    let trace = cfg.traced.then_some(cfg.seed);
    let epoch = Instant::now();
    let (singles, sweeps) = std::thread::scope(|scope| {
        let singles = scope.spawn(|| {
            open_loop(
                epoch,
                0.0,
                1.0 / INTERACTIVE_HZ,
                cfg.seconds,
                trace.map(|s| (s, CLASS_SINGLE)),
                &mut ci,
                |i, c| c.explore(interactive[i].spec.clone()).ok(),
            )
        });
        let sweeps = scope.spawn(|| {
            open_loop(
                epoch,
                SWEEP_OFFSET_S,
                SWEEP_PERIOD_S,
                cfg.seconds,
                trace.map(|s| (s, CLASS_BATCH)),
                &mut cs,
                |i, c| c.batch(batches[i].clone()).ok(),
            )
        });
        (
            singles.join().expect("interactive thread"),
            sweeps.join().expect("sweep thread"),
        )
    });
    let window = secs(epoch);
    let after = Counters::scrape(&mut daemon.client()?)?;
    check_bounds(&after)?;
    let delta = after.since(&before);
    let peak_rss_mb = daemon.peak_rss_mb()?;
    let cache_hit_ratio = delta.cache_hits / delta.lookups();

    check_backlog(&singles, 2e3 / INTERACTIVE_HZ, "interactive")?;
    check_backlog(&sweeps, SWEEP_PERIOD_S * 1e3, "sweep")?;
    for (item, reply) in interactive.iter().zip(&singles.replies) {
        if let Some(r) = reply {
            check_cached(&item.spec, item.warm, r)?;
        }
    }
    for (batch, reply) in batches.iter().zip(&sweeps.replies) {
        if let Some((results, hits, misses)) = reply {
            if (*hits, *misses) != (0, batch.len() as u64) || results.len() != batch.len() {
                return Err(format!("cold sweep answered {hits} hits, {misses} misses"));
            }
        }
    }
    let served: Vec<&ExploreResult> = singles
        .replies
        .iter()
        .flatten()
        .chain(sweeps.replies.iter().flatten().flat_map(|(r, _, _)| r))
        .collect();
    check_payloads(&served, &mut StdRng::seed_from_u64(cfg.seed ^ 0x5eed))?;

    let attempted = (singles.samples.len() + sweeps.samples.len() * plan::SWEEP_BATCH) as u64;
    let failed = singles.failed() + sweeps.failed() * plan::SWEEP_BATCH as u64;
    let late: Vec<f64> = singles.samples.iter().map(Sample::late_ms).collect();
    let busy = delta.worker_busy_ns / 1e9 / (delta.workers * window);
    eprintln!(
        "serve-mixed: {} interactive and {} sweeps sent, {} and {} failed; workers busy {busy:.2}",
        singles.samples.len(),
        sweeps.samples.len(),
        singles.failed(),
        sweeps.failed(),
    );
    let served = Served {
        setups,
        interactive_ms: singles.ok_samples().map(Sample::open_loop_ms).collect(),
        interactive_attempted: singles.samples.len(),
        batch_s: sweeps
            .ok_samples()
            .map(|s| s.open_loop_ms() / 1e3)
            .collect(),
        batch_specs: sweeps.ok_samples().count() * plan::SWEEP_BATCH,
        attempted,
        failed,
        peak_rss_mb,
    };
    let metrics = served.metrics();
    served.note_tail("serve-mixed");
    drop((ci, cs));
    daemon.shutdown()?;

    let mut layers = Vec::new();
    if cfg.traced {
        let spans = ledger::read_spans(&trace_out)?;
        let queue = ledger::durations_ms(&spans, "queue_wait");
        layers = vec![
            Metric::new("server.queue_wait_ms.p50", quantile(&queue, 0.5), "ms"),
            Metric::new("server.queue_wait_ms.p99", quantile(&queue, 0.99), "ms"),
            Metric::new(
                "server.execute_ms.p50",
                quantile(&ledger::durations_ms(&spans, "execute"), 0.5),
                "ms",
            ),
            Metric::new("server.worker_busy_ratio", busy, "ratio"),
            Metric::new("server.queue_rejects", delta.queue_rejects, "count"),
            Metric::new(
                "server.serialize_ms.p50",
                quantile(&ledger::durations_ms(&spans, "serialize"), 0.5),
                "ms",
            ),
            Metric::new("cache.hit_ratio", cache_hit_ratio, "ratio"),
            Metric::new("loadgen.late_ms", mean(&late), "ms"),
        ];
        eprintln!(
            "serve-mixed spans: {} queue_wait, wire gap p50 {:.2} ms",
            queue.len(),
            median(&ledger::wire_gaps_ms(&client_spans(&singles), &spans))
        );
    }
    Ok(Report {
        attempted,
        failed,
        metrics,
        layers,
    })
}

fn client_spans<T>(lane: &Lane<T>) -> Vec<ClientSpan> {
    lane.ok_samples()
        .map(|s| ClientSpan {
            trace: s.trace,
            dur_ms: s.since_send_ms(),
        })
        .collect()
}

/// The stored state serve-reheat runs against.
struct Stored {
    daemon: Daemon,
    keys: Vec<ExploreSpec>,
    replay: Vec<ExploreSpec>,
}

/// Fills a fresh store through a daemon, then restarts the daemon on it
/// under the tight resident budget. Returns the stored state and the
/// set-up time. The time leaves out the wait for the filling daemon to
/// exit: its store-maintenance thread sleeps in 250 ms ticks and the
/// exit waits for the next one, which a fill of fixed length reaches
/// either just before or just after a tick.
fn fill_and_restart(cfg: &Config, trace: Option<&Path>) -> Result<(Stored, f64), String> {
    let start = Instant::now();
    let dir = fresh_dir(cfg, "reheat-store")?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut pool = Pool::shuffled(plan::TINY, plan::namespace(1), &mut rng);
    let keys: Vec<ExploreSpec> = (0..STORED_KEYS).map(|_| pool.fresh()).collect();
    let mut pool = Pool::ordered(plan::SWEEP, plan::namespace(2));
    let replay: Vec<ExploreSpec> = (0..plan::SWEEP_BATCH).map(|_| pool.fresh()).collect();

    let daemon = Daemon::start(&launch(cfg, &dir, None, None, "reheat-fill.log"))?;
    let mut client = daemon.client()?;
    for chunk in keys.chunks(FILL_BATCH).chain([replay.as_slice()]) {
        let (_, hits, misses) = client
            .batch(chunk.to_vec())
            .map_err(|e| format!("fill: {e}"))?;
        if (hits, misses) != (0, chunk.len() as u64) {
            return Err(format!("fill answered {hits} hits, {misses} misses"));
        }
    }
    check_bounds(&Counters::scrape(&mut client)?)?;
    drop(client);
    let filled = start.elapsed().as_secs_f64();
    daemon.shutdown()?;
    let restart = Instant::now();
    let daemon = Daemon::start(&launch(
        cfg,
        &dir,
        Some(REHEAT_BUDGET_BYTES),
        trace,
        "reheat.log",
    ))?;
    let stored = Stored {
        daemon,
        keys,
        replay,
    };
    Ok((stored, filled + restart.elapsed().as_secs_f64()))
}

/// `serve-reheat`: warm reads and write-through puts against a restarted
/// daemon whose store holds thousands of small results. Returns the
/// report, with the wire, store and probe metrics when `cfg.traced`.
pub fn reheat(cfg: &Config) -> Result<Report, String> {
    let trace_out = cfg.scratch.join("reheat-spans.jsonl");
    let mut setups = Vec::new();
    let mut stored = None;
    for i in 0..SETUP_REPEATS {
        let last = i + 1 == SETUP_REPEATS;
        let trace = (cfg.traced && last).then_some(trace_out.as_path());
        let (s, setup_s) = fill_and_restart(cfg, trace)?;
        setups.push(setup_s);
        if last {
            stored = Some(s);
        } else {
            s.daemon.shutdown()?;
        }
    }
    let Stored {
        daemon,
        keys,
        replay,
    } = stored.expect("at least one set-up");

    let mut ci = daemon.client()?;
    let mut cr = daemon.client()?;
    let before = Counters::scrape(&mut daemon.client()?)?;
    let trace = cfg.traced.then_some(cfg.seed);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0e4ea7);
    let mut cold = Pool::shuffled(plan::TINY, plan::namespace(3), &mut rng);
    let mut sent_singles: Vec<(ExploreSpec, bool)> = Vec::new();
    let epoch = Instant::now();
    let (singles, replays) = std::thread::scope(|scope| {
        let sent = &mut sent_singles;
        let singles = scope.spawn(|| {
            closed_loop(
                epoch,
                cfg.seconds,
                trace.map(|s| (s, CLASS_SINGLE)),
                &mut ci,
                |_, c| {
                    let warm = rng.random::<f64>() < WARM_READ_SHARE;
                    let spec = if warm {
                        keys[rng.random_range(0..keys.len())].clone()
                    } else {
                        cold.fresh()
                    };
                    sent.push((spec.clone(), warm));
                    c.explore(spec).ok()
                },
            )
        });
        let replays = scope.spawn(|| {
            closed_loop(
                epoch,
                cfg.seconds,
                trace.map(|s| (s, CLASS_BATCH)),
                &mut cr,
                |_, c| c.batch(replay.clone()).ok(),
            )
        });
        (
            singles.join().expect("singles thread"),
            replays.join().expect("replay thread"),
        )
    });
    let after = Counters::scrape(&mut daemon.client()?)?;
    check_bounds(&after)?;
    let delta = after.since(&before);
    let peak_rss_mb = daemon.peak_rss_mb()?;

    for ((spec, warm), reply) in sent_singles.iter().zip(&singles.replies) {
        if let Some(r) = reply {
            check_cached(spec, *warm, r)?;
        }
    }
    for (results, hits, misses) in replays.replies.iter().flatten() {
        if (*hits, *misses) != (replay.len() as u64, 0) || results.len() != replay.len() {
            return Err(format!("replay answered {hits} hits, {misses} misses"));
        }
    }
    let served: Vec<&ExploreResult> = singles
        .replies
        .iter()
        .flatten()
        .chain(
            replays
                .replies
                .iter()
                .flatten()
                .take(1)
                .flat_map(|(r, _, _)| r),
        )
        .collect();
    check_payloads(&served, &mut StdRng::seed_from_u64(cfg.seed ^ 0x5eed))?;

    let attempted = (singles.samples.len() + replays.samples.len() * replay.len()) as u64;
    let failed = singles.failed() + replays.failed() * replay.len() as u64;
    let store_hit_share = delta.store_hits / delta.lookups();
    eprintln!(
        "serve-reheat: {} singles and {} replays sent, {} and {} failed; store hit share {store_hit_share:.2}",
        singles.samples.len(),
        replays.samples.len(),
        singles.failed(),
        replays.failed(),
    );
    let served = Served {
        setups,
        interactive_ms: singles.ok_samples().map(Sample::since_send_ms).collect(),
        interactive_attempted: singles.samples.len(),
        batch_s: replays
            .ok_samples()
            .map(|s| s.since_send_ms() / 1e3)
            .collect(),
        batch_specs: replays.ok_samples().count() * replay.len(),
        attempted,
        failed,
        peak_rss_mb,
    };
    let metrics = served.metrics();
    served.note_tail("serve-reheat");
    drop((ci, cr));
    daemon.shutdown()?;

    let mut layers = Vec::new();
    if cfg.traced {
        let spans = ledger::read_spans(&trace_out)?;
        let gaps = ledger::wire_gaps_ms(&client_spans(&singles), &spans);
        if gaps.len() != singles.ok_samples().count() {
            return Err(format!(
                "span log joined {} of {} singles",
                gaps.len(),
                singles.ok_samples().count()
            ));
        }
        let carried: Vec<Exchange> = sent_singles
            .iter()
            .zip(&singles.replies)
            .filter_map(|((spec, _), reply)| {
                reply.as_ref().map(|r| Exchange {
                    request: Request::Explore(spec.clone()),
                    reply: Response::Result(Box::new(r.clone())),
                })
            })
            .chain(
                replays
                    .replies
                    .iter()
                    .flatten()
                    .map(|(results, hits, misses)| Exchange {
                        request: Request::Batch(replay.clone()),
                        reply: Response::Batch {
                            results: results.clone(),
                            hits: *hits,
                            misses: *misses,
                        },
                    }),
            )
            .collect();
        layers.push(Metric::new("wire.gap_ms.p50", median(&gaps), "ms"));
        layers.push(Metric::new("store.hit_share", store_hit_share, "ratio"));
        layers.extend(probe::run(&carried, &fresh_dir(cfg, "probe")?)?);
    }
    Ok(Report {
        attempted,
        failed,
        metrics,
        layers,
    })
}
