//! A spawned `bfdn-serve` process, given deployment settings only:
//! address, store directory, resident budget and trace output.

use bfdn_obs::fleet::{parse_exposition, Scrape};
use bfdn_service::Client;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a daemon may take to start listening or to drain.
const PATIENCE: Duration = Duration::from_secs(30);

/// A running daemon. Dropping it kills the process if it has not been
/// shut down cleanly.
pub struct Daemon {
    child: Child,
    addr: String,
}

/// Where and how to start a daemon.
pub struct Launch<'a> {
    pub bin: &'a Path,
    pub store_dir: &'a Path,
    pub budget_bytes: Option<u64>,
    pub trace_out: Option<&'a Path>,
    /// File that receives the daemon's standard error.
    pub log: PathBuf,
}

impl Daemon {
    /// Starts the daemon on a free local port and waits until it
    /// answers a `Status` request.
    pub fn start(launch: &Launch) -> Result<Daemon, String> {
        let log = fs::File::create(&launch.log).map_err(|e| format!("daemon log: {e}"))?;
        let mut cmd = Command::new(launch.bin);
        cmd.args(["--addr", "127.0.0.1:0", "--store-dir"])
            .arg(launch.store_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log);
        if let Some(budget) = launch.budget_bytes {
            cmd.args(["--store-budget-bytes", &budget.to_string()]);
        }
        if let Some(path) = launch.trace_out {
            cmd.arg("--trace-out").arg(path);
        }
        // The thread-count variables are the program's own tuning knobs;
        // the daemon runs with its defaults whatever the caller's
        // environment holds.
        cmd.env_remove("BFDN_THREADS")
            .env_remove("BFDN_ROUND_THREADS");
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", launch.bin.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + PATIENCE;
        loop {
            let text = fs::read_to_string(&launch.log).unwrap_or_default();
            // Standard error is unbuffered: only a line that has its
            // newline is complete.
            let listening = text
                .split_inclusive('\n')
                .filter(|l| l.ends_with('\n'))
                .find_map(|l| l.strip_prefix("bfdn-serve: listening on "));
            if let Some(line) = listening {
                daemon.addr = line.trim().to_string();
                break;
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited at start ({status}): {text}"));
            }
            if Instant::now() > deadline {
                return Err("daemon did not start listening".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        daemon
            .client()?
            .status()
            .map_err(|e| format!("daemon not ready: {e}"))?;
        Ok(daemon)
    }

    /// A fresh connection.
    pub fn client(&self) -> Result<Client, String> {
        let client =
            Client::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        client
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        Ok(client)
    }

    /// Peak resident memory of the daemon process.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::peak_rss_mb(&self.child.id().to_string())
    }

    /// Asks the daemon to drain and waits until the process has exited.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.client()?
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        let deadline = Instant::now() + PATIENCE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => return Err("daemon did not drain".into()),
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The daemon counters a run reads at the edges of its window.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub worker_busy_ns: f64,
    pub workers: f64,
    pub queue_rejects: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub store_hits: f64,
    pub bound_violations: f64,
}

impl Counters {
    /// Reads the counters through the daemon's `Metrics` request.
    pub fn scrape(client: &mut Client) -> Result<Counters, String> {
        let text = client.metrics().map_err(|e| format!("metrics: {e}"))?;
        let scrape = parse_exposition(&text);
        let sum = |name: &str| -> f64 {
            scrape
                .samples
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.value)
                .sum()
        };
        let one = |scrape: &Scrape, name: &str| scrape.value(name, &[]).unwrap_or(0.0);
        Ok(Counters {
            worker_busy_ns: sum("bfdn_worker_busy_ns_total"),
            workers: scrape
                .samples
                .iter()
                .filter(|s| s.name == "bfdn_worker_busy_ns_total")
                .count() as f64,
            queue_rejects: one(&scrape, "bfdn_queue_rejects_total"),
            cache_hits: one(&scrape, "bfdn_cache_hits_total"),
            cache_misses: one(&scrape, "bfdn_cache_misses_total"),
            store_hits: one(&scrape, "bfdn_store_hits_total"),
            bound_violations: one(&scrape, "bfdn_bound_violations_total"),
        })
    }

    /// `self − earlier`, counter by counter.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            worker_busy_ns: self.worker_busy_ns - earlier.worker_busy_ns,
            workers: self.workers,
            queue_rejects: self.queue_rejects - earlier.queue_rejects,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            store_hits: self.store_hits - earlier.store_hits,
            bound_violations: self.bound_violations - earlier.bound_violations,
        }
    }

    /// Lookups of the window: memory hits, store hits and misses.
    pub fn lookups(&self) -> f64 {
        self.cache_hits + self.store_hits + self.cache_misses
    }
}
