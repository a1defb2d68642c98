//! Span bookkeeping for the traced run: the daemon's own spans, read
//! back from its `--trace-out` log, joined by trace id to the client
//! spans the benchmark records around each request.

use bfdn_service::jsonval::Json;
use std::collections::HashMap;
use std::path::Path;

/// One span of the daemon's span log.
pub struct DaemonSpan {
    pub trace: u64,
    pub name: String,
    pub dur_ms: f64,
}

/// One request as the client saw it, from send to reply.
pub struct ClientSpan {
    pub trace: u64,
    pub dur_ms: f64,
}

fn hex(v: &Json, key: &str) -> Option<u64> {
    u64::from_str_radix(v.get(key)?.as_str()?, 16).ok()
}

/// Reads a JSONL span log written by `bfdn-serve --trace-out`.
pub fn read_spans(path: &Path) -> Result<Vec<DaemonSpan>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("span log: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let v = Json::parse(line).map_err(|e| format!("span log line: {e}"))?;
            Ok(DaemonSpan {
                trace: hex(&v, "trace").ok_or("span without trace id")?,
                name: v
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("span without name")?
                    .to_string(),
                dur_ms: v
                    .get("dur_ns")
                    .and_then(Json::as_u64)
                    .ok_or("span without duration")? as f64
                    / 1e6,
            })
        })
        .collect()
}

/// Durations of every span called `name`.
pub fn durations_ms(spans: &[DaemonSpan], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ms)
        .collect()
}

/// Self time of each client span: its duration minus the daemon's root
/// `request` span of the same trace, which covers decode, lookup,
/// queueing, execution and reply serialization. What remains is time
/// on the wire and in the two network stacks. Client spans whose trace
/// the daemon did not record are skipped.
pub fn wire_gaps_ms(client: &[ClientSpan], spans: &[DaemonSpan]) -> Vec<f64> {
    let roots: HashMap<u64, f64> = spans
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| (s.trace, s.dur_ms))
        .collect();
    client
        .iter()
        .filter_map(|c| roots.get(&c.trace).map(|root| c.dur_ms - root))
        .collect()
}
