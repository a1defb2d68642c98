//! `bfdn-store-admin` — offline maintenance of a `bfdn-store` result
//! store directory.
//!
//! ```text
//! bfdn-store-admin migrate --store-dir DIR --spill PATH [--revision REV]
//! bfdn-store-admin stats   --store-dir DIR
//! bfdn-store-admin compact --store-dir DIR
//! ```
//!
//! `migrate` is the one-shot import of a legacy JSONL spill, the
//! daemon's persistence format before `bfdn-store`; this binary is the
//! only code that still reads it. Every well-formed payload line becomes
//! one store record, the spill header's revision is validated against
//! the store's stamp, and the counts (imported / refused / malformed)
//! are printed. Re-running a migration supersedes the earlier import —
//! the duplicates are dead bytes that `compact` (or the daemon's
//! background compactor) reclaims.
//!
//! `migrate` opens the store stamped with `--revision`, or without it
//! with the binary's own git revision, exactly like the daemon. `stats`
//! and `compact` open an existing store unstamped, so they never clear
//! a store that another revision wrote.
//! Hand-rolled flag parsing — the workspace deliberately carries no CLI
//! dependency.

use bfdn_service::jsonval::Json;
use bfdn_service::ExploreResult;
use bfdn_store::{Store, StoreConfig};
use std::io::{self, BufRead};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Invocation {
    command: String,
    store_dir: PathBuf,
    spill: Option<PathBuf>,
    revision: Option<String>,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Invocation, String> {
    let mut it = args.into_iter();
    let command = it.next().ok_or("missing command (migrate|stats|compact)")?;
    if !matches!(command.as_str(), "migrate" | "stats" | "compact") {
        return Err(format!(
            "unknown command `{command}` (try migrate|stats|compact)"
        ));
    }
    let mut store_dir = None;
    let mut spill = None;
    let mut revision = None;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--store-dir" => store_dir = Some(PathBuf::from(value("--store-dir")?)),
            "--spill" => spill = Some(PathBuf::from(value("--spill")?)),
            "--revision" => revision = Some(value("--revision")?),
            other => {
                return Err(format!(
                    "unknown flag `{other}` (try --store-dir --spill --revision)"
                ))
            }
        }
    }
    if command != "migrate" && (spill.is_some() || revision.is_some()) {
        return Err(format!(
            "--spill and --revision apply to migrate only, not {command}"
        ));
    }
    Ok(Invocation {
        command,
        store_dir: store_dir.ok_or("--store-dir is required")?,
        spill,
        revision,
    })
}

/// What [`migrate_spill`] found in a spill file.
#[derive(Default)]
struct SpillReport {
    /// Lines successfully parsed and imported.
    loaded: usize,
    /// Lines skipped as malformed.
    malformed: usize,
    /// Entries refused because the spill's revision differs from the store's.
    refused: usize,
    /// `true` when the header named a different git revision.
    revision_mismatch: bool,
}

/// Replays a legacy JSONL spill file into `store`, one record per
/// well-formed payload line. A header line naming a revision that
/// definitely differs from the store's stamp refuses every entry;
/// headerless files and unknown revisions on either side import.
/// Malformed lines are counted, not fatal (a spill from a crashed
/// daemon may end in a torn line).
fn migrate_spill(store: &mut Store, path: &Path) -> io::Result<SpillReport> {
    let reader = io::BufReader::new(std::fs::File::open(path)?);
    let store_revision = store.revision().map(String::from);
    let mut report = SpillReport::default();
    let mut first_payload_line = true;
    let mut refuse = false;
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        if first_payload_line {
            first_payload_line = false;
            if let Some(header_revision) = parse_spill_header(&line) {
                if let (Some(ours), Some(theirs)) = (&store_revision, &header_revision) {
                    refuse = ours != theirs;
                    report.revision_mismatch = refuse;
                }
                continue;
            }
        }
        if refuse {
            report.refused += 1;
            continue;
        }
        // Parse before appending: only payloads the running build can
        // serve belong in the store.
        match ExploreResult::from_payload_json(&line) {
            Ok(result) => {
                store.put(&result.spec.canonical(), &result.payload_json())?;
                report.loaded += 1;
            }
            Err(_) => report.malformed += 1,
        }
    }
    Ok(report)
}

/// Recognizes a spill header line; returns its recorded revision
/// (`Some(None)` for an explicit `null`) or `None` when the line is not
/// a header.
fn parse_spill_header(line: &str) -> Option<Option<String>> {
    let v = Json::parse(line).ok()?;
    match v.get("spill").and_then(Json::as_str) {
        Some("bfdn-result-cache") => {
            Some(v.get("revision").and_then(Json::as_str).map(String::from))
        }
        _ => None,
    }
}

fn run(inv: Invocation) -> Result<(), String> {
    let mut config = StoreConfig::new(&inv.store_dir);
    if inv.command == "migrate" {
        config.revision = inv.revision.or_else(bfdn_obs::git_revision);
    } else if !inv.store_dir.is_dir() {
        // Opening would create an empty, unstamped store at a mistyped
        // path; a daemon adopting it later could never refuse it.
        return Err(format!("no store at {}", inv.store_dir.display()));
    }
    let (mut store, report) = Store::open(config).map_err(|e| format!("cannot open store: {e}"))?;
    if report.revision_mismatch {
        eprintln!(
            "bfdn-store-admin: store was written by another revision — {} records refused, starting fresh",
            report.refused
        );
    }
    if report.truncated_segments > 0 {
        eprintln!(
            "bfdn-store-admin: dropped {} crash-truncated segment tail(s)",
            report.truncated_segments
        );
    }
    match inv.command.as_str() {
        "migrate" => {
            let spill = inv.spill.ok_or("migrate requires --spill PATH")?;
            let report =
                migrate_spill(&mut store, &spill).map_err(|e| format!("migration failed: {e}"))?;
            store
                .persist_index()
                .map_err(|e| format!("cannot persist index: {e}"))?;
            println!(
                "migrated {}: {} imported, {} refused{}, {} malformed",
                spill.display(),
                report.loaded,
                report.refused,
                if report.revision_mismatch {
                    " (revision mismatch)"
                } else {
                    ""
                },
                report.malformed
            );
        }
        "stats" => {
            let s = store.stats();
            println!(
                "records={} segments={} on_disk_bytes={} live_bytes={} dead_bytes={} \
                 raw_payload_bytes={} stored_payload_bytes={} compression_ratio={:.3}",
                s.records,
                s.segments,
                s.on_disk_bytes,
                s.live_bytes,
                s.dead_bytes,
                s.raw_payload_bytes,
                s.stored_payload_bytes,
                s.compression_ratio()
            );
        }
        "compact" => {
            let report = store
                .compact()
                .map_err(|e| format!("compaction failed: {e}"))?;
            store
                .persist_index()
                .map_err(|e| format!("cannot persist index: {e}"))?;
            println!(
                "compacted: reclaimed {} bytes, {} -> {} segments, {} live records",
                report.reclaimed_bytes,
                report.segments_before,
                report.segments_after,
                report.live_records
            );
        }
        _ => unreachable!("validated in parse"),
    }
    Ok(())
}

fn main() -> ExitCode {
    let inv = match parse(std::env::args().skip(1)) {
        Ok(inv) => inv,
        Err(e) => {
            eprintln!("bfdn-store-admin: {e}");
            eprintln!(
                "usage: bfdn-store-admin migrate --store-dir DIR --spill PATH [--revision REV]\n       \
                 bfdn-store-admin <stats|compact> --store-dir DIR"
            );
            return ExitCode::from(2);
        }
    };
    match run(inv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bfdn-store-admin: {e}");
            ExitCode::FAILURE
        }
    }
}
