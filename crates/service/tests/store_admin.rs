//! End-to-end tests of `bfdn-store-admin`: `migrate` validates a legacy
//! JSONL spill's revision header against the store's stamp (foreign
//! refused, matching / `null` / headerless imported, malformed lines
//! counted), a re-import supersedes into dead bytes that `compact`
//! reclaims, and `stats` / `compact` never clear a store that another
//! revision wrote, nor create one at a missing path.

use bfdn_service::exec::run_spec;
use bfdn_service::protocol::ExploreSpec;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs the admin binary; returns its stdout and stderr, panicking
/// unless it exited 0.
fn admin(args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bfdn-store-admin"))
        .args(args)
        .output()
        .expect("run bfdn-store-admin");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{args:?} failed: {stderr}");
    (stdout, stderr)
}

fn migrate(store: &Path, spill: &Path, revision: &str) -> String {
    admin(&[
        "migrate",
        "--store-dir",
        store.to_str().expect("utf-8 path"),
        "--spill",
        spill.to_str().expect("utf-8 path"),
        "--revision",
        revision,
    ])
    .0
}

fn stats(store: &Path) -> String {
    admin(&["stats", "--store-dir", store.to_str().expect("utf-8 path")]).0
}

/// `count` cache-stable payload lines, one per seed.
fn payload_lines(count: u64) -> String {
    (0..count)
        .map(|seed| {
            let (result, _) =
                run_spec(&ExploreSpec::new("bfdn", "comb", 100, 4, seed)).expect("run spec");
            format!("{}\n", result.payload_json())
        })
        .collect()
}

/// The header line a daemon wrote at the top of its spill.
fn header(revision: Option<&str>) -> String {
    match revision {
        Some(rev) => format!("{{\"spill\":\"bfdn-result-cache\",\"revision\":\"{rev}\"}}\n"),
        None => "{\"spill\":\"bfdn-result-cache\",\"revision\":null}\n".to_string(),
    }
}

/// A fresh scratch directory unique to one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bfdn_store_admin_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn spill_from_a_different_revision_is_refused() {
    let dir = scratch("revision");
    let payloads = payload_lines(3);
    let a = "a".repeat(40);
    let b = "b".repeat(40);
    let spill = dir.join("spill.jsonl");

    // Foreign revision: every entry is refused.
    std::fs::write(&spill, header(Some(&a)) + &payloads).unwrap();
    let out = migrate(&dir.join("foreign"), &spill, &b);
    assert!(
        out.contains("0 imported, 3 refused (revision mismatch), 0 malformed"),
        "{out}"
    );

    // Matching revision: everything imports.
    let out = migrate(&dir.join("matching"), &spill, &a);
    assert!(out.contains("3 imported, 0 refused, 0 malformed"), "{out}");

    // An unknown (`null`) header revision is accepted by any store.
    std::fs::write(&spill, header(None) + &payloads).unwrap();
    let out = migrate(&dir.join("null"), &spill, &b);
    assert!(out.contains("3 imported, 0 refused, 0 malformed"), "{out}");

    // A headerless legacy spill imports too.
    std::fs::write(&spill, &payloads).unwrap();
    let out = migrate(&dir.join("headerless"), &spill, &b);
    assert!(out.contains("3 imported, 0 refused, 0 malformed"), "{out}");

    // A torn line is counted, not fatal: the rest still imports.
    std::fs::write(&spill, header(Some(&a)) + "{\"broken\":\n" + &payloads).unwrap();
    let out = migrate(&dir.join("torn"), &spill, &a);
    assert!(out.contains("3 imported, 0 refused, 1 malformed"), "{out}");
    assert!(stats(&dir.join("torn")).contains("records=3 "));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn migrating_a_foreign_revision_spill_into_a_store_refuses_it() {
    let dir = scratch("migrate");
    let a = "a".repeat(40);
    let spill = dir.join("spill.jsonl");
    std::fs::write(&spill, header(Some(&a)) + &payload_lines(3)).unwrap();

    // Foreign revision: the store stays empty.
    let foreign = dir.join("store-b");
    migrate(&foreign, &spill, &"b".repeat(40));
    assert!(stats(&foreign).contains("records=0 "));

    // Matching revision: everything lands, and a second import only
    // supersedes (dead bytes for compaction, not duplicates).
    let matching = dir.join("store-a");
    migrate(&matching, &spill, &a);
    migrate(&matching, &spill, &a);
    let before = stats(&matching);
    assert!(before.contains("records=3 "), "{before}");
    assert!(
        !before.contains("dead_bytes=0 "),
        "re-import leaves dead bytes: {before}"
    );
    let (out, _) = admin(&["compact", "--store-dir", matching.to_str().unwrap()]);
    assert!(out.contains("3 live records"), "{out}");
    let after = stats(&matching);
    assert!(after.contains("records=3 "), "{after}");
    assert!(after.contains("dead_bytes=0 "), "{after}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_and_compact_never_clear_a_store_from_another_revision() {
    let dir = scratch("foreign_stamp");
    let store = dir.join("store");
    let spill = dir.join("spill.jsonl");
    std::fs::write(&spill, payload_lines(1)).unwrap();
    // Stamp the store with a revision no checkout can have; `stats` and
    // `compact` then run from inside this checkout, whose own revision
    // differs.
    migrate(&store, &spill, "rev-a");

    let (out, err) = admin(&["stats", "--store-dir", store.to_str().unwrap()]);
    assert!(out.contains("records=1 "), "{out}");
    assert!(!err.contains("refused"), "{err}");
    let (out, err) = admin(&["compact", "--store-dir", store.to_str().unwrap()]);
    assert!(out.contains("1 live records"), "{out}");
    assert!(!err.contains("refused"), "{err}");
    assert!(stats(&store).contains("records=1 "));
    let meta = std::fs::read_to_string(store.join("meta.json")).expect("meta");
    assert!(
        meta.contains("\"revision\":\"rev-a\""),
        "stamp kept: {meta}"
    );

    // A missing directory is an error, not a new unstamped store.
    let missing = dir.join("no-such-store");
    let out = Command::new(env!("CARGO_BIN_EXE_bfdn-store-admin"))
        .args(["stats", "--store-dir", missing.to_str().unwrap()])
        .output()
        .expect("run bfdn-store-admin");
    assert!(!out.status.success());
    assert!(!missing.exists(), "stats created {}", missing.display());

    let _ = std::fs::remove_dir_all(&dir);
}
