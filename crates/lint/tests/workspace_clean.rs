//! The cargo-test face of the linter: `cargo test -p satmapit-lint`
//! fails whenever the real workspace has an unwaived finding, so the
//! invariants hold even for contributors who never run the binary.
//!
//! A second test seeds violations into copies of the real files and
//! checks the lints still fire there — guarding against the silent
//! failure mode where a lint goes blind (bad classification, an
//! over-broad exemption) while the clean-tree test keeps passing.

use satmapit_lint::source::{SourceFile, Workspace};
use satmapit_lint::{run, Finding};
use std::path::Path;

fn workspace_root() -> &'static Path {
    // crates/lint → crates → repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate lives two levels under the workspace root")
}

#[test]
fn the_workspace_is_lint_clean() {
    let ws = Workspace::load(workspace_root()).expect("workspace must be readable");
    assert!(
        ws.files.len() > 30,
        "suspiciously few files collected ({}); did the walker break?",
        ws.files.len()
    );
    let findings = run(&ws);
    assert!(
        findings.is_empty(),
        "the tree has unwaived lint findings:\n{}",
        findings
            .iter()
            .map(Finding::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn seeded_violations_in_real_files_still_fire() {
    // Append a violation of each discipline lint to a *real* runtime
    // file and re-lint: the finding must appear in that file.
    let root = workspace_root();
    let seeds: &[(&str, &str, &str)] = &[
        (
            "crates/engine/src/batch.rs",
            "fn _seeded(m: &std::sync::Mutex<u32>) { let _ = m.lock().unwrap(); }\n",
            "lock-discipline",
        ),
        (
            "crates/engine/src/batch.rs",
            "fn _seeded() { eprintln!(\"diag\"); }\n",
            "log-discipline",
        ),
        (
            "crates/service/src/server.rs",
            "fn _seeded(c: &std::sync::atomic::AtomicU64) -> u64 {\n    \
                 c.load(std::sync::atomic::Ordering::SeqCst)\n\
             }\n",
            "atomic-ordering",
        ),
        (
            "crates/engine/src/persist.rs",
            "fn _seeded() {}\n",
            "format-version",
        ),
        // The transport crate is inside the lint perimeter: a bare
        // ordering in the event-loop plumbing fires like anywhere else.
        (
            "crates/net/src/poller.rs",
            "fn _seeded(c: &std::sync::atomic::AtomicU64) -> u64 {\n    \
                 c.load(std::sync::atomic::Ordering::Acquire)\n\
             }\n",
            "atomic-ordering",
        ),
        (
            "crates/net/src/ring.rs",
            "fn _seeded() { eprintln!(\"diag\"); }\n",
            "log-discipline",
        ),
        // The morph backend crate sits inside the lint perimeter like
        // every other runtime crate: the ordering discipline must fire in
        // its search core too.
        (
            "crates/morph/src/search.rs",
            "fn _seeded(c: &std::sync::atomic::AtomicU64) -> u64 {\n    \
                 c.load(std::sync::atomic::Ordering::Relaxed)\n\
             }\n",
            "atomic-ordering",
        ),
        (
            "crates/morph/src/lib.rs",
            "fn _seeded() { eprintln!(\"diag\"); }\n",
            "log-discipline",
        ),
    ];
    for &(rel_path, seed, lint) in seeds {
        let mut ws = Workspace::load(root).expect("workspace must be readable");
        let file = ws
            .file(rel_path)
            .unwrap_or_else(|| panic!("{rel_path} missing"));
        let seeded = format!("{}\n{seed}", file.text);
        ws.files.retain(|f| f.rel_path != rel_path);
        ws.files.push(SourceFile::from_source(rel_path, seeded));
        let fired = run(&ws)
            .into_iter()
            .any(|f| f.lint == lint && (f.file == rel_path || lint == "format-version"));
        assert!(
            fired,
            "seeding {rel_path} with {seed:?} did not fire {lint}"
        );
    }

    // Dropping the unsafe gate from a real crate root must fire too.
    let mut ws = Workspace::load(root).expect("workspace must be readable");
    let rel_path = "crates/engine/src/lib.rs";
    let text = ws
        .file(rel_path)
        .expect("engine crate root exists")
        .text
        .replace("#![forbid(unsafe_code)]", "");
    ws.files.retain(|f| f.rel_path != rel_path);
    ws.files.push(SourceFile::from_source(rel_path, text));
    assert!(
        run(&ws)
            .iter()
            .any(|f| f.lint == "unsafe-gate" && f.file == rel_path),
        "removing the engine's unsafe gate did not fire unsafe-gate"
    );

    // The net crate cannot forbid unsafe (its sys module needs two FFI
    // calls), so it carries an explicit waiver instead; dropping that
    // waiver line must likewise fire.
    let mut ws = Workspace::load(root).expect("workspace must be readable");
    let rel_path = "crates/net/src/lib.rs";
    let text: String = ws
        .file(rel_path)
        .expect("net crate root exists")
        .text
        .lines()
        .filter(|line| !line.contains("lint: allow(unsafe-gate)"))
        .collect::<Vec<_>>()
        .join("\n");
    ws.files.retain(|f| f.rel_path != rel_path);
    ws.files.push(SourceFile::from_source(rel_path, text));
    assert!(
        run(&ws)
            .iter()
            .any(|f| f.lint == "unsafe-gate" && f.file == rel_path),
        "removing the net crate's unsafe-gate waiver did not fire unsafe-gate"
    );
}
