//! `satmapit-lint` — workspace-invariant static analysis.
//!
//! The repo's hardest regressions have been *invariant drift*, not
//! logic: a `.lock().expect(…)` that wedges the shared engine after one
//! worker panic, a config knob that silently never joins the result
//! fingerprint, a persist encoder edited without a `FORMAT_VERSION`
//! bump. This crate is a dependency-free, token-level analyzer that
//! turns those review-memory rules into named, individually-waivable
//! lints, runnable as `cargo run -p satmapit-lint -- --deny-all` and as
//! a `cargo test` harness (`tests/workspace_clean.rs`).
//!
//! A violation is suppressed in-source with
//! `// lint: allow(<name>) -- <reason>` on the flagged line or the line
//! above it; malformed waivers are themselves findings. See
//! `docs/lint.md` for each lint's rationale and the exemption process.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod lints;
pub mod manifest;
pub mod source;

use source::Workspace;

/// One lint violation, pointing at a file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The lint that fired (a name from [`LINTS`]).
    pub lint: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the violation.
    pub line: u32,
    /// What's wrong and how to fix or waive it.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// Every shipped lint, as `(name, one-line description)` — the names
/// are what waivers reference.
pub const LINTS: &[(&str, &str)] = &[
    (
        "lock-discipline",
        "no .lock().unwrap()/.lock().expect(); recover poison via PoisonError::into_inner",
    ),
    (
        "log-discipline",
        "eprintln!/println! forbidden outside crates/obs, bins, and tests; use obs::log!",
    ),
    (
        "fingerprint-completeness",
        "every EngineConfig/SolverOptions/MapperConfig field joins the result \
         fingerprint or carries a written exemption",
    ),
    (
        "format-version",
        "persist/wire encoder source is hash-pinned to FORMAT_VERSION; edits require a bump \
         plus a manifest regeneration",
    ),
    (
        "unsafe-gate",
        "every crate root keeps #![forbid(unsafe_code)]",
    ),
    (
        "atomic-ordering",
        "every atomic Ordering:: use carries an adjacent `// ordering:` justification",
    ),
    (
        "waiver-syntax",
        "waiver comments must parse as `lint: allow(<name>) -- <reason>`",
    ),
];

/// Runs every lint over the workspace, drops waived findings, and
/// returns the rest sorted by (file, line, lint).
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    findings.extend(lints::lock_discipline(ws));
    findings.extend(lints::log_discipline(ws));
    findings.extend(lints::fingerprint_completeness(ws));
    findings.extend(lints::format_version(ws));
    findings.extend(lints::unsafe_gate(ws));
    findings.extend(lints::atomic_ordering(ws));
    for file in &ws.files {
        for bad in &file.bad_waivers {
            findings.push(Finding {
                lint: "waiver-syntax",
                file: file.rel_path.clone(),
                line: bad.line,
                message: bad.problem.clone(),
            });
        }
    }
    // Waivers suppress every lint except the one policing waivers
    // themselves (a broken waiver can't vouch for itself).
    findings.retain(|f| {
        f.lint == "waiver-syntax" || !ws.file(&f.file).is_some_and(|sf| sf.waived(f.lint, f.line))
    });
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint)));
    findings
}
