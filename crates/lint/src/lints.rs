//! The lint passes. Each is a pure function from [`Workspace`] to
//! findings; waiver filtering happens centrally in [`crate::run`].

use crate::manifest;
use crate::source::{FileKind, SourceFile, Workspace};
use crate::Finding;

/// Workspace-relative path of the fingerprint exemption table.
pub const EXEMPTIONS_PATH: &str = "crates/lint/fingerprint_exemptions.txt";

/// The config structs whose every field must join the result
/// fingerprint (or be exempted in writing).
const FINGERPRINTED_STRUCTS: &[&str] = &["EngineConfig", "SolverOptions", "MapperConfig"];

/// Where the fingerprint lives.
const FINGERPRINT_FILE: &str = "crates/engine/src/fingerprint.rs";

/// Indices of a file's non-comment tokens, in order.
fn code_indices(file: &SourceFile) -> Vec<usize> {
    file.tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .map(|(i, _)| i)
        .collect()
}

/// Is this a file whose *runtime* code the discipline lints police?
fn is_runtime(file: &SourceFile) -> bool {
    matches!(file.kind, FileKind::Lib | FileKind::Bin)
}

/// **lock-discipline** — `.lock().unwrap()` / `.lock().expect(…)` turn
/// one panicking thread into a permanently poisoned mutex; every lock
/// site must recover via `PoisonError::into_inner` instead.
pub fn lock_discipline(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in ws.files.iter().filter(|f| is_runtime(f)) {
        let code = code_indices(file);
        for w in code.windows(7) {
            let t = |k: usize| file.tokens[w[k]].text(&file.text);
            let consumer = t(5);
            let is_violation = t(0) == "."
                && t(1) == "lock"
                && t(2) == "("
                && t(3) == ")"
                && t(4) == "."
                && (consumer == "unwrap" || consumer == "expect")
                && t(6) == "(";
            if !is_violation {
                continue;
            }
            let line = file.tokens[w[5]].line;
            if file.in_test_region(line) {
                continue;
            }
            out.push(Finding {
                lint: "lock-discipline",
                file: file.rel_path.clone(),
                line,
                message: format!(
                    ".lock().{consumer}(…) propagates poison; recover it with \
                     `.lock().unwrap_or_else(PoisonError::into_inner)` (or a helper wrapping it)"
                ),
            });
        }
        // `.expect("… poisoned")` after wait_timeout/into_inner/etc. —
        // anything that *names* poison is propagating it instead of
        // recovering.
        for ci in 0..code.len().saturating_sub(3) {
            let t = |k: usize| file.tokens[code[ci + k]].text(&file.text);
            let is_violation = t(0) == "."
                && t(1) == "expect"
                && t(2) == "("
                && file.tokens[code[ci + 3]].kind == crate::lexer::TokenKind::Str
                && t(3).to_ascii_lowercase().contains("poison");
            if !is_violation {
                continue;
            }
            // `.lock().expect("… poisoned")` is already reported above.
            let after_lock = ci >= 3
                && file.tokens[code[ci - 1]].text(&file.text) == ")"
                && file.tokens[code[ci - 2]].text(&file.text) == "("
                && file.tokens[code[ci - 3]].text(&file.text) == "lock";
            if after_lock {
                continue;
            }
            let line = file.tokens[code[ci + 1]].line;
            if file.in_test_region(line) {
                continue;
            }
            out.push(Finding {
                lint: "lock-discipline",
                file: file.rel_path.clone(),
                line,
                message: ".expect(\"… poison …\") propagates poison; recover it with \
                          `unwrap_or_else(PoisonError::into_inner)` instead"
                    .to_string(),
            });
        }
    }
    out
}

/// **log-discipline** — `eprintln!`/`println!` bypass the `obs` logger
/// (filtering, targets, capture in tests). Library code must use
/// `obs::log!`; bins keep `println!` because stdout *is* their result
/// contract, but stderr diagnostics in bins need a waiver.
pub fn log_discipline(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in ws.files.iter().filter(|f| is_runtime(f)) {
        if file.crate_name == "obs" {
            continue; // the logger's own backend writes to stderr
        }
        let code = code_indices(file);
        for w in code.windows(2) {
            let name = file.tokens[w[0]].text(&file.text);
            if !(name == "eprintln" || name == "println")
                || file.tokens[w[1]].text(&file.text) != "!"
            {
                continue;
            }
            let line = file.tokens[w[0]].line;
            if file.in_test_region(line) {
                continue;
            }
            if file.kind == FileKind::Bin && name == "println" {
                continue; // stdout is the user-facing result channel
            }
            let advice = if file.kind == FileKind::Bin {
                "route diagnostics through obs::log! (error!/warn!/info!), or waive where \
                 stderr is the documented contract"
            } else {
                "library code logs through obs::log! so filtering and capture apply"
            };
            out.push(Finding {
                lint: "log-discipline",
                file: file.rel_path.clone(),
                line,
                message: format!("{name}! outside the logger: {advice}"),
            });
        }
    }
    out
}

/// Extracts `(field, line)` pairs from `struct <name> { … }` in `file`,
/// or `None` when the struct isn't defined there (or is tuple/unit).
fn struct_fields(file: &SourceFile, name: &str) -> Option<Vec<(String, u32)>> {
    let code = code_indices(file);
    let t = |k: usize| file.tokens[code[k]].text(&file.text);
    let def = (0..code.len().saturating_sub(1)).find(|&i| t(i) == "struct" && t(i + 1) == name)?;
    // Walk to the opening brace; `;` or `(` first means unit/tuple.
    let mut i = def + 2;
    while i < code.len() && !matches!(t(i), "{" | ";" | "(") {
        i += 1;
    }
    if i >= code.len() || t(i) != "{" {
        return None;
    }
    let mut fields = Vec::new();
    let mut depth = 1i32;
    let mut j = i + 1;
    while j < code.len() && depth > 0 {
        match t(j) {
            "{" => depth += 1,
            "}" => depth -= 1,
            _ => {
                // A field is `ident :` (not `::`) at depth 1, preceded
                // by `{`, `,`, `pub`, `)` (pub(crate)), or `]` (attr).
                let is_field = depth == 1
                    && file.tokens[code[j]].kind == crate::lexer::TokenKind::Ident
                    && j + 2 < code.len()
                    && t(j + 1) == ":"
                    && t(j + 2) != ":"
                    && matches!(t(j - 1), "{" | "," | "pub" | ")" | "]");
                if is_field {
                    fields.push((t(j).to_string(), file.tokens[code[j]].line));
                }
            }
        }
        j += 1;
    }
    Some(fields)
}

/// **fingerprint-completeness** — a config knob that changes results
/// but never joins the fingerprint silently corrupts the persistent
/// cache. Every field of the tracked structs must be referenced in
/// `fingerprint.rs` or carry a written exemption.
pub fn fingerprint_completeness(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    // Exemption table: `Struct.field -- reason` per line.
    let mut exempt = Vec::new();
    if let Some(text) = &ws.exemptions_text {
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match line.split_once(" -- ") {
                Some((key, reason)) if !reason.trim().is_empty() => {
                    exempt.push(key.trim().to_string());
                }
                _ => out.push(Finding {
                    lint: "fingerprint-completeness",
                    file: EXEMPTIONS_PATH.to_string(),
                    line: (idx + 1) as u32,
                    message: "malformed exemption; the form is `Struct.field -- <reason>`"
                        .to_string(),
                }),
            }
        }
    }
    let fingerprint_idents: Option<std::collections::HashSet<&str>> =
        ws.file(FINGERPRINT_FILE).map(|f| {
            f.tokens
                .iter()
                .filter(|t| {
                    t.kind == crate::lexer::TokenKind::Ident
                        && !t.is_comment()
                        && !f.in_test_region(t.line)
                })
                .map(|t| t.text(&f.text))
                .collect()
        });
    for file in &ws.files {
        for &name in FINGERPRINTED_STRUCTS {
            let Some(fields) = struct_fields(file, name) else {
                continue;
            };
            let Some(idents) = &fingerprint_idents else {
                out.push(Finding {
                    lint: "fingerprint-completeness",
                    file: file.rel_path.clone(),
                    line: 1,
                    message: format!(
                        "{name} is tracked but {FINGERPRINT_FILE} is missing from the workspace"
                    ),
                });
                continue;
            };
            for (field, line) in fields {
                if idents.contains(field.as_str())
                    || exempt.iter().any(|e| e == &format!("{name}.{field}"))
                {
                    continue;
                }
                out.push(Finding {
                    lint: "fingerprint-completeness",
                    file: file.rel_path.clone(),
                    line,
                    message: format!(
                        "{name}.{field} joins neither the fingerprint ({FINGERPRINT_FILE}) nor \
                         the exemption table ({EXEMPTIONS_PATH}); fingerprint it or record why \
                         it is result-neutral"
                    ),
                });
            }
        }
    }
    out
}

/// **format-version** — the persist/wire encoders' code tokens are
/// hash-pinned to `FORMAT_VERSION` in a committed manifest; a
/// functional edit without a version bump (or a bump without a manifest
/// regeneration) is an error. See [`crate::manifest`].
pub fn format_version(ws: &Workspace) -> Vec<Finding> {
    let finding = |file: &str, message: String| Finding {
        lint: "format-version",
        file: file.to_string(),
        line: 1,
        message,
    };
    let computed = match manifest::compute(ws) {
        Ok(Some(m)) => m,
        Ok(None) => return Vec::new(), // no pinned files in this workspace
        Err(e) => return vec![finding(manifest::HASHED_FILES[0], e)],
    };
    let Some(text) = &ws.manifest_text else {
        return vec![finding(
            manifest::MANIFEST_PATH,
            "format manifest missing; run `cargo run -p satmapit-lint -- --update-manifest` \
             and commit it"
                .to_string(),
        )];
    };
    let committed = match manifest::Manifest::parse(text) {
        Ok(m) => m,
        Err(e) => {
            return vec![finding(
                manifest::MANIFEST_PATH,
                format!("unparseable: {e}"),
            )]
        }
    };
    if committed == computed {
        return Vec::new();
    }
    if committed.version == computed.version {
        let changed: Vec<&str> = computed
            .files
            .iter()
            .filter(|(path, hash)| {
                committed
                    .files
                    .iter()
                    .find(|(p, _)| p == path)
                    .is_none_or(|(_, h)| h != hash)
            })
            .map(|(path, _)| path.as_str())
            .collect();
        vec![finding(
            manifest::MANIFEST_PATH,
            format!(
                "encoder source changed ({}) without a FORMAT_VERSION bump; bump the version \
                 in {} and regenerate with `--update-manifest`",
                changed.join(", "),
                manifest::HASHED_FILES[0],
            ),
        )]
    } else {
        vec![finding(
            manifest::MANIFEST_PATH,
            format!(
                "FORMAT_VERSION is now {} but the manifest records {}; regenerate with \
                 `cargo run -p satmapit-lint -- --update-manifest` and commit it",
                computed.version, committed.version,
            ),
        )]
    }
}

/// **unsafe-gate** — every crate root (lib and bin) keeps
/// `#![forbid(unsafe_code)]`, so an `unsafe` block can only arrive with
/// a visible gate removal in the diff.
pub fn unsafe_gate(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in &ws.files {
        let p = file.rel_path.as_str();
        let is_root = p.ends_with("src/lib.rs")
            || p.ends_with("src/main.rs")
            || ((p.contains("/src/bin/") || p.starts_with("src/bin/")) && p.ends_with(".rs"));
        if !is_root {
            continue;
        }
        let code = code_indices(file);
        let t = |k: usize| file.tokens[code[k]].text(&file.text);
        let has_gate = (0..code.len().saturating_sub(7)).any(|i| {
            t(i) == "#"
                && t(i + 1) == "!"
                && t(i + 2) == "["
                && t(i + 3) == "forbid"
                && t(i + 4) == "("
                && t(i + 5) == "unsafe_code"
                && t(i + 6) == ")"
                && t(i + 7) == "]"
        });
        if !has_gate {
            out.push(Finding {
                lint: "unsafe-gate",
                file: file.rel_path.clone(),
                line: 1,
                message: "crate root lacks #![forbid(unsafe_code)]".to_string(),
            });
        }
    }
    out
}

/// The atomic `Ordering` variants (so `cmp::Ordering::Less` never
/// trips the lint).
const ATOMIC_VARIANTS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// **atomic-ordering** — memory-ordering choices are load-bearing and
/// unreviewable without a written reason. Every `Ordering::<variant>`
/// use needs an adjacent comment containing `ordering:` — trailing on
/// the same line, or above within the same statement.
pub fn atomic_ordering(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in ws.files.iter().filter(|f| is_runtime(f)) {
        let code = code_indices(file);
        for w in code.windows(4) {
            let t = |k: usize| file.tokens[w[k]].text(&file.text);
            let is_use =
                t(0) == "Ordering" && t(1) == ":" && t(2) == ":" && ATOMIC_VARIANTS.contains(&t(3));
            if !is_use {
                continue;
            }
            let line = file.tokens[w[0]].line;
            if file.in_test_region(line) {
                continue;
            }
            if justified(file, w[0], file.tokens[w[3]].line) {
                continue;
            }
            out.push(Finding {
                lint: "atomic-ordering",
                file: file.rel_path.clone(),
                line,
                message: format!(
                    "Ordering::{} without a `// ordering:` justification adjacent to the use",
                    t(3)
                ),
            });
        }
    }
    out
}

/// Does a `// ordering:` comment justify the `Ordering` token at raw
/// index `at` (whose variant ends on `end_line`)?
fn justified(file: &SourceFile, at: usize, end_line: u32) -> bool {
    let has_tag = |i: usize| file.tokens[i].text(&file.text).contains("ordering:");
    // Trailing comment on either line of the (possibly wrapped) use.
    let same_line = file.tokens.iter().enumerate().any(|(i, t)| {
        t.is_comment() && (t.line == file.tokens[at].line || t.line == end_line) && has_tag(i)
    });
    if same_line {
        return true;
    }
    // Backward scan: through the rest of the statement, then past one
    // statement boundary as long as only comments intervene.
    let mut crossed = false;
    for i in (0..at).rev() {
        let token = &file.tokens[i];
        if token.is_comment() {
            if has_tag(i) {
                return true;
            }
        } else if matches!(token.text(&file.text), ";" | "{" | "}") {
            if crossed {
                return false;
            }
            crossed = true;
        } else if crossed {
            return false;
        }
    }
    false
}
