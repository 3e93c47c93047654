//! The per-file lint pipeline and workspace walker.
//!
//! Pipeline per file: lex → strip `#[cfg(test)]` ranges → run the lints that apply
//! to this path → honour `// refloat-analysis: allow(<lint>)` suppressions →
//! collect lock-acquisition edges for the global [`crate::lock_order`] check.
//!
//! ## Path scoping
//!
//! * `wall-clock-in-deterministic-path` runs everywhere except
//!   `crates/telemetry/src/clock.rs` — the **one** file allowed to read host time
//!   (`WallClock` wraps it behind the `Clock` trait everything else injects).
//! * `naive-float-accumulation` runs everywhere except
//!   `crates/sparse/src/vecops.rs`, where the pairwise/Kahan reductions live.
//! * `panic-in-service-path` runs only in the runtime/telemetry service modules
//!   ([`SERVICE_PATHS`]): a panic there takes down a worker serving other tenants'
//!   jobs, while a panic in e.g. a bench bin only kills the bench.
//! * `unordered-iteration` and `lock-order` run everywhere.
//!
//! ## Suppressions
//!
//! `// refloat-analysis: allow(lint-a, lint-b) — justification` suppresses those
//! lints from the comment's line through the *next line that has code on it* (so a
//! multi-line justification block above the flagged statement works).  Vendor shims
//! (`crates/vendor/`) and test code (`#[cfg(test)]` items, `tests/` dirs) are out
//! of scope entirely: the lints defend the *shipped* deterministic service path.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use crate::diag::{Diagnostic, Lint, Severity};
use crate::lexer::{lex, Lexed};
use crate::lints;
use crate::lock_order::{self, LockEdge};

/// Files exempt from the wall-clock lint: the `Clock` implementation itself.
pub const WALL_CLOCK_EXEMPT: &[&str] = &["crates/telemetry/src/clock.rs"];

/// Files exempt from the float-accumulation lint: the sanctioned reductions.
pub const FLOAT_ACCUM_EXEMPT: &[&str] = &["crates/sparse/src/vecops.rs"];

/// Service modules where a panic degrades jobs for every tenant — the scope of the
/// `panic-in-service-path` lint.
pub const SERVICE_PATHS: &[&str] = &[
    "crates/runtime/src/worker.rs",
    "crates/runtime/src/pipeline.rs",
    "crates/runtime/src/client.rs",
    "crates/runtime/src/sequence.rs",
    "crates/runtime/src/node.rs",
    "crates/runtime/src/health.rs",
    "crates/reram-sim/src/fault.rs",
    "crates/runtime/src/cluster/mod.rs",
    "crates/runtime/src/cluster/router.rs",
    "crates/runtime/src/cluster/admission.rs",
    "crates/runtime/src/sched.rs",
    "crates/runtime/src/cache.rs",
    "crates/runtime/src/decision.rs",
    "crates/runtime/src/single_flight.rs",
    "crates/runtime/src/telemetry.rs",
    "crates/runtime/src/accel.rs",
    "crates/runtime/src/plan.rs",
    "crates/runtime/src/job.rs",
    "crates/runtime/src/trace_job.rs",
    "crates/telemetry/src/trace.rs",
    "crates/telemetry/src/metrics.rs",
];

/// The result of scanning one file.
#[derive(Debug, Default)]
pub struct FileScan {
    /// Surviving (non-test, non-suppressed) findings.
    pub diagnostics: Vec<Diagnostic>,
    /// Surviving lock-acquisition edges, for the global graph.
    pub lock_edges: Vec<LockEdge>,
}

/// One parsed `allow(...)` suppression and the line range it covers.
#[derive(Debug)]
struct Allow {
    lints: Vec<Lint>,
    start: u32,
    end: u32,
}

/// Runs the full per-file pipeline on `src`, which lives at repo-relative path
/// `rel` (forward slashes).  `is_crate_root` additionally checks the
/// `forbid-unsafe-missing` lint.
pub fn scan_file(rel: &str, src: &str, is_crate_root: bool) -> FileScan {
    let lexed = lex(src);
    let excluded = cfg_test_ranges(&lexed);
    let allows = parse_allows(&lexed);

    let mut diags = Vec::new();
    if !WALL_CLOCK_EXEMPT.contains(&rel) {
        diags.extend(lints::wall_clock(rel, &lexed));
    }
    diags.extend(lints::unordered_iteration(rel, &lexed));
    if !FLOAT_ACCUM_EXEMPT.contains(&rel) {
        diags.extend(lints::float_accumulation(rel, &lexed));
    }
    if SERVICE_PATHS.contains(&rel) {
        diags.extend(lints::panic_in_service_path(rel, &lexed));
    }
    if is_crate_root && !has_forbid_unsafe(&lexed) {
        diags.push(Diagnostic {
            file: rel.to_string(),
            line: 1,
            span: "#![forbid(unsafe_code)]".to_string(),
            lint: Lint::ForbidUnsafeMissing,
            severity: Severity::Error,
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            suggestion: "every non-vendor crate in this workspace forbids unsafe".to_string(),
        });
    }
    let mut edges = lock_order::scan(rel, &lexed);

    let in_tests = |line: u32| excluded.iter().any(|(s, e)| line >= *s && line <= *e);
    diags.retain(|d| !in_tests(d.line) && !suppressed(&allows, d.lint, d.line));
    edges.retain(|e| !in_tests(e.line) && !suppressed(&allows, Lint::LockOrder, e.line));

    FileScan {
        diagnostics: diags,
        lock_edges: edges,
    }
}

fn suppressed(allows: &[Allow], lint: Lint, line: u32) -> bool {
    allows
        .iter()
        .any(|a| a.lints.contains(&lint) && line >= a.start && line <= a.end)
}

/// Parses `// refloat-analysis: allow(a, b)` comments.  A comment covers its own
/// line through the first subsequent line that carries a token, so a multi-line
/// justification block above the flagged statement suppresses that statement.
fn parse_allows(lexed: &Lexed) -> Vec<Allow> {
    let token_lines: BTreeSet<u32> = lexed.tokens.iter().map(|t| t.line).collect();
    let mut out = Vec::new();
    for c in &lexed.comments {
        let Some(after_marker) = c.text.split("refloat-analysis:").nth(1) else {
            continue;
        };
        let Some(args) = after_marker
            .split("allow(")
            .nth(1)
            .and_then(|r| r.split(')').next())
        else {
            continue;
        };
        let lints: Vec<Lint> = args
            .split(',')
            .filter_map(|id| Lint::from_id(id.trim()))
            .collect();
        if lints.is_empty() {
            continue;
        }
        let end = token_lines
            .range(c.line..)
            .next()
            .copied()
            .unwrap_or(c.line);
        out.push(Allow {
            lints,
            start: c.line,
            end,
        });
    }
    out
}

/// Whether the token stream contains `#![forbid(unsafe_code)]`.
fn has_forbid_unsafe(lexed: &Lexed) -> bool {
    let t = &lexed.tokens;
    (0..t.len()).any(|i| {
        t[i].is_punct('#')
            && t.get(i + 1).is_some_and(|a| a.is_punct('!'))
            && t.get(i + 2).is_some_and(|a| a.is_punct('['))
            && t.get(i + 3).is_some_and(|a| a.is_ident("forbid"))
            && t.get(i + 4).is_some_and(|a| a.is_punct('('))
            && t.get(i + 5).is_some_and(|a| a.is_ident("unsafe_code"))
            && t.get(i + 6).is_some_and(|a| a.is_punct(')'))
            && t.get(i + 7).is_some_and(|a| a.is_punct(']'))
    })
}

/// Line ranges covered by `#[cfg(test)]` items (attribute line through the closing
/// brace of the annotated item, or its terminating `;`).
fn cfg_test_ranges(lexed: &Lexed) -> Vec<(u32, u32)> {
    let t = &lexed.tokens;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 6 < t.len() {
        let is_cfg_test = t[i].is_punct('#')
            && t[i + 1].is_punct('[')
            && t[i + 2].is_ident("cfg")
            && t[i + 3].is_punct('(')
            && t[i + 4].is_ident("test")
            && t[i + 5].is_punct(')')
            && t[i + 6].is_punct(']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let start_line = t[i].line;
        let mut j = i + 7;
        // Skip any further attributes between the cfg and the item.
        while j + 1 < t.len() && t[j].is_punct('#') && t[j + 1].is_punct('[') {
            let mut bracket = 0i32;
            j += 1;
            while j < t.len() {
                if t[j].is_punct('[') {
                    bracket += 1;
                } else if t[j].is_punct(']') {
                    bracket -= 1;
                    if bracket == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        // The item ends at its matching `}` (mod/fn/impl) or at `;` (use/static).
        let mut end_line = start_line;
        while j < t.len() {
            if t[j].is_punct(';') {
                end_line = t[j].line;
                break;
            }
            if t[j].is_punct('{') {
                let mut brace = 0i32;
                while j < t.len() {
                    if t[j].is_punct('{') {
                        brace += 1;
                    } else if t[j].is_punct('}') {
                        brace -= 1;
                        if brace == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                end_line = t.get(j).map(|tok| tok.line).unwrap_or(start_line);
                break;
            }
            j += 1;
        }
        out.push((start_line, end_line));
        i = j.max(i + 7);
    }
    out
}

/// All analyzable source files: `src/**/*.rs` plus `crates/<name>/src/**/*.rs` for
/// every non-vendor crate, as sorted `(repo-relative, absolute)` pairs.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    collect_rs(&root.join("src"), "src", &mut out)?;
    let crates_dir = root.join("crates");
    let mut names: Vec<String> = Vec::new();
    for entry in fs::read_dir(&crates_dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name != "vendor" && entry.file_type()?.is_dir() {
            names.push(name);
        }
    }
    names.sort();
    for name in names {
        collect_rs(
            &crates_dir.join(&name).join("src"),
            &format!("crates/{name}/src"),
            &mut out,
        )?;
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

fn collect_rs(dir: &Path, rel: &str, out: &mut Vec<(String, PathBuf)>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let name = entry.file_name().to_string_lossy().into_owned();
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, &format!("{rel}/{name}"), out)?;
        } else if name.ends_with(".rs") {
            out.push((format!("{rel}/{name}"), path));
        }
    }
    Ok(())
}

/// The crate roots the `forbid-unsafe-missing` lint applies to: the umbrella's
/// `src/lib.rs` plus every non-vendor `crates/<name>/src/lib.rs`.
pub fn crate_roots(root: &Path) -> std::io::Result<BTreeSet<String>> {
    let mut out = BTreeSet::new();
    if root.join("src/lib.rs").is_file() {
        out.insert("src/lib.rs".to_string());
    }
    for entry in fs::read_dir(root.join("crates"))? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name != "vendor" && entry.path().join("src/lib.rs").is_file() {
            out.insert(format!("crates/{name}/src/lib.rs"));
        }
    }
    Ok(out)
}

/// Reads the declared global lock order from `lock_order.toml` at the workspace
/// root (`order = ["counters", …]`).  A missing file means no declared order —
/// cycle detection still runs.
pub fn load_lock_order(root: &Path) -> Result<Vec<String>, String> {
    let path = root.join("lock_order.toml");
    if !path.is_file() {
        return Ok(Vec::new());
    }
    let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = crate::toml::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    match doc.root.get("order") {
        Some(crate::toml::Value::StrArray(names)) => Ok(names.clone()),
        Some(_) => Err(format!(
            "{}: `order` must be an array of strings",
            path.display()
        )),
        None => Err(format!("{}: missing `order = [...]`", path.display())),
    }
}

/// A full workspace analysis.
#[derive(Debug)]
pub struct Analysis {
    /// All surviving findings, sorted by `(file, line, lint)`.
    pub diagnostics: Vec<Diagnostic>,
    /// How many files were scanned.
    pub files_scanned: usize,
}

/// Scans every workspace file and runs the global lock-order check.
pub fn analyze_workspace(root: &Path) -> Result<Analysis, String> {
    let declared = load_lock_order(root)?;
    let files = workspace_files(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let roots = crate_roots(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut diagnostics = Vec::new();
    let mut edges = Vec::new();
    for (rel, path) in &files {
        let src =
            fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let scan = scan_file(rel, &src, roots.contains(rel));
        diagnostics.extend(scan.diagnostics);
        edges.extend(scan.lock_edges);
    }
    diagnostics.extend(lock_order::check(&edges, &declared));
    diagnostics.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.lint.id(), a.severity).cmp(&(
            b.file.as_str(),
            b.line,
            b.lint.id(),
            b.severity,
        ))
    });
    Ok(Analysis {
        files_scanned: files.len(),
        diagnostics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_items_are_excluded() {
        let src = "fn live() { let t = Instant::now(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { let t = Instant::now(); }\n}\n";
        let scan = scan_file("crates/runtime/src/x.rs", src, false);
        assert_eq!(scan.diagnostics.len(), 1, "{:?}", scan.diagnostics);
        assert_eq!(scan.diagnostics[0].line, 1);
    }

    #[test]
    fn cfg_not_test_is_not_excluded() {
        let src = "#[cfg(not(test))]\nfn live() { let t = Instant::now(); }\n";
        let scan = scan_file("crates/runtime/src/x.rs", src, false);
        assert_eq!(scan.diagnostics.len(), 1, "{:?}", scan.diagnostics);
    }

    #[test]
    fn allow_comment_covers_through_next_code_line() {
        let src = "// refloat-analysis: allow(wall-clock-in-deterministic-path) — this\n\
                   // timeout is caller-facing wall time by definition.\n\
                   let deadline = Instant::now();\n\
                   let second = Instant::now();\n";
        let scan = scan_file("crates/runtime/src/x.rs", src, false);
        assert_eq!(scan.diagnostics.len(), 1, "{:?}", scan.diagnostics);
        assert_eq!(
            scan.diagnostics[0].line, 4,
            "only the uncovered second read fires"
        );
    }

    #[test]
    fn allow_only_suppresses_the_named_lint() {
        let src = "// refloat-analysis: allow(unordered-iteration)\nlet t = Instant::now();\n";
        let scan = scan_file("crates/runtime/src/x.rs", src, false);
        assert_eq!(scan.diagnostics.len(), 1, "{:?}", scan.diagnostics);
    }

    #[test]
    fn crate_root_without_forbid_unsafe_is_flagged() {
        let scan = scan_file("crates/x/src/lib.rs", "//! docs\npub fn f() {}\n", true);
        assert_eq!(scan.diagnostics.len(), 1);
        assert_eq!(scan.diagnostics[0].lint, Lint::ForbidUnsafeMissing);
        let ok = scan_file(
            "crates/x/src/lib.rs",
            "//! docs\n#![forbid(unsafe_code)]\npub fn f() {}\n",
            true,
        );
        assert!(ok.diagnostics.is_empty(), "{:?}", ok.diagnostics);
    }

    #[test]
    fn panic_lint_fires_only_in_service_paths() {
        let src = "fn f(r: Result<u32, ()>) -> u32 { r.unwrap() }\n";
        assert!(scan_file("crates/core/src/x.rs", src, false)
            .diagnostics
            .is_empty());
        let in_service = scan_file("crates/runtime/src/worker.rs", src, false);
        assert_eq!(
            in_service.diagnostics.len(),
            1,
            "{:?}",
            in_service.diagnostics
        );
        assert_eq!(in_service.diagnostics[0].lint, Lint::PanicInServicePath);
    }

    #[test]
    fn seeded_wall_clock_violation_in_worker_is_reported_with_file_and_line() {
        let src = "use std::time::Instant;\nfn tick() {\n    let t0 = Instant::now();\n}\n";
        let scan = scan_file("crates/runtime/src/worker.rs", src, false);
        assert_eq!(scan.diagnostics.len(), 1, "{:?}", scan.diagnostics);
        let d = &scan.diagnostics[0];
        assert_eq!(
            (d.file.as_str(), d.line, d.lint),
            (
                "crates/runtime/src/worker.rs",
                3,
                Lint::WallClockInDeterministicPath
            )
        );
    }
}
