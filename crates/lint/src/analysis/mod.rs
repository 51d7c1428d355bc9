//! Call-graph reachability analyses over the workspace.
//!
//! Where [`crate::rules`] checks *sites* (a token stream in one file),
//! this module checks *paths*: it stitches every parsed library file
//! ([`crate::parser`]) into a workspace call graph ([`crate::graph`]),
//! and runs three analyses:
//!
//! * [`taint`] — `analysis/determinism-taint`: functions reachable from
//!   the artifact-writing roots (the `repro` experiment driver, serve
//!   reply encoding, conformance claim evaluation) must not reach a
//!   nondeterminism source (wall-clock reads outside the telemetry
//!   quarantine, entropy-seeded RNG, thread-identity reads, raw
//!   `thread::spawn`, hash-container iteration).
//! * [`panics`] — `analysis/panic-path`: panic sites (`panic!` family,
//!   `.unwrap()`, `.expect()`) reachable from public library APIs must
//!   carry a `// PANIC-POLICY:` marker or a waiver; findings carry the
//!   caller-to-site path.
//! * [`locks`] — `analysis/lock-order`: zero-argument `.lock()` /
//!   `.read()` / `.write()` acquisitions are labeled by owner and
//!   receiver; an inconsistent acquisition order (a cycle in the
//!   may-precede relation, intra- or inter-procedural) is reported as a
//!   potential deadlock.
//!
//! Every finding includes a concrete root → … → sink witness so waivers
//! can be reviewed against an actual path, and the rendered
//! `ANALYSIS.json` is byte-stable: file order, fn ids, BFS order, and
//! every container in between are deterministic (DESIGN.md §18).

pub mod locks;
pub mod panics;
pub mod taint;

use std::collections::BTreeMap;

use crate::graph::CallGraph;
use crate::parser::SourceFile;
use crate::report::Report;
use crate::rules::Finding;
use crate::LintConfig;

/// Rule id: nondeterminism source reachable from an artifact root.
pub const RULE_TAINT: &str = "analysis/determinism-taint";
/// Rule id: unmarked panic site reachable from a public library API.
pub const RULE_PANIC_PATH: &str = "analysis/panic-path";
/// Rule id: inconsistent lock-acquisition order (potential deadlock).
pub const RULE_LOCK_ORDER: &str = "analysis/lock-order";

/// Schema id of `ANALYSIS.json`.
pub const SCHEMA: &str = "macgame-analysis/1";

/// Selects taint-analysis roots: functions in files with a given prefix,
/// optionally narrowed to one function name.
#[derive(Debug, Clone)]
pub struct RootSpec {
    /// Workspace-relative path prefix (exact file or directory).
    pub file_prefix: String,
    /// Restrict to this function name; `None` roots every non-test fn in
    /// matching files.
    pub fn_name: Option<String>,
}

impl RootSpec {
    /// Roots every non-test fn in files matching `prefix`.
    #[must_use]
    pub fn file(prefix: &str) -> RootSpec {
        RootSpec { file_prefix: prefix.to_string(), fn_name: None }
    }

    /// Roots the fn named `name` in files matching `prefix`.
    #[must_use]
    pub fn fn_in(prefix: &str, name: &str) -> RootSpec {
        RootSpec { file_prefix: prefix.to_string(), fn_name: Some(name.to_string()) }
    }
}

/// Shared per-run context handed to the three passes.
pub(crate) struct Ctx<'a> {
    pub graph: &'a CallGraph,
    pub config: &'a LintConfig,
    /// path → parsed file, for markers and snippets.
    pub files: BTreeMap<&'a str, &'a SourceFile>,
}

impl Ctx<'_> {
    /// `line → rationale` `PANIC-POLICY` markers of the file at `path`.
    pub(crate) fn markers(&self, path: &str) -> Option<&BTreeMap<u32, String>> {
        self.files.get(path).map(|f| &f.parsed.markers)
    }

    /// Assembles a finding with its witness path. Every `path` is a file
    /// of the graph, so it has a source to take the snippet from.
    pub(crate) fn finding(
        &self,
        rule: &'static str,
        path: &str,
        line: u32,
        message: String,
        witness: Vec<String>,
    ) -> Finding {
        let snippet = self.files.get(path).map(|f| f.snippet(line)).unwrap_or_default();
        Finding {
            rule,
            path: path.to_string(),
            line,
            message,
            snippet,
            waived: false,
            reason: None,
            witness,
        }
    }
}

/// Runs all three analyses over the parsed library files. Pure: no
/// filesystem access, and the output — findings, witnesses, JSON bytes —
/// is invariant under the input order.
#[must_use]
pub fn analyze(files: &[SourceFile], config: &LintConfig) -> Report {
    let graph = CallGraph::build(files);
    let ctx = Ctx {
        graph: &graph,
        config,
        files: files.iter().map(|f| (f.path.as_str(), f)).collect(),
    };
    let (mut findings, taint_roots) = taint::run(&ctx);
    let (mut f, public_roots) = panics::run(&ctx);
    findings.append(&mut f);
    let (mut f, lock_sites) = locks::run(&ctx);
    findings.append(&mut f);
    let counters = vec![
        ("files", files.len()),
        ("functions", graph.fns.len()),
        ("edges", graph.edges),
        ("taint_roots", taint_roots),
        ("public_roots", public_roots),
        ("lock_sites", lock_sites),
    ];
    Report::new(SCHEMA, counters, true, findings)
}

/// Parses `(path, source)` pairs, for the passes' unit tests.
#[cfg(test)]
pub(crate) fn parsed(files: Vec<(String, String)>) -> Vec<SourceFile> {
    files.into_iter().map(|(p, s)| SourceFile::new(p, s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(files: &[(&str, &str)]) -> Vec<SourceFile> {
        files.iter().map(|(p, s)| SourceFile::new(*p, *s)).collect()
    }

    #[test]
    fn clean_workspace_produces_empty_stable_report() {
        let files = src(&[(
            "crates/a/src/lib.rs",
            "pub fn api() -> u32 { helper() }\nfn helper() -> u32 { 1 }\n",
        )]);
        let report = analyze(&files, &LintConfig::default());
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.counter("functions"), Some(2));
        assert_eq!(report.to_json(), report.to_json());
    }

    #[test]
    fn json_bytes_are_input_order_invariant() {
        let a = ("crates/a/src/lib.rs", "pub fn api() { b_entry(); }\n");
        let b = (
            "crates/a/src/other.rs",
            "pub fn b_entry() { let x: Option<u32> = None; let _ = x.unwrap(); }\n",
        );
        let config = LintConfig::default();
        let one = analyze(&src(&[a, b]), &config).to_json();
        let two = analyze(&src(&[b, a]), &config).to_json();
        assert_eq!(one, two);
        assert!(one.contains("analysis/panic-path"), "{one}");
    }
}
