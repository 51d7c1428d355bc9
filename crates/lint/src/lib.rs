//! `macgame-lint` — the workspace invariant checker.
//!
//! PRs 1–4 made three prose policies load-bearing: byte-for-byte artifact
//! determinism (`CONFORMANCE.json` / `TELEMETRY.json` / `ROBUSTNESS.json`
//! are thread-count-invariant), the DESIGN.md §12 panic-to-error policy,
//! and seeded-ChaCha8-only randomness. Each was guarded only by spot
//! regression tests; one stray `HashMap` iteration, `Instant::now()`, or
//! `unwrap()` in a new code path silently breaks them. This crate turns
//! those contracts into *mechanically enforced invariants*, the way the
//! parameter-verification machinery of Banchs et al. ("Thwarting Selfish
//! Behavior in 802.11 WLANs") detects protocol deviations mechanically
//! rather than by inspection.
//!
//! It is dependency-free by design (no `syn` in the vendored tree). Each
//! library file is lexed ([`lexer`]) and walked once, by [`parser`]: that
//! one walk yields the token stream with its test regions marked, which
//! the token rules ([`rules`]) scan for sites, and the fn definitions and
//! call events that the call-graph analyses ([`graph`], [`analysis`])
//! check for paths. A minimal TOML subset parser ([`toml`]) reads the
//! crate manifests ([`manifest`]) and the `lint-allow.toml` waiver file
//! ([`waivers`]); [`report`] renders both artifacts, `artifacts/LINT.json`
//! and `artifacts/ANALYSIS.json`, as deterministic bytes.
//!
//! # Rule catalog
//!
//! | rule | contract |
//! |------|----------|
//! | `determinism/hash-container` | no `HashMap`/`HashSet` in library code — iteration order can leak into artifacts; use `BTreeMap`/`BTreeSet` or waive with proof |
//! | `determinism/wall-clock` | no `Instant::now`/`SystemTime::now` outside the telemetry timings quarantine |
//! | `determinism/entropy-rng` | no `thread_rng`/`from_entropy` — randomness comes from seeded ChaCha8 streams |
//! | `panic-policy/unmarked-panic` | `unwrap`/`expect`/`panic!`/`assert!`-family calls in non-test library code need a `// PANIC-POLICY:` contract marker |
//! | `panic-policy/empty-marker` | a marker must carry a rationale |
//! | `api/relaxed-ordering` | no `Ordering::Relaxed` outside the telemetry allowlist |
//! | `manifest/workspace-field` | crates inherit `version`/`edition`/`license` from the workspace |
//! | `manifest/external-dependency` | only workspace-inherited or in-tree path dependencies |
//! | `waiver/stale`, `waiver/invalid` | the waiver file itself must stay honest |
//! | `analysis/determinism-taint` | no nondeterminism source reachable from an artifact-writing root |
//! | `analysis/panic-path` | no unmarked panic site reachable from a public library API |
//! | `analysis/lock-order` | no inconsistent lock-acquisition order (potential deadlock) |
//!
//! The first nine rules land in `LINT.json`, the three `analysis/*` rules
//! (whose findings carry a root → … → sink witness) in `ANALYSIS.json`.
//!
//! # Usage
//!
//! ```text
//! cargo run --release -p macgame-bench --bin repro -- lint
//! ```
//!
//! Exit is nonzero on any unwaived finding; `lint-allow.toml` grants
//! per-line (or per-file) waivers that must carry a rationale.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod graph;
pub mod lexer;
pub mod manifest;
pub mod parser;
pub mod report;
pub mod rules;
pub mod toml;
pub mod waivers;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

pub use analysis::RootSpec;
pub use parser::SourceFile;
pub use report::Report;
pub use rules::Finding;
pub use waivers::WAIVER_FILE;

/// Schema id of `LINT.json`.
pub const LINT_SCHEMA: &str = "macgame-lint/1";

/// Configuration for one lint run: the token rules' allowlists and the
/// call-graph analyses' roots.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Exact workspace-relative paths allowed to read the wall clock
    /// (the telemetry `timings` quarantine), for the token rule and the
    /// taint pass alike.
    pub wall_clock_allow: Vec<String>,
    /// Workspace-relative path prefixes allowed to use `Ordering::Relaxed`
    /// (the telemetry fast-path allowlist).
    pub relaxed_allow: Vec<String>,
    /// Artifact-writing roots for the determinism-taint pass.
    pub taint_roots: Vec<RootSpec>,
    /// Path prefixes whose `pub fn`s count as public library API for the
    /// panic-path pass.
    pub panic_api_prefixes: Vec<String>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            // `telemetry::global::span` is *the* wall-clock quarantine: its
            // measurements land in the `timings` section that
            // `Snapshot::deterministic_json()` omits.
            wall_clock_allow: vec!["crates/telemetry/src/global.rs".to_string()],
            // The telemetry fast path is the one sanctioned Relaxed user:
            // its counters merge by commutative sums, never by read order.
            relaxed_allow: vec!["crates/telemetry/src/".to_string()],
            // Every fn in the repro driver writes or formats artifacts;
            // serve's reply encoders and the conformance evaluator are the
            // other two byte-stability contracts (DESIGN.md §10, §15).
            taint_roots: vec![
                RootSpec::file("crates/bench/src/bin/repro.rs"),
                RootSpec::fn_in("crates/serve/src/", "handle_batch"),
                RootSpec::fn_in("crates/serve/src/", "handle_payload"),
                RootSpec::fn_in("crates/conformance/src/", "run_conformance"),
            ],
            panic_api_prefixes: vec!["crates/".to_string()],
        }
    }
}

/// Errors a lint run can hit. The linter itself never panics.
#[derive(Debug)]
pub enum LintError {
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// `root` is not a workspace root (no `Cargo.toml` with `[workspace]`).
    NotAWorkspace(PathBuf),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io { path, source } => {
                write!(f, "io error at {}: {source}", path.display())
            }
            LintError::NotAWorkspace(p) => {
                write!(f, "{} is not a cargo workspace root", p.display())
            }
        }
    }
}

impl std::error::Error for LintError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LintError::Io { source, .. } => Some(source),
            LintError::NotAWorkspace(_) => None,
        }
    }
}

fn read(path: &Path) -> Result<String, LintError> {
    fs::read_to_string(path).map_err(|source| LintError::Io { path: path.to_path_buf(), source })
}

/// Walks up from `start` to the nearest directory whose `Cargo.toml`
/// declares `[workspace]`.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(contents) = fs::read_to_string(&manifest) {
            if toml::parse(&contents).iter().any(|t| t.name == "workspace" && !t.is_array) {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Turns a path relative to `root` into the canonical `/`-separated form
/// used in findings and waivers.
fn rel_str(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// The entries of `dir`, sorted by path for deterministic traversal; none
/// when `dir` is not a directory.
fn sorted_entries(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
    if !dir.is_dir() {
        return Ok(Vec::new());
    }
    let io = |source| LintError::Io { path: dir.to_path_buf(), source };
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).map_err(io)? {
        out.push(entry.map_err(io)?.path());
    }
    out.sort();
    Ok(out)
}

fn is_rust(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "rs")
}

/// Recursively collects `*.rs` files under `dir`, sorted.
fn rust_files_recursive(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    for path in sorted_entries(dir)? {
        if path.is_dir() {
            rust_files_recursive(&path, out)?;
        } else if is_rust(&path) {
            out.push(path);
        }
    }
    Ok(())
}

/// The outcome of one lint run over a workspace, with waivers applied
/// across both reports (an `analysis/*` waiver is not "stale" to the
/// token rules and vice versa).
#[derive(Debug)]
pub struct WorkspaceReport {
    /// Token-rule, manifest and waiver-file findings (`LINT.json`).
    pub lint: Report,
    /// Call-graph reachability findings (`ANALYSIS.json`).
    pub analysis: Report,
}

impl WorkspaceReport {
    /// Whether both reports are clean (every finding waived).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.lint.is_clean() && self.analysis.is_clean()
    }

    /// Total unwaived findings across both reports.
    #[must_use]
    pub fn unwaived_count(&self) -> usize {
        self.lint.unwaived().len() + self.analysis.unwaived().len()
    }
}

/// Lints the workspace rooted at `root`: the token rules and manifest
/// checks, then the call-graph analyses over the same parsed library
/// files. `lint-allow.toml` waivers apply to findings from either, and
/// stale-waiver detection runs once over the union.
///
/// # Errors
///
/// Returns [`LintError`] on filesystem failures or when `root` is not a
/// workspace root. Findings — including malformed waivers — are *not*
/// errors; they are reported in the [`WorkspaceReport`].
pub fn run_workspace(root: &Path, config: &LintConfig) -> Result<WorkspaceReport, LintError> {
    let root_manifest = read(&root.join("Cargo.toml"))?;
    if !toml::parse(&root_manifest).iter().any(|t| t.name == "workspace" && !t.is_array) {
        return Err(LintError::NotAWorkspace(root.to_path_buf()));
    }

    let mut findings: Vec<Finding> = Vec::new();
    let mut library: Vec<SourceFile> = Vec::new();
    let mut files_scanned = 0usize;
    let mut manifests_checked = 0usize;

    // Waivers first: malformed entries are findings too.
    let waiver_path = root.join(WAIVER_FILE);
    let waiver_set = if waiver_path.is_file() {
        waivers::parse_waivers(&read(&waiver_path)?)
    } else {
        waivers::WaiverSet::default()
    };
    findings.extend(waiver_set.findings.iter().cloned());

    // The root manifest: workspace-field + workspace.dependencies checks.
    findings.extend(manifest::check_manifest("Cargo.toml", &root_manifest, false, true));
    manifests_checked += 1;

    // Package set: the root package plus crates/* and vendor/*, each a
    // subdirectory with a `Cargo.toml`.
    let mut packages: Vec<(PathBuf, bool)> = vec![(root.to_path_buf(), false)];
    for (sub, is_vendor) in [("crates", false), ("vendor", true)] {
        for dir in sorted_entries(&root.join(sub))? {
            if dir.is_dir() && dir.join("Cargo.toml").is_file() {
                packages.push((dir, is_vendor));
            }
        }
    }

    for (pkg_dir, is_vendor) in &packages {
        // Manifests (the root package's manifest was already checked above).
        if pkg_dir != root {
            let manifest_path = pkg_dir.join("Cargo.toml");
            let rel = rel_str(root, &manifest_path);
            findings.extend(manifest::check_manifest(&rel, &read(&manifest_path)?, *is_vendor, false));
            manifests_checked += 1;
        }
        if *is_vendor {
            // Vendored shims implement the very APIs the code rules police;
            // the determinism contracts bind their *call sites* in macgame
            // crates, not the shims themselves.
            continue;
        }
        // Library sources: everything under src/, recursively (bins
        // included), parsed once for the token rules and the call graph.
        let mut lib_files = Vec::new();
        rust_files_recursive(&pkg_dir.join("src"), &mut lib_files)?;
        for path in lib_files {
            let file = SourceFile::new(rel_str(root, &path), read(&path)?);
            findings.extend(rules::check(&file, config));
            library.push(file);
        }
        // Dev sources: the compiled top-level tests/benches/examples files
        // (Cargo only builds direct children, so `tests/fixtures/` is data).
        // Every code rule exempts them, so they are counted, never lexed.
        for sub in ["tests", "benches", "examples"] {
            let dev = sorted_entries(&pkg_dir.join(sub))?;
            files_scanned += dev.iter().filter(|p| p.is_file() && is_rust(p)).count();
        }
    }
    files_scanned += library.len();

    let mut analysis = analysis::analyze(&library, config);
    findings.append(&mut analysis.findings);

    // Waivers apply across the union so stale detection sees both passes;
    // the partition keeps the analysis findings in their sorted order.
    waivers::apply_waivers(&mut findings, &waiver_set.waivers);
    let (analysis_findings, lint_findings): (Vec<Finding>, Vec<Finding>) =
        findings.into_iter().partition(|f| f.rule.starts_with("analysis/"));
    analysis.findings = analysis_findings;
    let counters = vec![("files_scanned", files_scanned), ("manifests_checked", manifests_checked)];
    Ok(WorkspaceReport { lint: Report::new(LINT_SCHEMA, counters, false, lint_findings), analysis })
}
