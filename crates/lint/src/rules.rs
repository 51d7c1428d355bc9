//! The token rules: a scan over the parser's token stream enforcing the
//! workspace's determinism, panic-policy, and API-discipline contracts at
//! each site — type positions (`use …HashMap`, struct fields) and
//! item-level code (`static` initializers) included, which fn-body events
//! do not cover.
//!
//! Every rule reports [`Finding`]s with a stable rule id (`area/name`),
//! the workspace-relative path, and a 1-based line — the coordinates the
//! waiver file ([`crate::waivers`]) matches against.
//!
//! # Scope
//!
//! * **Library code** (`src/**` of a workspace crate, including binaries)
//!   outside `#[cfg(test)]` regions is held to every contract.
//! * **Test regions** (`#[cfg(test)]` modules/items, `#[test]` functions,
//!   as marked by [`crate::parser`]) and **dev code** (top-level `tests/`,
//!   `benches/`, `examples/` files, which are counted but never lexed) are
//!   exempt from every code rule — tests may hash, time, and unwrap freely.
//! * Vendored shims under `vendor/` are never code-linted (they *implement*
//!   the APIs these rules police); their manifests are still checked.

use crate::lexer::TokenKind;
use crate::parser::SourceFile;
use crate::LintConfig;

/// A single rule violation (or waived ex-violation) at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier, e.g. `determinism/hash-container`.
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// Human explanation of the contract that was broken.
    pub message: String,
    /// The trimmed source line, truncated for stable artifact output.
    pub snippet: String,
    /// Whether a `lint-allow.toml` waiver covers this finding.
    pub waived: bool,
    /// The waiver's rationale when `waived`.
    pub reason: Option<String>,
    /// Call-path witness (root → … → sink) for graph-reachability
    /// findings; empty for token-level findings.
    pub witness: Vec<String>,
}

/// Rule id: `HashMap`/`HashSet` in artifact-serializing library code.
pub const RULE_HASH: &str = "determinism/hash-container";
/// Rule id: `Instant::now`/`SystemTime::now` outside the timings quarantine.
pub const RULE_WALL_CLOCK: &str = "determinism/wall-clock";
/// Rule id: entropy-seeded RNG (`thread_rng`, `from_entropy`).
pub const RULE_ENTROPY: &str = "determinism/entropy-rng";
/// Rule id: unmarked `unwrap`/`expect`/`panic!`/`assert!` family call.
pub const RULE_PANIC: &str = "panic-policy/unmarked-panic";
/// Rule id: a `// PANIC-POLICY:` marker with no rationale text.
pub const RULE_EMPTY_MARKER: &str = "panic-policy/empty-marker";
/// Rule id: `Ordering::Relaxed` outside the telemetry allowlist.
pub const RULE_RELAXED: &str = "api/relaxed-ordering";

/// Macro names whose invocation panics (checked with a trailing `!`).
/// `debug_assert*` is deliberately absent: it is compiled out of the
/// release builds that produce artifacts.
pub(crate) const PANIC_MACROS: &[&str] =
    &["panic", "assert", "assert_eq", "assert_ne", "unreachable", "todo", "unimplemented"];

/// Methods whose call panics (checked as `.name(`).
pub(crate) const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

impl Finding {
    /// An unwaived finding at `file:line` with its snippet and no witness.
    #[must_use]
    pub fn at(rule: &'static str, file: &SourceFile, line: u32, message: String) -> Finding {
        Finding {
            rule,
            path: file.path.clone(),
            line,
            message,
            snippet: file.snippet(line),
            waived: false,
            reason: None,
            witness: Vec::new(),
        }
    }
}

/// Runs every token rule over one parsed library file, skipping the
/// tokens the parser marked exempt.
#[must_use]
pub fn check(file: &SourceFile, config: &LintConfig) -> Vec<Finding> {
    let tokens = &file.parsed.tokens;
    let path = file.path.as_str();
    let wall_clock_quarantined = config.wall_clock_allow.iter().any(|p| p == path);
    let relaxed_allowed = config.relaxed_allow.iter().any(|p| path.starts_with(p.as_str()));
    let ident = |idx: usize| -> Option<&str> {
        match tokens.get(idx).map(|t| &t.kind) {
            Some(TokenKind::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    };
    let punct = |idx: usize, c: char| -> bool {
        matches!(tokens.get(idx).map(|t| &t.kind), Some(TokenKind::Punct(p)) if *p == c)
    };
    // `name::last` starting at `idx`.
    let path_to = |idx: usize, last: &str| {
        punct(idx + 1, ':') && punct(idx + 2, ':') && ident(idx + 3) == Some(last)
    };

    let mut findings = Vec::new();
    for (i, token) in tokens.iter().enumerate() {
        let Some(name) = ident(i) else { continue };
        if file.parsed.exempt[i] {
            continue;
        }
        let line = token.line;
        let mut push = |rule, message| findings.push(Finding::at(rule, file, line, message));

        if name == "HashMap" || name == "HashSet" {
            push(
                RULE_HASH,
                format!(
                    "`{name}` iteration order is nondeterministic; use `BTreeMap`/\
                     `BTreeSet` or waive with proof the order never reaches an artifact"
                ),
            );
        }
        let clock = name == "Instant" || name == "SystemTime";
        if clock && path_to(i, "now") && !wall_clock_quarantined {
            push(
                RULE_WALL_CLOCK,
                format!(
                    "`{name}::now` outside the telemetry timings quarantine breaks \
                     byte-for-byte artifact determinism"
                ),
            );
        }
        if name == "thread_rng" || name == "from_entropy" {
            push(
                RULE_ENTROPY,
                format!(
                    "`{name}` draws OS entropy; all randomness must come from a \
                     seeded ChaCha8 stream (see `faults::rng::derive_seed`)"
                ),
            );
        }
        if name == "Ordering" && path_to(i, "Relaxed") && !relaxed_allowed {
            push(
                RULE_RELAXED,
                "`Ordering::Relaxed` outside the telemetry allowlist; use a stronger \
                 ordering or waive with proof the value never reaches an artifact"
                    .to_string(),
            );
        }

        let panic_hit = if PANIC_MACROS.contains(&name) && punct(i + 1, '!') {
            format!("{name}!")
        } else if PANIC_METHODS.contains(&name) && i > 0 && punct(i - 1, '.') && punct(i + 1, '(') {
            format!(".{name}()")
        } else {
            continue;
        };
        let markers = &file.parsed.markers;
        let marker =
            markers.get(&line).or_else(|| line.checked_sub(1).and_then(|l| markers.get(&l)));
        match marker {
            None => push(
                RULE_PANIC,
                format!(
                    "`{panic_hit}` in non-test library code without a `// PANIC-POLICY:` \
                     contract marker (DESIGN.md §12); return a `Result` or document \
                     the programmer-error contract"
                ),
            ),
            Some(rationale) if rationale.is_empty() => push(
                RULE_EMPTY_MARKER,
                format!("`{panic_hit}` carries a `// PANIC-POLICY:` marker with no rationale"),
            ),
            Some(_) => {}
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The token rules over `src` as library file `crates/x/src/lib.rs`.
    fn check_lib(src: &str) -> Vec<Finding> {
        check(&SourceFile::new("crates/x/src/lib.rs", src), &LintConfig::default())
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn cfg_test_module_is_exempt() {
        let src = "
            pub fn f() -> u32 { 1 }
            #[cfg(test)]
            mod tests {
                use std::collections::HashMap;
                #[test]
                fn t() { let _ = HashMap::<u32, u32>::new(); assert!(true); }
            }
        ";
        assert!(check_lib(src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "#[cfg(not(test))]\nfn f() { let x: Option<u32> = None; x.unwrap(); }\n";
        assert_eq!(rules_of(&check_lib(src)), vec![RULE_PANIC]);
    }

    #[test]
    fn marker_on_same_or_previous_line_exempts() {
        let src = "
            fn f(x: Option<u32>) -> u32 {
                let a = x.unwrap(); // PANIC-POLICY: caller guarantees Some
                // PANIC-POLICY: second call shares the contract
                let b = x.unwrap();
                a + b
            }
        ";
        assert!(check_lib(src).is_empty());
    }

    #[test]
    fn empty_marker_is_reported() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // PANIC-POLICY:\n";
        assert_eq!(rules_of(&check_lib(src)), vec![RULE_EMPTY_MARKER]);
    }

    #[test]
    fn unwrap_or_variants_do_not_trigger() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) + x.unwrap_or_default() }\n";
        assert!(check_lib(src).is_empty());
    }

    #[test]
    fn wall_clock_quarantine_and_relaxed_allowlist() {
        let src = "fn f() { let _ = Instant::now(); ENABLED.load(Ordering::Relaxed); }\n";
        let allowed = SourceFile::new("crates/telemetry/src/global.rs", src);
        assert!(check(&allowed, &LintConfig::default()).is_empty());
        assert_eq!(rules_of(&check_lib(src)), vec![RULE_WALL_CLOCK, RULE_RELAXED]);
    }

    #[test]
    fn entropy_rng_flagged_outside_tests() {
        let src = "fn f() { let mut rng = rand::thread_rng(); }\n";
        assert_eq!(rules_of(&check_lib(src)), vec![RULE_ENTROPY]);
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "
            /// Docs mentioning HashMap, Instant::now() and .unwrap().
            fn f() -> &'static str { \"HashMap thread_rng panic!\" }
        ";
        assert!(check_lib(src).is_empty());
    }

    #[test]
    fn findings_carry_location_and_snippet() {
        let src = "fn f() {\n    let m = std::collections::HashMap::<u32, u32>::new();\n}\n";
        let f = &check_lib(src)[0];
        assert_eq!((f.rule, f.line), (RULE_HASH, 2));
        assert!(f.snippet.contains("HashMap"));
        assert_eq!(f.path, "crates/x/src/lib.rs");
    }
}
