//! Rule-by-rule coverage over the checked-in fixture corpus.
//!
//! The fixtures live under `tests/fixtures/` on purpose: Cargo only
//! compiles direct children of `tests/`, and the workspace linter skips
//! the same subdirectories, so the corpus can contain every forbidden
//! pattern without tripping either the compiler or `repro -- lint`.

use std::path::Path;

use macgame_lint::manifest::{check_manifest, RULE_EXTERNAL_DEP, RULE_WORKSPACE_FIELD};
use macgame_lint::rules::{
    check, RULE_EMPTY_MARKER, RULE_ENTROPY, RULE_HASH, RULE_PANIC, RULE_RELAXED, RULE_WALL_CLOCK,
};
use macgame_lint::{run_workspace, Finding, LintConfig, SourceFile};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// A config with empty wall-clock and `Relaxed` allowlists.
fn no_allowlists() -> LintConfig {
    LintConfig { wall_clock_allow: vec![], relaxed_allow: vec![], ..LintConfig::default() }
}

/// The token rules over fixture `name`, as library file
/// `crates/demo/src/<name>`.
fn lint_fixture(name: &str) -> Vec<Finding> {
    check(&SourceFile::new(format!("crates/demo/src/{name}"), fixture(name)), &no_allowlists())
}

/// Lines at which `rule` fired, in source order.
fn lines_of(findings: &[Finding], rule: &str) -> Vec<u32> {
    findings.iter().filter(|f| f.rule == rule).map(|f| f.line).collect()
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn determinism_rules_fire_on_positive_fixture() {
    let findings = lint_fixture("determinism_positive.rs");
    let rules = rules_of(&findings);
    assert_eq!(rules.iter().filter(|r| **r == RULE_WALL_CLOCK).count(), 2, "{findings:?}");
    assert!(rules.iter().filter(|r| **r == RULE_HASH).count() >= 4, "{findings:?}");
    assert_eq!(rules.iter().filter(|r| **r == RULE_ENTROPY).count(), 2, "{findings:?}");
    let instant = findings.iter().find(|f| f.snippet.contains("Instant")).unwrap();
    assert_eq!(instant.line, 6);
    assert_eq!(instant.path, "crates/demo/src/determinism_positive.rs");
}

#[test]
fn determinism_rules_stay_silent_on_negative_fixture() {
    let findings = lint_fixture("determinism_negative.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn wall_clock_quarantine_allowlists_exact_paths() {
    let path = "crates/demo/src/determinism_positive.rs";
    let file = SourceFile::new(path, fixture("determinism_positive.rs"));
    let config = LintConfig { wall_clock_allow: vec![path.to_string()], ..no_allowlists() };
    let findings = check(&file, &config);
    assert!(findings.iter().all(|f| f.rule != RULE_WALL_CLOCK), "{findings:?}");
    // The other determinism rules are unaffected by the quarantine.
    assert!(findings.iter().any(|f| f.rule == RULE_HASH));
}

#[test]
fn panic_policy_fires_on_every_unmarked_site() {
    let findings = lint_fixture("panic_positive.rs");
    assert_eq!(lines_of(&findings, RULE_PANIC), vec![3, 4, 5, 6, 8, 11], "{findings:?}");
    assert_eq!(lines_of(&findings, RULE_EMPTY_MARKER), vec![17], "{findings:?}");
}

#[test]
fn panic_policy_accepts_markers_and_test_code() {
    let findings = lint_fixture("panic_negative.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

/// Dev files (top-level `tests/`, `benches/`, `examples/`) are counted
/// but never linted: the positive panic fixture as an integration test of
/// a scratch workspace yields no finding.
#[test]
fn panic_policy_skips_dev_code_entirely() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-dev-file");
    if root.exists() {
        std::fs::remove_dir_all(&root).unwrap();
    }
    std::fs::create_dir_all(root.join("crates/demo/src")).unwrap();
    std::fs::create_dir_all(root.join("crates/demo/tests")).unwrap();
    let write = |rel: &str, text: &str| std::fs::write(root.join(rel), text).unwrap();
    write(
        "Cargo.toml",
        "[workspace]\nmembers = [\"crates/demo\"]\n\n[workspace.package]\n\
         version = \"0.1.0\"\nedition = \"2021\"\nlicense = \"MIT\"\n",
    );
    write(
        "crates/demo/Cargo.toml",
        "[package]\nname = \"demo\"\nversion.workspace = true\n\
         edition.workspace = true\nlicense.workspace = true\n",
    );
    write("crates/demo/src/lib.rs", "pub fn one() -> u32 { 1 }\n");
    write("crates/demo/tests/panic_positive.rs", &fixture("panic_positive.rs"));
    let report = run_workspace(&root, &no_allowlists()).unwrap().lint;
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.counter("files_scanned"), Some(2));
}

/// A `#[cfg(test)]` field or variant must not leave the next fn body
/// marked as test code.
#[test]
fn test_attributes_on_fields_and_variants_end_with_them() {
    let findings = lint_fixture("test_region_leak.rs");
    assert_eq!(lines_of(&findings, RULE_PANIC), vec![14, 25, 36], "{findings:?}");
    assert_eq!(lines_of(&findings, RULE_HASH), vec![13, 24, 35], "{findings:?}");
    assert_eq!(findings.len(), 6, "{findings:?}");
}

/// `static` initializers are code outside any fn body; the token rules
/// still see them, and a test-gated `static` stays exempt.
#[test]
fn item_level_code_is_checked() {
    let findings = lint_fixture("item_level.rs");
    assert_eq!(lines_of(&findings, RULE_PANIC), vec![6], "{findings:?}");
    assert_eq!(lines_of(&findings, RULE_WALL_CLOCK), vec![8], "{findings:?}");
    assert_eq!(lines_of(&findings, RULE_HASH), vec![10], "{findings:?}");
    assert_eq!(findings.len(), 3, "{findings:?}");
}

#[test]
fn api_rules_fire_on_positive_fixture() {
    let findings = lint_fixture("api_positive.rs");
    let rules = rules_of(&findings);
    assert_eq!(rules.iter().filter(|r| **r == RULE_RELAXED).count(), 2, "{findings:?}");
}

#[test]
fn api_rules_stay_silent_on_negative_fixture() {
    let findings = lint_fixture("api_negative.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn relaxed_ordering_allowlist_is_a_prefix_match() {
    let file = SourceFile::new("crates/demo/src/api_positive.rs", fixture("api_positive.rs"));
    let config =
        LintConfig { relaxed_allow: vec!["crates/demo/src/".to_string()], ..no_allowlists() };
    let findings = check(&file, &config);
    assert!(findings.iter().all(|f| f.rule != RULE_RELAXED), "{findings:?}");
}

#[test]
fn manifest_rules_fire_on_bad_manifest() {
    let findings =
        check_manifest("crates/demo/Cargo.toml", &fixture("manifest_bad.toml"), false, false);
    let rules = rules_of(&findings);
    assert_eq!(rules.iter().filter(|r| **r == RULE_WORKSPACE_FIELD).count(), 2, "{findings:?}");
    assert_eq!(rules.iter().filter(|r| **r == RULE_EXTERNAL_DEP).count(), 1, "{findings:?}");
}

#[test]
fn manifest_rules_stay_silent_on_good_manifest() {
    let findings =
        check_manifest("crates/demo/Cargo.toml", &fixture("manifest_good.toml"), false, false);
    assert!(findings.is_empty(), "{findings:?}");
}
