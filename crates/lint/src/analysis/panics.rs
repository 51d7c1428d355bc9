//! The panic-path pass: panic sites reachable from public library APIs.
//!
//! Roots are plain-`pub` non-test fns in library files under the
//! configured prefixes (`pub(crate)` and narrower are not public API).
//! Sinks are `panic!`-family macro invocations and `.unwrap()` /
//! `.expect()` calls in reachable non-test fns that carry no
//! `// PANIC-POLICY:` marker on their own or the preceding line. The
//! token rule `panic-policy/unmarked-panic` already flags such *sites*;
//! this pass adds what the marker contract is really about — which
//! public entry points can hit the site — as a root → … → sink witness.
//!
//! A marker with an empty rationale still exempts the site here; the
//! `panic-policy/empty-marker` token rule owns that defect.

use crate::parser::Event;
use crate::rules::{Finding, PANIC_MACROS, PANIC_METHODS};

use super::{Ctx, RULE_PANIC_PATH};

/// Runs the pass; returns findings and the number of public-API roots.
pub(super) fn run(ctx: &Ctx<'_>) -> (Vec<Finding>, usize) {
    let g = ctx.graph;
    let roots = g.select(|n| {
        n.def.is_pub
            && !n.def.is_test
            && n.file.contains("/src/")
            && ctx.config.panic_api_prefixes.iter().any(|p| n.file.starts_with(p.as_str()))
    });
    let root_count = roots.len();
    let parent = g.reach(&roots);

    let mut findings = Vec::new();
    for &id in parent.keys() {
        let node = &g.fns[id];
        if node.def.is_test {
            continue;
        }
        let file_markers = ctx.markers(&node.file);
        let marked = |line: u32| {
            file_markers.is_some_and(|m| {
                m.contains_key(&line)
                    || line.checked_sub(1).is_some_and(|l| m.contains_key(&l))
            })
        };
        let mut sites: Vec<(String, u32)> = Vec::new();
        for ev in &node.def.events {
            match ev {
                Event::MacroCall { name, line } if PANIC_MACROS.contains(&name.as_str()) => {
                    sites.push((format!("{name}!"), *line));
                }
                Event::MethodCall { name, line, .. }
                    if PANIC_METHODS.contains(&name.as_str()) =>
                {
                    sites.push((format!(".{name}()"), *line));
                }
                _ => {}
            }
        }
        sites.retain(|(_, line)| !marked(*line));
        if sites.is_empty() {
            continue;
        }
        let path = g.witness(&parent, id);
        let root = path
            .first()
            .and_then(|s| s.split(" (").next())
            .unwrap_or("?")
            .to_string();
        let depth = path.len().saturating_sub(1);
        for (what, line) in sites {
            let mut witness = path.clone();
            witness.push(format!("{what} ({}:{line})", node.file));
            findings.push(ctx.finding(
                RULE_PANIC_PATH,
                &node.file,
                line,
                format!(
                    "`{what}` without a `// PANIC-POLICY:` marker is reachable from \
                     public API `{root}` ({depth} call(s) deep); return a `Result` \
                     or document the contract at the site"
                ),
                witness,
            ));
        }
    }
    (findings, root_count)
}

#[cfg(test)]
mod tests {
    use crate::analysis::{analyze, parsed, RULE_PANIC_PATH};
    use crate::LintConfig;

    fn config() -> LintConfig {
        LintConfig {
            taint_roots: vec![],
            wall_clock_allow: vec![],
            panic_api_prefixes: vec!["crates/".to_string()],
            relaxed_allow: vec![],
        }
    }

    #[test]
    fn unmarked_unwrap_behind_private_helper_is_reported_with_path() {
        let files = vec![(
            "crates/app/src/lib.rs".to_string(),
            "pub fn api(x: Option<u32>) -> u32 { helper(x) }\n\
             fn helper(x: Option<u32>) -> u32 { x.unwrap() }\n"
                .to_string(),
        )];
        let report = analyze(&parsed(files), &config());
        let f = &report.findings[0];
        assert_eq!(f.rule, RULE_PANIC_PATH);
        assert_eq!(f.line, 2);
        assert_eq!(
            f.witness,
            vec![
                "api (crates/app/src/lib.rs:1)",
                "helper (crates/app/src/lib.rs:2)",
                ".unwrap() (crates/app/src/lib.rs:2)",
            ]
        );
        assert!(f.message.contains("public API `api`"), "{}", f.message);
    }

    #[test]
    fn markers_and_non_public_roots_exempt() {
        let files = vec![(
            "crates/app/src/lib.rs".to_string(),
            "pub fn api(x: Option<u32>) -> u32 { helper(x) }\n\
             fn helper(x: Option<u32>) -> u32 {\n\
             x.unwrap() // PANIC-POLICY: callers validate Some upstream\n\
             }\n\
             pub(crate) fn internal(x: Option<u32>) -> u32 { naked(x) }\n\
             fn naked(x: Option<u32>) -> u32 { x.expect(\"set\") }\n"
                .to_string(),
        )];
        let report = analyze(&parsed(files), &config());
        assert!(
            report.is_clean(),
            "marked site and pub(crate)-only path must not fire: {:?}",
            report.findings
        );
    }
}
