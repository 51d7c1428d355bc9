//! Report assembly: deterministic `LINT.json` / `ANALYSIS.json` bytes and
//! the rows of the human table.
//!
//! Both artifacts are one [`Report`] type; they differ only in data — the
//! schema name, the leading summary counters, and whether findings carry
//! their call-path witness. The JSON is hand-rolled (the crate is
//! dependency-free) with sorted findings, sorted rule counts, and no
//! timestamps or absolute paths, so two runs over the same tree produce
//! byte-identical artifacts — the same contract the other
//! `artifacts/*.json` files honor.

use std::collections::BTreeMap;

use crate::rules::Finding;

/// The findings of one pass over a workspace, with its summary counters.
#[derive(Debug)]
pub struct Report {
    /// Artifact schema id, e.g. `macgame-lint/1`.
    pub schema: &'static str,
    /// Pass-specific summary counters (`files_scanned`, `functions`, …), in
    /// artifact order; the finding totals follow them in the JSON.
    pub counters: Vec<(&'static str, usize)>,
    /// Whether each JSON finding carries its `witness` path.
    pub witnesses: bool,
    /// Every finding, waived or not, sorted by `(path, line, rule)`.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Builds a report with its findings in canonical artifact order. Two
    /// hits of the same rule on one line (e.g. `HashMap::<_,_>::new()`
    /// naming the type twice) are one violation; the first is kept.
    #[must_use]
    pub fn new(
        schema: &'static str,
        counters: Vec<(&'static str, usize)>,
        witnesses: bool,
        mut findings: Vec<Finding>,
    ) -> Report {
        findings.sort_by(|a, b| {
            (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule))
        });
        findings.dedup_by(|a, b| a.rule == b.rule && a.path == b.path && a.line == b.line);
        Report { schema, counters, witnesses, findings }
    }

    /// The summary counter `name`, if this report has one.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<usize> {
        self.counters.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Findings not covered by a waiver — the CI-failing set.
    #[must_use]
    pub fn unwaived(&self) -> Vec<&Finding> {
        self.findings.iter().filter(|f| !f.waived).collect()
    }

    /// Whether the workspace passes (every finding waived with rationale).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.iter().all(|f| f.waived)
    }

    /// Per-rule `(total, waived)` counts, sorted by rule id.
    #[must_use]
    pub fn rule_counts(&self) -> BTreeMap<&'static str, (usize, usize)> {
        let mut counts: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
        for f in &self.findings {
            let entry = counts.entry(f.rule).or_default();
            entry.0 += 1;
            if f.waived {
                entry.1 += 1;
            }
        }
        counts
    }

    /// Renders the deterministic artifact bytes.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(8192);
        out.push_str(&format!("{{\n  \"schema\": {},\n", json_string(self.schema)));
        out.push_str("  \"summary\": {\n");
        for (name, value) in &self.counters {
            out.push_str(&format!("    \"{name}\": {value},\n"));
        }
        out.push_str(&format!("    \"findings\": {},\n", self.findings.len()));
        out.push_str(&format!(
            "    \"waived\": {},\n",
            self.findings.iter().filter(|f| f.waived).count()
        ));
        out.push_str(&format!("    \"unwaived\": {},\n", self.unwaived().len()));
        out.push_str("    \"rules\": {");
        let counts = self.rule_counts();
        let rules: Vec<String> = counts
            .iter()
            .map(|(rule, (total, waived))| {
                let rule = json_string(rule);
                format!("\n      {rule}: {{\"total\": {total}, \"waived\": {waived}}}")
            })
            .collect();
        out.push_str(&rules.join(","));
        if !counts.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("}\n  },\n");
        out.push_str("  \"findings\": [");
        let findings: Vec<String> = self.findings.iter().map(|f| self.finding_json(f)).collect();
        out.push_str(&findings.join(","));
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// One finding's JSON object, on its own line.
    fn finding_json(&self, f: &Finding) -> String {
        let reason = f.reason.as_deref().map_or_else(|| "null".to_string(), json_string);
        let mut out = format!(
            "\n    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"waived\": {}, \
             \"reason\": {reason}, \"message\": {}, \"snippet\": {}",
            json_string(f.rule),
            json_string(&f.path),
            f.line,
            f.waived,
            json_string(&f.message),
            json_string(&f.snippet),
        );
        if self.witnesses {
            let steps: Vec<String> =
                f.witness.iter().map(String::as_str).map(json_string).collect();
            out.push_str(&format!(", \"witness\": [{}]", steps.join(", ")));
        }
        out.push('}');
        out
    }

    /// Rows for a `rule | location | status | detail` table: unwaived
    /// findings first (they are what the reader must act on), then waived
    /// grants with their rationale. Witness paths live in the JSON.
    #[must_use]
    pub fn table_rows(&self) -> Vec<Vec<String>> {
        let mut rows = Vec::new();
        for pass in [false, true] {
            for f in self.findings.iter().filter(|f| f.waived == pass) {
                let detail = if f.waived {
                    format!("waived: {}", f.reason.as_deref().unwrap_or(""))
                } else {
                    f.message.clone()
                };
                rows.push(vec![
                    f.rule.to_string(),
                    format!("{}:{}", f.path, f.line),
                    if f.waived { "allow".to_string() } else { "FAIL".to_string() },
                    detail,
                ]);
            }
        }
        rows
    }
}

/// Escapes `s` as a JSON string literal (with surrounding quotes).
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, path: &str, line: u32, waived: bool) -> Finding {
        Finding {
            rule,
            path: path.to_string(),
            line,
            message: format!("broke {rule}"),
            snippet: "let x = 1;".to_string(),
            waived,
            reason: waived.then(|| "because".to_string()),
            witness: Vec::new(),
        }
    }

    #[test]
    fn json_is_sorted_and_stable() {
        let report = Report::new(
            "macgame-lint/1",
            vec![("files_scanned", 3), ("manifests_checked", 1)],
            false,
            vec![
                finding("b/rule", "z.rs", 9, false),
                finding("a/rule", "a.rs", 3, true),
                finding("a/rule", "a.rs", 1, false),
            ],
        );
        let one = report.to_json();
        let two = report.to_json();
        assert_eq!(one, two);
        let a1 = one.find("\"line\": 1").expect("line 1 present");
        let a3 = one.find("\"line\": 3").expect("line 3 present");
        let z9 = one.find("\"line\": 9").expect("line 9 present");
        assert!(a1 < a3 && a3 < z9, "findings must be path/line ordered");
        assert!(one.contains("\"unwaived\": 2"));
    }

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn empty_report_is_clean_and_valid() {
        let report = Report::new("macgame-lint/1", vec![], false, vec![]);
        assert!(report.is_clean());
        let json = report.to_json();
        assert!(json.contains("\"findings\": []"));
        assert!(json.contains("\"rules\": {}"));
    }

    #[test]
    fn table_lists_unwaived_first() {
        let report = Report::new(
            "macgame-lint/1",
            vec![],
            false,
            vec![finding("a/rule", "a.rs", 1, true), finding("b/rule", "b.rs", 2, false)],
        );
        let rows = report.table_rows();
        assert_eq!(rows[0][2], "FAIL");
        assert_eq!(rows[1][2], "allow");
        assert!(rows[1][3].starts_with("waived: "));
    }

    #[test]
    fn witnesses_and_counters_are_data() {
        let mut f = finding("a/rule", "a.rs", 1, false);
        f.witness = vec!["root (a.rs:1)".to_string(), "sink (a.rs:1)".to_string()];
        let lint = Report::new("s/1", vec![("files", 2)], false, vec![f.clone()]);
        let analysis = Report::new("s/1", vec![("files", 2)], true, vec![f]);
        assert!(!lint.to_json().contains("witness"));
        assert!(analysis
            .to_json()
            .contains("\"witness\": [\"root (a.rs:1)\", \"sink (a.rs:1)\"]}"));
        assert!(lint.to_json().contains("    \"files\": 2,\n    \"findings\": 1,"));
        assert_eq!((lint.counter("files"), lint.counter("edges")), (Some(2), None));
    }

    #[test]
    fn same_rule_twice_on_one_line_is_one_finding() {
        let report = Report::new(
            "s/1",
            vec![],
            false,
            vec![finding("a/rule", "a.rs", 1, false), finding("a/rule", "a.rs", 1, false)],
        );
        assert_eq!(report.findings.len(), 1);
    }
}
