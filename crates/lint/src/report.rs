//! Reporters: the human diagnostic listing and the machine-readable JSON
//! artifact (`results/LINT.json`) that tracks rule/violation counts and
//! analysis coverage across PRs.
//!
//! JSON schema 2 (this PR) adds the flow-sensitive engine's
//! accountability fields: per-rule counts for all six rules, the body
//! coverage ratio (functions whose bodies the statement parser shaped
//! vs. skipped, itemized), ambiguous allowlist entries, and the run's
//! wall time. Everything except `elapsed_ms` is byte-stable; CI diffs
//! the committed artifact with `-I '"elapsed_ms"'`.

use std::fmt::Write as _;

use crate::diag::RuleId;
use crate::engine::RunResult;

/// The `results/LINT.json` schema version this reporter emits.
pub const JSON_SCHEMA: u32 = 2;

/// Body coverage as a `"99.8"`-style string (one decimal, truncated),
/// shared by both reporters so they cannot disagree.
fn coverage_str(result: &RunResult) -> String {
    let pm = result.coverage_permille();
    format!("{}.{}", pm / 10, pm % 10)
}

/// Renders the human report: every unallowlisted violation in full, a
/// one-line entry per allowed site (with its audit reason when `verbose`),
/// stale and ambiguous allowlist entries, parse errors, skipped bodies
/// (when `verbose`), and a summary line with coverage and wall time.
pub fn human(result: &RunResult, verbose: bool) -> String {
    let mut out = String::new();
    for d in result.violations() {
        let _ = writeln!(out, "{d}\n");
    }
    if verbose {
        for d in result.allowed() {
            let reason = d.allowed.as_deref().unwrap_or("");
            let _ = writeln!(
                out,
                "{}:{}:{} {} allowed: {}",
                d.file, d.line, d.column, d.rule, reason
            );
        }
        for (file, func, line, reason) in &result.skipped_bodies {
            let _ = writeln!(
                out,
                "{file}:{line}: body of `{func}` not statement-parsed ({reason}) — \
                 flow-sensitive rules fell back to whole-body checks"
            );
        }
    }
    for e in &result.stale_entries {
        let _ = writeln!(
            out,
            "lint.toml:{}: stale [[allow]] entry ({} {} pattern `{}`) matches no code — \
             delete it",
            e.defined_at, e.rule, e.file, e.pattern
        );
    }
    for (e, n) in &result.ambiguous_entries {
        let _ = writeln!(
            out,
            "lint.toml:{}: ambiguous [[allow]] entry ({} {} pattern `{}`) matches {n} \
             diagnostics — lengthen the pattern or give the site a line of its own",
            e.defined_at, e.rule, e.file, e.pattern
        );
    }
    for e in &result.parse_errors {
        let _ = writeln!(out, "parse error: {e}");
    }
    let violations = result.violations().count();
    let allowed = result.allowed().count();
    let _ = write!(
        out,
        "ecds-lint: {} files scanned, {} violation{}, {} allowed, {} stale allowlist \
         entr{}, {} ambiguous, {} parse error{}, body coverage {}% ({}/{} parsed, min \
         {}%), {} ms",
        result.files_scanned,
        violations,
        if violations == 1 { "" } else { "s" },
        allowed,
        result.stale_entries.len(),
        if result.stale_entries.len() == 1 {
            "y"
        } else {
            "ies"
        },
        result.ambiguous_entries.len(),
        result.parse_errors.len(),
        if result.parse_errors.len() == 1 {
            ""
        } else {
            "s"
        },
        coverage_str(result),
        result.bodies_parsed,
        result.bodies_total,
        crate::engine::MIN_BODY_COVERAGE_PCT,
        result.elapsed_ms,
    );
    out
}

/// Renders `results/LINT.json` (schema 2): per-rule counts, the full
/// diagnostic lists, allowlist health, and analysis coverage,
/// deterministically ordered.
pub fn json(result: &RunResult) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": {JSON_SCHEMA},");
    let _ = writeln!(out, "  \"files_scanned\": {},", result.files_scanned);
    let _ = writeln!(out, "  \"elapsed_ms\": {},", result.elapsed_ms);
    out.push_str("  \"coverage\": {\n");
    let _ = writeln!(out, "    \"bodies_total\": {},", result.bodies_total);
    let _ = writeln!(out, "    \"bodies_parsed\": {},", result.bodies_parsed);
    let _ = writeln!(
        out,
        "    \"bodies_skipped\": {},",
        result.skipped_bodies.len()
    );
    let _ = writeln!(out, "    \"percent\": {},", coverage_str(result));
    let _ = writeln!(out, "    \"ok\": {}", result.coverage_ok());
    out.push_str("  },\n");
    out.push_str("  \"skipped_bodies\": [");
    for (i, (file, func, line, reason)) in result.skipped_bodies.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(
            out,
            "    {{ \"file\": \"{}\", \"function\": \"{}\", \"line\": {line}, \
             \"reason\": \"{}\" }}",
            escape(file),
            escape(func),
            escape(reason)
        );
    }
    if !result.skipped_bodies.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    out.push_str("  \"rules\": {\n");
    let rules = RuleId::all();
    for (i, rule) in rules.iter().enumerate() {
        let violations = result.violations().filter(|d| d.rule == *rule).count();
        let allowed = result.allowed().filter(|d| d.rule == *rule).count();
        let _ = write!(
            out,
            "    \"{}\": {{ \"violations\": {violations}, \"allowed\": {allowed} }}",
            rule.as_str()
        );
        out.push_str(if i + 1 < rules.len() { ",\n" } else { "\n" });
    }
    out.push_str("  },\n");
    write_diag_array(&mut out, "violations", result, false);
    out.push_str(",\n");
    write_diag_array(&mut out, "allowed", result, true);
    out.push_str(",\n");
    out.push_str("  \"stale_allowlist\": [");
    for (i, e) in result.stale_entries.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{ \"rule\": \"{}\", \"file\": \"{}\", \"pattern\": \"{}\" }}",
            e.rule,
            escape(&e.file),
            escape(&e.pattern)
        );
    }
    out.push_str("],\n");
    out.push_str("  \"ambiguous_allowlist\": [");
    for (i, (e, n)) in result.ambiguous_entries.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{ \"rule\": \"{}\", \"file\": \"{}\", \"pattern\": \"{}\", \"matches\": {n} }}",
            e.rule,
            escape(&e.file),
            escape(&e.pattern)
        );
    }
    out.push_str("],\n");
    let _ = writeln!(out, "  \"parse_errors\": {},", result.parse_errors.len());
    let _ = writeln!(out, "  \"clean\": {}", result.is_clean());
    out.push_str("}\n");
    out
}

fn write_diag_array(out: &mut String, key: &str, result: &RunResult, allowed: bool) {
    let _ = write!(out, "  \"{key}\": [");
    let mut first = true;
    for d in result
        .diagnostics
        .iter()
        .filter(|d| d.allowed.is_some() == allowed)
    {
        out.push_str(if first { "\n" } else { ",\n" });
        first = false;
        let _ = write!(
            out,
            "    {{ \"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"",
            d.rule,
            escape(&d.file),
            d.line,
            escape(&d.message)
        );
        if let Some(reason) = &d.allowed {
            let _ = write!(out, ", \"reason\": \"{}\"", escape(reason));
        }
        let _ = write!(out, " }}");
    }
    if !first {
        out.push_str("\n  ");
    }
    out.push(']');
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Diagnostic;

    fn result_with_one_violation() -> RunResult {
        RunResult {
            files_scanned: 3,
            diagnostics: vec![Diagnostic {
                rule: RuleId::Determinism,
                file: "crates/core/src/x.rs".to_string(),
                line: 7,
                column: 4,
                snippet: "let m = HashMap::new();".to_string(),
                message: "`HashMap`: nondeterministic".to_string(),
                suggestion: "use BTreeMap".to_string(),
                allowed: None,
            }],
            bodies_total: 40,
            bodies_parsed: 39,
            skipped_bodies: vec![(
                "crates/core/src/x.rs".to_string(),
                "odd".to_string(),
                3,
                "unshaped macro body".to_string(),
            )],
            ..RunResult::default()
        }
    }

    #[test]
    fn human_report_lists_violation_and_summary() {
        let text = human(&result_with_one_violation(), false);
        assert!(text.contains("crates/core/src/x.rs:7:4"));
        assert!(text.contains("R2-determinism"));
        assert!(text.contains("1 violation,"));
        assert!(text.contains("body coverage 97.5%"), "{text}");
    }

    #[test]
    fn json_report_has_counts_coverage_and_escapes() {
        let text = json(&result_with_one_violation());
        assert!(text.contains("\"schema\": 2"));
        assert!(text.contains("\"R2-determinism\": { \"violations\": 1, \"allowed\": 0 }"));
        assert!(text.contains("\"R6-allocfree\": { \"violations\": 0, \"allowed\": 0 }"));
        assert!(text.contains("\"bodies_parsed\": 39"));
        assert!(text.contains("\"percent\": 97.5"));
        assert!(text.contains("\"unshaped macro body\""));
        assert!(text.contains("\"clean\": false"));
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn ambiguous_entries_fail_the_run_and_are_reported() {
        let mut r = result_with_one_violation();
        r.diagnostics.clear();
        r.ambiguous_entries.push((
            crate::allowlist::AllowEntry {
                rule: RuleId::PanicDiscipline,
                file: "crates/a.rs".to_string(),
                pattern: "unwrap()".to_string(),
                reason: "audited".to_string(),
                defined_at: 12,
            },
            2,
        ));
        assert!(!r.is_clean());
        let text = human(&r, false);
        assert!(text.contains("ambiguous [[allow]] entry"), "{text}");
        assert!(text.contains("matches 2 diagnostics"), "{text}");
        let js = json(&r);
        assert!(
            js.contains("\"ambiguous_allowlist\": [{ \"rule\": \"R4-panic\""),
            "{js}"
        );
    }

    #[test]
    fn coverage_below_the_floor_is_not_clean() {
        let mut r = RunResult {
            bodies_total: 100,
            bodies_parsed: 94,
            ..RunResult::default()
        };
        assert!(!r.coverage_ok());
        assert!(!r.is_clean());
        r.bodies_parsed = 95;
        assert!(r.coverage_ok());
        assert!(r.is_clean());
    }
}
