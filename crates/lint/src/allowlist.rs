//! The `lint.toml` allowlist: audited violations, each carrying the
//! rationale that justifies it.
//!
//! The file is an array of `[[allow]]` tables. Every entry must name the
//! rule, the exact workspace-relative file, a `pattern` substring that
//! must appear on the flagged source line, and a non-empty `reason` the
//! lint prints with the site. The pattern is the only anchor: there is no
//! line-number key, so an entry survives edits that move its site. An
//! entry that matches no current diagnostic is **stale** and fails the
//! run: allowlists must shrink with the code they excuse, never outlive
//! it. An entry that matches *more than one* diagnostic is **ambiguous**
//! and also fails the run: every audit rationale must be anchored to
//! exactly the site it audited, or a new violation sharing the pattern
//! would be silently excused by an old reason (lengthen the pattern or
//! give the site a line of its own).
//!
//! The parser is a deliberately small TOML subset (the workspace vendors
//! no `toml` crate): `[[allow]]` headers, `key = "value"` pairs with
//! basic-string escapes, `key = 'value'` literal strings, comments, and
//! blank lines. Anything else is a hard error — an allowlist that cannot
//! be parsed must not silently allow nothing (or everything).

use crate::diag::{Diagnostic, RuleId};

/// One audited, justified violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// The rule being excused.
    pub rule: RuleId,
    /// Workspace-relative file, forward slashes, exact match.
    pub file: String,
    /// Substring that must occur on the flagged source line.
    pub pattern: String,
    /// Why the site is sound. Printed with the diagnostic.
    pub reason: String,
    /// 1-based line in `lint.toml` where the entry starts (for errors).
    pub defined_at: usize,
}

impl AllowEntry {
    /// Whether this entry covers the diagnostic.
    pub fn matches(&self, d: &Diagnostic) -> bool {
        self.rule == d.rule && self.file == d.file && d.snippet.contains(&self.pattern)
    }
}

/// What applying an allowlist found wrong with the allowlist itself.
#[derive(Debug, Default)]
pub struct ApplyOutcome {
    /// Entries that matched no diagnostic (the code they excused is
    /// gone — delete them).
    pub stale: Vec<AllowEntry>,
    /// Entries that matched more than one diagnostic, with the match
    /// count (lengthen the pattern or give the site a line of its own).
    pub ambiguous: Vec<(AllowEntry, usize)>,
}

/// The parsed allowlist.
#[derive(Debug, Default)]
pub struct Allowlist {
    /// Entries in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses `lint.toml` text. Returns the first error with its line
    /// number.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries: Vec<AllowEntry> = Vec::new();
        let mut current: Option<(usize, PartialEntry)> = None;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[allow]]" {
                if let Some((at, partial)) = current.take() {
                    entries.push(partial.finish(at)?);
                }
                current = Some((lineno, PartialEntry::default()));
                continue;
            }
            if line.starts_with('[') {
                return Err(format!(
                    "lint.toml:{lineno}: unknown table `{line}` (only [[allow]] is supported)"
                ));
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!(
                    "lint.toml:{lineno}: expected `key = \"value\"`, got `{line}`"
                ));
            };
            let key = key.trim();
            let Some((_, partial)) = current.as_mut() else {
                return Err(format!(
                    "lint.toml:{lineno}: `{key}` outside an [[allow]] entry"
                ));
            };
            let slot = match key {
                "rule" => &mut partial.rule,
                "file" => &mut partial.file,
                "pattern" => &mut partial.pattern,
                "reason" => &mut partial.reason,
                other => return Err(format!("lint.toml:{lineno}: unknown key `{other}`")),
            };
            let Some(value) = parse_string(value.trim()) else {
                return Err(format!(
                    "lint.toml:{lineno}: expected `key = \"value\"`, got `{line}`"
                ));
            };
            *slot = Some(value);
        }
        if let Some((at, partial)) = current.take() {
            entries.push(partial.finish(at)?);
        }
        Ok(Allowlist { entries })
    }

    /// Marks allowed diagnostics in place. Each entry must anchor to
    /// exactly one diagnostic: zero matches makes it stale, two or more
    /// make it ambiguous (and excuse nothing); both fail the run.
    pub fn apply(&self, diagnostics: &mut [Diagnostic]) -> ApplyOutcome {
        let mut outcome = ApplyOutcome::default();
        for e in &self.entries {
            let matched: Vec<usize> = diagnostics
                .iter()
                .enumerate()
                .filter(|(_, d)| e.matches(d))
                .map(|(i, _)| i)
                .collect();
            match matched.as_slice() {
                [] => outcome.stale.push(e.clone()),
                [one] => {
                    let d = &mut diagnostics[*one];
                    if d.allowed.is_none() {
                        d.allowed = Some(e.reason.clone());
                    }
                }
                many => outcome.ambiguous.push((e.clone(), many.len())),
            }
        }
        outcome
    }
}

#[derive(Debug, Default)]
struct PartialEntry {
    rule: Option<String>,
    file: Option<String>,
    pattern: Option<String>,
    reason: Option<String>,
}

impl PartialEntry {
    fn finish(self, at: usize) -> Result<AllowEntry, String> {
        let missing = |k: &str| format!("lint.toml:{at}: [[allow]] entry is missing `{k}`");
        let rule = self.rule.ok_or_else(|| missing("rule"))?;
        let rule = RuleId::parse(&rule)
            .ok_or_else(|| format!("lint.toml:{at}: unknown rule id `{rule}`"))?;
        let reason = self.reason.ok_or_else(|| missing("reason"))?;
        if reason.trim().is_empty() {
            return Err(format!(
                "lint.toml:{at}: [[allow]] entry has an empty `reason` — every excused \
                 violation must document why it is sound"
            ));
        }
        Ok(AllowEntry {
            rule,
            file: self.file.ok_or_else(|| missing("file"))?,
            pattern: self.pattern.ok_or_else(|| missing("pattern"))?,
            reason,
            defined_at: at,
        })
    }
}

/// Parses a `"basic"` or `'literal'` string value, returning it
/// unescaped. Trailing comments after the closing quote are ignored.
fn parse_string(rest: &str) -> Option<String> {
    let mut chars = rest.chars();
    let quote = chars.next()?;
    match quote {
        '"' => {
            let mut value = String::new();
            loop {
                match chars.next()? {
                    '\\' => match chars.next()? {
                        'n' => value.push('\n'),
                        't' => value.push('\t'),
                        c => value.push(c),
                    },
                    '"' => break,
                    c => value.push(c),
                }
            }
            Some(value)
        }
        '\'' => {
            let mut value = String::new();
            loop {
                match chars.next()? {
                    '\'' => break,
                    c => value.push(c),
                }
            }
            Some(value)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: RuleId, file: &str, snippet: &str) -> Diagnostic {
        Diagnostic {
            rule,
            file: file.to_string(),
            line: 1,
            column: 0,
            snippet: snippet.to_string(),
            message: String::new(),
            suggestion: String::new(),
            allowed: None,
        }
    }

    #[test]
    fn parses_entries_and_matches_diagnostics() {
        let toml = r#"
# audited sites
[[allow]]
rule = "R4-panic"
file = "crates/sim/src/event.rs"
pattern = 'expect("event times are finite")'
reason = "event times come from finite pmf support"
"#;
        let list = Allowlist::parse(toml).unwrap();
        assert_eq!(list.entries.len(), 1);
        let mut ds = vec![diag(
            RuleId::PanicDiscipline,
            "crates/sim/src/event.rs",
            r#".partial_cmp(&self.time).expect("event times are finite")"#,
        )];
        let outcome = list.apply(&mut ds);
        assert!(outcome.stale.is_empty());
        assert!(outcome.ambiguous.is_empty());
        assert!(ds[0].allowed.is_some());
    }

    #[test]
    fn unmatched_entries_are_reported_stale() {
        let toml = "[[allow]]\nrule = \"R4-panic\"\nfile = \"crates/x.rs\"\n\
                    pattern = \"gone()\"\nreason = \"was audited\"\n";
        let list = Allowlist::parse(toml).unwrap();
        let mut ds: Vec<Diagnostic> = Vec::new();
        let outcome = list.apply(&mut ds);
        assert_eq!(outcome.stale.len(), 1);
        assert_eq!(outcome.stale[0].pattern, "gone()");
    }

    #[test]
    fn wrong_rule_or_file_does_not_match() {
        let toml = "[[allow]]\nrule = \"R3-float\"\nfile = \"crates/a.rs\"\n\
                    pattern = \"x == 0.0\"\nreason = \"sentinel\"\n";
        let list = Allowlist::parse(toml).unwrap();
        let mut ds = vec![
            diag(RuleId::PanicDiscipline, "crates/a.rs", "x == 0.0"),
            diag(RuleId::FloatDiscipline, "crates/b.rs", "x == 0.0"),
        ];
        let outcome = list.apply(&mut ds);
        assert_eq!(outcome.stale.len(), 1);
        assert!(ds.iter().all(|d| d.allowed.is_none()));
    }

    #[test]
    fn an_entry_matching_two_diagnostics_is_ambiguous_and_excuses_neither() {
        let toml = "[[allow]]\nrule = \"R4-panic\"\nfile = \"crates/a.rs\"\n\
                    pattern = \"unwrap()\"\nreason = \"audited once\"\n";
        let list = Allowlist::parse(toml).unwrap();
        let mut ds = vec![
            diag(RuleId::PanicDiscipline, "crates/a.rs", "x.unwrap()"),
            diag(RuleId::PanicDiscipline, "crates/a.rs", "y.unwrap()"),
        ];
        let outcome = list.apply(&mut ds);
        assert_eq!(outcome.ambiguous.len(), 1);
        assert_eq!(outcome.ambiguous[0].1, 2);
        assert!(outcome.stale.is_empty());
        assert!(ds.iter().all(|d| d.allowed.is_none()));
    }

    #[test]
    fn a_line_pin_is_an_unknown_key() {
        let toml = "[[allow]]\nrule = \"R4-panic\"\nfile = \"f\"\npattern = \"p\"\n\
                    line = 9\nreason = \"r\"\n";
        let err = Allowlist::parse(toml).unwrap_err();
        assert!(err.contains("lint.toml:5: unknown key `line`"), "{err}");
    }

    #[test]
    fn non_integer_line_values_are_rejected() {
        // A quoted value has the shape of every accepted key, so this
        // checks that `line` is refused by name, not by its value's form.
        let toml = "[[allow]]\nrule = \"R4-panic\"\nfile = \"f\"\npattern = \"p\"\n\
                    line = \"9\"\nreason = \"r\"\n";
        let err = Allowlist::parse(toml).unwrap_err();
        assert!(err.contains("lint.toml:5: unknown key `line`"), "{err}");
    }

    #[test]
    fn missing_or_empty_reason_is_rejected() {
        let no_reason = "[[allow]]\nrule = \"R4-panic\"\nfile = \"f\"\npattern = \"p\"\n";
        assert!(Allowlist::parse(no_reason).unwrap_err().contains("reason"));
        let empty =
            "[[allow]]\nrule = \"R4-panic\"\nfile = \"f\"\npattern = \"p\"\nreason = \"  \"\n";
        assert!(Allowlist::parse(empty).unwrap_err().contains("empty"));
    }

    #[test]
    fn unknown_rules_keys_and_tables_are_rejected() {
        assert!(Allowlist::parse("[[allow]]\nrule = \"R9-x\"\n")
            .unwrap_err()
            .contains("unknown rule id `R9-x`"));
        assert!(Allowlist::parse("[[allow]]\nrle = \"R4-panic\"\n").is_err());
        assert!(Allowlist::parse("[[allow]]\nfile = f\n").is_err());
        assert!(Allowlist::parse("[settings]\n").is_err());
        assert!(Allowlist::parse("rule = \"R4-panic\"\n").is_err());
    }

    #[test]
    fn empty_and_comment_only_files_parse() {
        assert!(Allowlist::parse("").unwrap().entries.is_empty());
        assert!(Allowlist::parse("# nothing here\n\n")
            .unwrap()
            .entries
            .is_empty());
    }
}
