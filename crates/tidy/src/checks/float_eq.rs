//! The float-equality lint for coordinate code.
//!
//! Exact `==`/`!=` on coordinates is almost always a robustness bug in
//! geometry code — predicates must go through the deliberate exact
//! comparisons in `geom::algorithms` (orientation tests, dedup of
//! *bit-identical* repeated vertices) or an epsilon. This check flags
//! float comparisons in `crates/geom/src` outside the approved
//! algorithm files; a justified exception is escaped inline with
//! `// tidy:allow(float-eq)`.

use crate::lexer::SourceFile;
use crate::{Finding, Tree};

pub const NAME: &str = "float-eq";

const SCOPE: &str = "crates/geom/src/";

/// Files where exact float comparison is part of the algorithm
/// (orientation zero-tests, bit-identical vertex dedup).
const APPROVED: [&str; 2] = [
    "crates/geom/src/algorithms/segment.rs",
    "crates/geom/src/algorithms/distance.rs",
];

const ALLOW: &str = "tidy:allow(float-eq)";

/// Checks `crates/geom/src` minus the approved list.
pub fn check(tree: &Tree) -> Vec<Finding> {
    let mut findings = Vec::new();
    for entry in tree.sources_under(SCOPE) {
        if APPROVED.contains(&entry.rel.as_str()) {
            continue;
        }
        findings.extend(check_file(&entry.rel, &entry.source));
    }
    findings
}

/// Flags float `==`/`!=` in one file's non-test code.
pub fn check_file(rel: &str, source: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (idx, line) in source.lines.iter().enumerate() {
        if line.in_test || line.raw.contains(ALLOW) {
            continue;
        }
        for (pos, op) in comparison_ops(&line.code) {
            let left = left_operand(&line.code[..pos]);
            let right = right_operand(&line.code[pos + 2..]);
            if is_floatish(&left) || is_floatish(&right) {
                findings.push(Finding {
                    check: NAME,
                    file: rel.to_string(),
                    line: idx + 1,
                    message: format!(
                        "exact float comparison `{left} {op} {right}` — compare with an \
                         epsilon, move it into an approved geom::algorithms file, or \
                         escape with `// {ALLOW}`"
                    ),
                });
            }
        }
    }
    findings
}

/// Byte positions of standalone `==` / `!=` operators.
fn comparison_ops(code: &str) -> Vec<(usize, &'static str)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let pair = &bytes[i..i + 2];
        let prev = i.checked_sub(1).map(|p| bytes[p]);
        let next = bytes.get(i + 2);
        let standalone = !matches!(prev, Some(b'=') | Some(b'!') | Some(b'<') | Some(b'>'))
            && next != Some(&b'=');
        if standalone && pair == b"==" {
            out.push((i, "=="));
            i += 2;
        } else if standalone && pair == b"!=" {
            out.push((i, "!="));
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

/// The token ending at the end of `prefix` (trailing operand of the
/// left side).
fn left_operand(prefix: &str) -> String {
    let trimmed = prefix.trim_end();
    let token: String = trimmed
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || matches!(c, '_' | '.' | ']' | '[' | ')' | '('))
        .collect();
    token.chars().rev().collect()
}

/// The token starting at the beginning of `suffix`.
fn right_operand(suffix: &str) -> String {
    suffix
        .trim_start()
        .chars()
        .take_while(|c| c.is_alphanumeric() || matches!(c, '_' | '.' | ']' | '[' | '-'))
        .collect()
}

/// Heuristic: does this operand look like a coordinate float?
fn is_floatish(token: &str) -> bool {
    if token.is_empty() {
        return false;
    }
    // Float literal: `0.0`, `1e-9`, `-3.5`.
    let numeric = token.trim_start_matches('-');
    if numeric.chars().next().is_some_and(|c| c.is_ascii_digit()) && numeric.contains('.') {
        return true;
    }
    // Coordinate accessors and envelope bounds.
    if token.ends_with(".x") || token.ends_with(".y") {
        return true;
    }
    for bound in ["min_x", "min_y", "max_x", "max_y"] {
        if token.ends_with(bound) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn float_literal_comparison_is_flagged() {
        let f = check_file("x.rs", &lex("fn f(d: f64) -> bool { d == 0.0 }\n"));
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("=="));
    }

    #[test]
    fn coordinate_accessor_comparison_is_flagged() {
        let f = check_file("x.rs", &lex("let same = a.x == b.x;\n"));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn bool_comparison_of_float_predicates_is_fine() {
        // The classic even-odd crossing test: `!=` on two bools.
        let f = check_file("x.rs", &lex("if (y1 > p.y) != (y2 > p.y) { c += 1; }\n"));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn integer_comparison_is_fine() {
        assert!(check_file("x.rs", &lex("if n == 0 { return; }\n")).is_empty());
        assert!(check_file("x.rs", &lex("while i != len { i += 1; }\n")).is_empty());
    }

    #[test]
    fn allow_escape_suppresses() {
        let src = "let same = a.x == b.x; // tidy:allow(float-eq): bit-identical dedup\n";
        assert!(check_file("x.rs", &lex(src)).is_empty());
    }

    #[test]
    fn test_code_is_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { assert!(x.y == 0.0); }\n}\n";
        assert!(check_file("x.rs", &lex(src)).is_empty());
    }

    #[test]
    fn le_and_ge_are_not_equality() {
        assert!(check_file("x.rs", &lex("if d <= 0.0 { return; }\n")).is_empty());
        assert!(check_file("x.rs", &lex("if d >= 0.0 { return; }\n")).is_empty());
    }
}
