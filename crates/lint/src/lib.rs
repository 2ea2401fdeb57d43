//! # maybms-lint
//!
//! A dependency-free static analyzer that proves the workspace's
//! *project invariants* at the source level on every CI run. The
//! repo's strongest guarantees — recovery is a committed-group prefix,
//! execution is byte-identical at every worker count, observability is
//! inert — are enforced by tests, and every one of them can be silently
//! broken by a single careless edit that no unit test happens to cross.
//! This crate closes that gap: a hand-rolled, comment/string/raw-string
//! aware tokenizer ([`tokenizer`]), test-scope and function-span
//! tracking (`scope`, internal), and a rule engine ([`rules`]) that
//! reports `file:line` diagnostics and exits nonzero.
//!
//! ## Escape hatch
//!
//! A finding that is *intended* is silenced inline, with a mandatory
//! justification:
//!
//! ```text
//! // maybms-lint: allow(no-panic-in-prod) -- mutex poisoning means a sibling already panicked; fail-stop is intended
//! let s = self.state.lock().expect("queue poisoned");
//! ```
//!
//! An own-line directive covers the next line of code; a trailing
//! directive covers its own line. `allow(rule-a, rule-b)` covers
//! several rules at once. Directives without a `-- justification`, with
//! unknown rule names, or that suppress nothing are **errors
//! themselves** — the allow list can only ever shrink truthfully.
//!
//! ## Adding a rule
//!
//! See `docs/ARCHITECTURE.md` §6: add the name to
//! [`rules::RULE_NAMES`], write the token-pattern check in
//! `src/rules.rs` scoped to the files where the invariant holds, and
//! add one positive, one negative and one justified-allow fixture under
//! `tests/fixtures/`.

#![forbid(unsafe_code)]

pub mod rules;
mod scope;
pub mod tokenizer;

use std::path::{Path, PathBuf};

use tokenizer::Comment;

/// One finding: a rule violation or a directive problem.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The rule name, or `"directive"` for allow-directive errors.
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub msg: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "error[{}]: {}:{}: {}", self.rule, self.file, self.line, self.msg)
    }
}

/// Where a file sits in the workspace, for rule scoping.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Whole file is test code (an integration `tests/` directory, or a
    /// `tests.rs` module file — the same rule `scripts/loc.sh` counts by).
    pub is_test_file: bool,
}

/// A parsed `maybms-lint: allow(…)` directive.
#[derive(Debug)]
struct Directive {
    rules: Vec<String>,
    justified: bool,
    /// The line of code this directive covers.
    bound_line: u32,
    /// Where the directive itself lives (for reporting).
    comment_line: u32,
    used: bool,
}

/// Parses a directive out of one comment, if present. `Err` carries a
/// malformed-directive message.
fn parse_directive(c: &Comment, bound_line: u32) -> Option<Result<Directive, String>> {
    // doc comments talk *about* directives (rustdoc examples, rule
    // documentation); only plain `//` / `/* */` comments carry them
    if c.text.starts_with("///") || c.text.starts_with("//!") || c.text.starts_with("/**") || c.text.starts_with("/*!") {
        return None;
    }
    let marker = "maybms-lint:";
    let at = c.text.find(marker)?;
    let rest = c.text[at + marker.len()..].trim_start();
    let Some(inner) = rest.strip_prefix("allow(").and_then(|r| r.split_once(')')) else {
        return Some(Err(format!(
            "malformed directive: expected `maybms-lint: allow(<rule>) -- <justification>`, got `{}`",
            rest.trim_end()
        )));
    };
    let (names, tail) = inner;
    let rules: Vec<String> =
        names.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect();
    if rules.is_empty() {
        return Some(Err("directive names no rules".into()));
    }
    let justified = tail
        .split_once("--")
        .is_some_and(|(_, justification)| !justification.trim().is_empty());
    Some(Ok(Directive { rules, justified, bound_line, comment_line: c.line, used: false }))
}

/// Lints one file's source text. `rel` must be the workspace-relative
/// path with forward slashes (it drives rule scoping).
pub fn lint_source(rel: &str, src: &str) -> Vec<Diagnostic> {
    let ctx = FileCtx { rel: rel.to_string(), is_test_file: is_test_path(rel) };
    let lexed = tokenizer::tokenize(src);
    let test = scope::test_mask(&lexed.tokens);
    let fn_spans = scope::fn_spans(&lexed.tokens);
    let input =
        rules::RuleInput { ctx: &ctx, tokens: &lexed.tokens, test: &test, fn_spans: &fn_spans };
    let raw = rules::run_all(&input);

    // resolve allow directives
    let mut directives = Vec::new();
    let mut out = Vec::new();
    for c in &lexed.comments {
        let bound_line = if c.own_line {
            lexed.tokens.get(c.next_token).map(|t| t.line).unwrap_or(c.end_line + 1)
        } else {
            c.line
        };
        match parse_directive(c, bound_line) {
            None => {}
            Some(Ok(d)) => {
                for r in &d.rules {
                    if !rules::RULE_NAMES.contains(&r.as_str()) {
                        out.push(Diagnostic {
                            rule: "directive",
                            file: rel.to_string(),
                            line: c.line,
                            msg: format!(
                                "unknown rule `{r}` in allow directive (known: {})",
                                rules::RULE_NAMES.join(", ")
                            ),
                        });
                    }
                }
                directives.push(d);
            }
            Some(Err(msg)) => {
                out.push(Diagnostic { rule: "directive", file: rel.to_string(), line: c.line, msg });
            }
        }
    }

    for d in raw {
        let allowed = directives.iter_mut().find(|dir| {
            dir.bound_line == d.line && dir.rules.iter().any(|r| r == d.rule)
        });
        match allowed {
            Some(dir) => {
                dir.used = true;
                if !dir.justified {
                    out.push(Diagnostic {
                        rule: "directive",
                        file: rel.to_string(),
                        line: dir.comment_line,
                        msg: format!(
                            "allow({}) has no justification; write `-- <why this is sound>`",
                            d.rule
                        ),
                    });
                }
            }
            None => out.push(d),
        }
    }

    for dir in &directives {
        if !dir.used {
            out.push(Diagnostic {
                rule: "directive",
                file: rel.to_string(),
                line: dir.comment_line,
                msg: format!(
                    "unused allow({}) directive: nothing on line {} triggers it — remove it",
                    dir.rules.join(", "),
                    dir.bound_line
                ),
            });
        }
    }

    out.sort_by_key(|d| d.line);
    out
}

/// Whether a workspace-relative path is test-only by position.
fn is_test_path(rel: &str) -> bool {
    rel.split('/').any(|seg| seg == "tests" || seg == "tests.rs")
}

/// Directories never descended into.
const SKIP_DIRS: [&str; 5] = ["target", ".git", "fixtures", "node_modules", ".github"];

/// Walks the workspace rooted at `root` and lints every `.rs` file.
/// Returns all diagnostics plus the number of files scanned.
pub fn lint_workspace(root: &Path) -> std::io::Result<(Vec<Diagnostic>, usize)> {
    let mut files = Vec::new();
    collect_rs(root, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for f in &files {
        let src = std::fs::read_to_string(f)?;
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        out.extend(lint_source(&rel, &src));
    }
    Ok((out, files.len()))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}
