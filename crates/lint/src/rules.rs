//! The rule set: each rule guards one project invariant that is
//! otherwise enforced only by tests (see `docs/ARCHITECTURE.md` §6 for
//! the rule → invariant map).
//!
//! Rules pattern-match short token runs — `Ident("std") Punct(':')
//! Punct(':') Ident("fs")` — over the comment-and-string-safe stream
//! from [`crate::tokenizer`], restricted to the files and non-test
//! scopes where the invariant holds. Matching on tokens rather than
//! text is what makes `// std::fs is banned here` and `"std::fs"`
//! inside a diagnostic message non-findings.

use std::collections::HashSet;

use crate::scope;
use crate::tokenizer::{TokKind, Token};
use crate::{Diagnostic, FileCtx};

/// Every rule name, in reporting order. Allow directives must name one
/// of these.
pub const RULE_NAMES: [&str; 5] = [
    "vfs-completeness",
    "determinism",
    "poison-discipline",
    "no-panic-in-prod",
    "obs-handle-discipline",
];

/// One element of a token pattern.
#[derive(Clone, Copy)]
enum Pat<'a> {
    /// An exact identifier.
    I(&'a str),
    /// One of several identifiers.
    OneOf(&'a [&'a str]),
    /// An exact punctuation char.
    P(char),
}

/// Whether the pattern matches the token run starting at `i`.
fn seq(tokens: &[Token], i: usize, pat: &[Pat]) -> bool {
    if i + pat.len() > tokens.len() {
        return false;
    }
    pat.iter().zip(&tokens[i..]).all(|(p, t)| match *p {
        Pat::I(s) => t.is_ident(s),
        Pat::OneOf(ss) => t.kind == TokKind::Ident && ss.contains(&t.text.as_str()),
        Pat::P(c) => t.is_punct(c),
    })
}

/// Shared context handed to each rule.
pub struct RuleInput<'a> {
    pub ctx: &'a FileCtx,
    pub tokens: &'a [Token],
    /// `test[i]` — token `i` is test code (file-level or span-level).
    pub test: &'a [bool],
    /// `fn` body spans for enclosing-function checks.
    pub fn_spans: &'a [(usize, usize)],
}

impl RuleInput<'_> {
    fn diag(&self, rule: &'static str, line: u32, msg: String) -> Diagnostic {
        Diagnostic { rule, file: self.ctx.rel.clone(), line, msg }
    }
}

/// Runs every rule over one file.
pub fn run_all(input: &RuleInput<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    vfs_completeness(input, &mut out);
    determinism(input, &mut out);
    poison_discipline(input, &mut out);
    no_panic_in_prod(input, &mut out);
    obs_handle_discipline(input, &mut out);
    out
}

// ---------------------------------------------------------------------
// Rule 1: vfs-completeness
// ---------------------------------------------------------------------

/// Storage and SQL production code must do *all* file I/O through the
/// `Vfs` boundary — a direct `std::fs` call is a hole the
/// fault-injection torture harness (`FaultVfs`) can never exercise, so
/// the crash-recovery invariant ("recovery is always a committed-group
/// prefix") would hold only on the paths tests happen to reach.
fn vfs_completeness(input: &RuleInput<'_>, out: &mut Vec<Diagnostic>) {
    let rel = input.ctx.rel.as_str();
    let scoped = (rel.starts_with("crates/storage/src/") && !rel.ends_with("/vfs.rs"))
        || rel.starts_with("crates/sql/src/");
    if !scoped || input.ctx.is_test_file {
        return;
    }
    const RULE: &str = "vfs-completeness";
    for i in 0..input.tokens.len() {
        if input.test[i] {
            continue;
        }
        let t = &input.tokens[i];
        if seq(input.tokens, i, &[Pat::I("std"), Pat::P(':'), Pat::P(':'), Pat::I("fs")]) {
            out.push(input.diag(
                RULE,
                t.line,
                "direct `std::fs` call bypasses the Vfs boundary (fault injection cannot see it); route it through `Vfs`/`VfsFile`".into(),
            ));
        } else if seq(
            input.tokens,
            i,
            &[Pat::I("File"), Pat::P(':'), Pat::P(':'), Pat::OneOf(&["open", "create"])],
        ) {
            out.push(input.diag(
                RULE,
                t.line,
                "`File::open`/`File::create` bypasses the Vfs boundary; use `Vfs::open` with an `OpenMode`".into(),
            ));
        } else if t.is_ident("OpenOptions") {
            out.push(input.diag(
                RULE,
                t.line,
                "`OpenOptions` bypasses the Vfs boundary; extend `OpenMode` instead if no mode fits".into(),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Rule 2: determinism
// ---------------------------------------------------------------------

/// Paths where the determinism invariant is proven ("byte-identical
/// output at every worker count; replica ≡ primary at every shipped
/// prefix"): the executor, normalize, prob, the codec and the
/// replication apply loop.
fn determinism_scoped(rel: &str) -> bool {
    rel.starts_with("crates/core/src/exec/")
        || rel == "crates/core/src/normalize.rs"
        || rel == "crates/core/src/prob.rs"
        || rel == "crates/core/src/codec.rs"
        || rel == "crates/sql/src/replication.rs"
}

/// No wall-clock reads, unseeded randomness, or direct `HashMap` /
/// `HashSet` iteration on the deterministic paths. Hash iteration
/// order is the classic silent killer: it differs run to run, so a
/// `for (k, v) in &map` that feeds output order breaks byte-identity at
/// some worker count, someday, in a way no single test run catches.
fn determinism(input: &RuleInput<'_>, out: &mut Vec<Diagnostic>) {
    if !determinism_scoped(&input.ctx.rel) || input.ctx.is_test_file {
        return;
    }
    const RULE: &str = "determinism";
    let hash_names = hash_typed_names(input.tokens);
    const ITER_METHODS: [&str; 8] =
        ["iter", "iter_mut", "keys", "values", "values_mut", "into_iter", "into_keys", "into_values"];
    for i in 0..input.tokens.len() {
        if input.test[i] {
            continue;
        }
        let t = &input.tokens[i];
        if seq(
            input.tokens,
            i,
            &[Pat::OneOf(&["Instant", "SystemTime"]), Pat::P(':'), Pat::P(':'), Pat::I("now")],
        ) {
            out.push(input.diag(
                RULE,
                t.line,
                format!(
                    "`{}::now` on a deterministic path; wall clock must not influence output (observability-only uses need a justified allow)",
                    t.text
                ),
            ));
        } else if seq(input.tokens, i, &[Pat::OneOf(&["thread_rng", "from_entropy"]), Pat::P('(')]) {
            out.push(input.diag(
                RULE,
                t.line,
                format!("`{}` is unseeded randomness on a deterministic path; derive seeds from explicit inputs", t.text),
            ));
        } else if t.kind == TokKind::Ident
            && hash_names.contains(t.text.as_str())
            && seq(input.tokens, i + 1, &[Pat::P('.'), Pat::OneOf(&ITER_METHODS), Pat::P('(')])
        {
            out.push(input.diag(
                RULE,
                t.line,
                format!(
                    "iteration over hash-ordered `{}` on a deterministic path; sort before use or iterate a BTree/indexed structure (justify with an allow if order provably cannot leak)",
                    t.text
                ),
            ));
        } else if t.is_ident("in") {
            // `for … in [&][mut] path.to.name {` — the last segment of a
            // dotted path is checked against the hash-typed names
            let mut j = i + 1;
            while j < input.tokens.len()
                && (input.tokens[j].is_punct('&') || input.tokens[j].is_ident("mut"))
            {
                j += 1;
            }
            let mut last_ident: Option<usize> = None;
            while j < input.tokens.len() {
                if input.tokens[j].kind == TokKind::Ident {
                    last_ident = Some(j);
                    j += 1;
                    if j < input.tokens.len() && input.tokens[j].is_punct('.') {
                        j += 1;
                        continue;
                    }
                }
                break;
            }
            if let Some(k) = last_ident {
                if input.tokens.get(j).is_some_and(|t| t.is_punct('{'))
                    && hash_names.contains(input.tokens[k].text.as_str())
                {
                    out.push(input.diag(
                        RULE,
                        input.tokens[k].line,
                        format!(
                            "`for … in {}` iterates a hash-ordered structure on a deterministic path",
                            input.tokens[k].text
                        ),
                    ));
                }
            }
        }
    }
}

/// Identifiers bound to a `HashMap`/`HashSet` anywhere in the file:
/// `name: [&[mut]] HashMap<…>` (declarations, params, struct fields)
/// and `name = [path::]HashMap::…` initializations. A heuristic — it
/// has no type inference — but one that catches exactly the "I iterated
/// the map I just built" shape real regressions take.
fn hash_typed_names(tokens: &[Token]) -> HashSet<String> {
    let mut names = HashSet::new();
    const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];
    for i in 0..tokens.len() {
        if tokens[i].kind != TokKind::Ident {
            continue;
        }
        // name : [&] [mut] HashMap
        if tokens.get(i + 1).is_some_and(|t| t.is_punct(':')) {
            let mut j = i + 2;
            while j < tokens.len() && (tokens[j].is_punct('&') || tokens[j].is_ident("mut")) {
                j += 1;
            }
            if tokens.get(j).is_some_and(|t| HASH_TYPES.contains(&t.text.as_str())) {
                names.insert(tokens[i].text.clone());
                continue;
            }
        }
        // name = [std :: collections ::] HashMap :: …
        if tokens.get(i + 1).is_some_and(|t| t.is_punct('=')) {
            let mut j = i + 2;
            while j < tokens.len()
                && (tokens[j].is_punct(':')
                    || tokens[j].is_ident("std")
                    || tokens[j].is_ident("collections"))
            {
                j += 1;
            }
            if tokens.get(j).is_some_and(|t| HASH_TYPES.contains(&t.text.as_str()))
                && tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
            {
                names.insert(tokens[i].text.clone());
            }
        }
    }
    names
}

// ---------------------------------------------------------------------
// Rule 3: poison-discipline
// ---------------------------------------------------------------------

/// Durability paths where a swallowed `Result` can silently skip
/// poisoning or degrade-to-read-only: the WAL, checkpointing, snapshot
/// and delta publication, and the session commit path.
fn poison_scoped(rel: &str) -> bool {
    rel.starts_with("crates/sql/src/session/")
        || matches!(
            rel,
            "crates/storage/src/wal.rs"
                | "crates/storage/src/db.rs"
                | "crates/storage/src/snapshot.rs"
                | "crates/storage/src/delta.rs"
        )
}

/// No discarded `Result`s on durability paths. A dropped error from
/// `Wal::append` or a checkpoint publish is how "never ack a commit
/// whose fsync failed" (PR 6) silently stops being true.
fn poison_discipline(input: &RuleInput<'_>, out: &mut Vec<Diagnostic>) {
    if !poison_scoped(&input.ctx.rel) || input.ctx.is_test_file {
        return;
    }
    const RULE: &str = "poison-discipline";
    for i in 0..input.tokens.len() {
        if input.test[i] {
            continue;
        }
        let t = &input.tokens[i];
        if seq(input.tokens, i, &[Pat::I("let"), Pat::I("_"), Pat::P('=')]) {
            out.push(input.diag(
                RULE,
                t.line,
                "`let _ =` discards a result on a durability path; handle the error, poison/degrade, or justify with an allow".into(),
            ));
        } else if seq(input.tokens, i, &[Pat::P('.'), Pat::I("ok"), Pat::P('('), Pat::P(')'), Pat::P(';')]) {
            out.push(input.diag(
                RULE,
                t.line,
                "`.ok();` discards a Result on a durability path; handle the error or justify with an allow".into(),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Rule 4: no-panic-in-prod
// ---------------------------------------------------------------------

/// Production code of the four engine crates must not reach for
/// `unwrap`/`expect`/`panic!` without stating *why the failure case is
/// impossible or fail-stop is intended* — a bare unwrap on a fallible
/// path turns a recoverable `SessionError` into a crashed process
/// serving nobody.
fn no_panic_in_prod(input: &RuleInput<'_>, out: &mut Vec<Diagnostic>) {
    let rel = input.ctx.rel.as_str();
    let scoped = ["crates/core/src/", "crates/sql/src/", "crates/storage/src/", "crates/obs/src/"]
        .iter()
        .any(|p| rel.starts_with(p));
    if !scoped || input.ctx.is_test_file {
        return;
    }
    const RULE: &str = "no-panic-in-prod";
    for i in 0..input.tokens.len() {
        if input.test[i] {
            continue;
        }
        if seq(input.tokens, i, &[Pat::P('.'), Pat::OneOf(&["unwrap", "expect"]), Pat::P('(')]) {
            let t = &input.tokens[i + 1];
            out.push(input.diag(
                RULE,
                t.line,
                format!("`.{}(…)` in production code; return an error or justify why this cannot fail", t.text),
            ));
        } else if seq(
            input.tokens,
            i,
            &[Pat::OneOf(&["panic", "unreachable", "todo", "unimplemented"]), Pat::P('!')],
        ) {
            let t = &input.tokens[i];
            out.push(input.diag(
                RULE,
                t.line,
                format!("`{}!` in production code; return an error or justify why this cannot fire", t.text),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Rule 5: obs-handle-discipline
// ---------------------------------------------------------------------

/// Metric *name lookups* (`maybms_obs::counter("…")`) hash the name and
/// take the registry lock — PR 8's hot-path contract is that they
/// happen once, inside a `OnceLock` handle initializer, never per
/// operation. This rule pins that contract: a lookup is legal only
/// inside a function that also mentions `OnceLock` (the
/// `fn metrics()`-style initializer shape every instrumented module
/// uses).
fn obs_handle_discipline(input: &RuleInput<'_>, out: &mut Vec<Diagnostic>) {
    let rel = input.ctx.rel.as_str();
    let scoped = ["crates/core/src/", "crates/sql/src/", "crates/storage/src/", "crates/census/src/"]
        .iter()
        .any(|p| rel.starts_with(p));
    if !scoped || input.ctx.is_test_file {
        return;
    }
    const RULE: &str = "obs-handle-discipline";
    const LOOKUPS: [&str; 3] = ["counter", "gauge", "histogram"];
    for i in 0..input.tokens.len() {
        if input.test[i] {
            continue;
        }
        let hit = if seq(
            input.tokens,
            i,
            &[Pat::I("maybms_obs"), Pat::P(':'), Pat::P(':'), Pat::OneOf(&LOOKUPS), Pat::P('(')],
        ) {
            Some(i + 3)
        } else if seq(
            input.tokens,
            i,
            &[Pat::I("registry"), Pat::P('('), Pat::P(')'), Pat::P('.'), Pat::OneOf(&LOOKUPS), Pat::P('(')],
        ) {
            Some(i + 4)
        } else {
            None
        };
        let Some(name_idx) = hit else { continue };
        let ok = scope::enclosing_fn(input.fn_spans, i).is_some_and(|(o, c)| {
            input.tokens[o..=c]
                .iter()
                .any(|t| t.is_ident("OnceLock") || t.is_ident("get_or_init"))
        });
        if !ok {
            out.push(input.diag(
                RULE,
                input.tokens[name_idx].line,
                format!(
                    "metric name lookup `{}(…)` outside a OnceLock handle initializer; resolve handles once and reuse them (PR 8 hot-path contract)",
                    input.tokens[name_idx].text
                ),
            ));
        }
    }
}
