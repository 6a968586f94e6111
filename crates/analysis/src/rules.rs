//! The rule families. Each rule walks the token stream / item tree of the
//! files in its configured scope and emits [`Diagnostic`]s.
//!
//! | rule | severity | scope | backstopped by |
//! |------|----------|-------|----------------|
//! | `hotpath-alloc` | error | hot files, non-setup fns | `tests/alloc_free_steady_state.rs` |
//! | `panic-freedom` | error | hot files, non-setup fns | differential suites (a panic aborts them) |
//! | `unchecked-indexing` | warning | hot files | `clippy::indexing_slicing` + debug asserts |
//! | `determinism` | error | report-feeding modules | thread-count-invariance tests |
//! | `truncating-cast` | warning | report-feeding modules | proptest ordinal ranges |

use crate::config::Config;
use crate::items::ParsedFile;
use crate::lexer::{Token, TokenKind};
use crate::report::{Diagnostic, Severity};

/// Everything a per-file rule needs about one file.
#[derive(Debug)]
pub struct FileContext<'a> {
    /// Workspace-relative path, forward slashes.
    pub path: &'a str,
    /// The token stream.
    pub tokens: &'a [Token],
    /// The item tree.
    pub parsed: &'a ParsedFile,
}

/// Whether `path` is one of the configured hot files.
pub fn is_hot_file(config: &Config, path: &str) -> bool {
    config.hot_files.iter().any(|f| f == path)
}

/// Whether `path` lives in a determinism-scoped module.
pub fn is_determinism_path(config: &Config, path: &str) -> bool {
    config
        .determinism_paths
        .iter()
        .any(|prefix| path == prefix || path.starts_with(&format!("{prefix}/")))
}

/// Token index ranges that belong to test code (bodies of `#[cfg(test)]` /
/// `#[test]` functions).
fn test_ranges(parsed: &ParsedFile) -> Vec<std::ops::Range<usize>> {
    parsed
        .fns
        .iter()
        .filter(|f| f.in_test)
        .map(|f| f.body.clone())
        .collect()
}

fn in_ranges(ranges: &[std::ops::Range<usize>], idx: usize) -> bool {
    ranges.iter().any(|r| r.contains(&idx))
}

/// Matches `recv . name (`-style method calls at `tokens[i]` being the `.`.
fn method_call_at(tokens: &[Token], i: usize) -> Option<(&str, u32)> {
    if !tokens[i].is_punct('.') {
        return None;
    }
    let name = tokens.get(i + 1)?.ident()?;
    // Allow a turbofish between name and the call parens.
    let mut j = i + 2;
    if tokens.get(j).is_some_and(|t| t.is_punct(':')) {
        // `::<…>(`: skip to the matching `>` then expect `(`.
        let mut angle = 0i32;
        while let Some(tok) = tokens.get(j) {
            match tok.kind {
                TokenKind::Punct('<') => angle += 1,
                TokenKind::Punct('>') => {
                    angle -= 1;
                    if angle == 0 {
                        j += 1;
                        break;
                    }
                }
                TokenKind::Punct('(') => return None,
                _ => {}
            }
            j += 1;
        }
    }
    if tokens.get(j).is_some_and(|t| t.is_punct('(')) {
        Some((name, tokens[i + 1].line))
    } else {
        None
    }
}

/// Matches `Type :: name` at `tokens[i]` being the type identifier.
fn path_call_at(tokens: &[Token], i: usize) -> Option<(&str, &str, u32)> {
    let ty = tokens[i].ident()?;
    if !tokens.get(i + 1)?.is_punct(':') || !tokens.get(i + 2)?.is_punct(':') {
        return None;
    }
    let name = tokens.get(i + 3)?.ident()?;
    Some((ty, name, tokens[i].line))
}

/// Token spans covered by `debug_assert*!(…)` (and plain `assert*!(…)`)
/// macro arguments: panicking helpers inside them *are* the assertion.
fn assertion_spans(tokens: &[Token]) -> Vec<std::ops::Range<usize>> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let is_assert = tokens[i]
            .ident()
            .is_some_and(|name| name.starts_with("debug_assert") || name.starts_with("assert"));
        if is_assert && tokens.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            let start = i;
            let mut depth = 0i32;
            let mut j = i + 2;
            while let Some(tok) = tokens.get(j) {
                match tok.kind {
                    TokenKind::Punct('(' | '[' | '{') => depth += 1,
                    TokenKind::Punct(')' | ']' | '}') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            spans.push(start..j + 1);
            i = j + 1;
        } else {
            i += 1;
        }
    }
    spans
}

/// `hotpath-alloc`: allocating constructs in the steady-state slot loop.
pub fn hotpath_alloc(ctx: &FileContext<'_>, config: &Config, out: &mut Vec<Diagnostic>) {
    const ALLOCATING_TYPES: [&str; 8] = [
        "Vec", "VecDeque", "String", "Box", "HashMap", "HashSet", "BTreeMap", "BTreeSet",
    ];
    const ALLOCATING_CTORS: [&str; 4] = ["new", "with_capacity", "from", "from_iter"];
    const ALLOCATING_METHODS: [&str; 4] = ["collect", "to_vec", "to_string", "to_owned"];
    const ALLOCATING_MACROS: [&str; 2] = ["vec", "format"];
    for func in &ctx.parsed.fns {
        if func.in_test || func.body.is_empty() || config.is_setup_function(&func.name) {
            continue;
        }
        let body = &ctx.tokens[func.body.clone()];
        for i in 0..body.len() {
            let hit: Option<(String, u32)> = if let Some((ty, ctor, line)) = path_call_at(body, i) {
                (ALLOCATING_TYPES.contains(&ty) && ALLOCATING_CTORS.contains(&ctor))
                    .then(|| (format!("{ty}::{ctor}"), line))
            } else if let Some((name, line)) = method_call_at(body, i) {
                ALLOCATING_METHODS
                    .contains(&name)
                    .then(|| (format!(".{name}()"), line))
            } else if let Some(mac) = body[i].ident() {
                (ALLOCATING_MACROS.contains(&mac)
                    && body.get(i + 1).is_some_and(|t| t.is_punct('!')))
                .then(|| (format!("{mac}!"), body[i].line))
            } else {
                None
            };
            if let Some((construct, line)) = hit {
                out.push(Diagnostic::new(
                    "hotpath-alloc",
                    Severity::Error,
                    ctx.path,
                    line,
                    format!(
                        "allocating construct `{construct}` in hot function `{}`: the \
                         steady-state slot loop is allocation-free (PR-3 invariant, \
                         counted by tests/alloc_free_steady_state.rs); move the \
                         allocation to a setup function or waive it",
                        func.name
                    ),
                ));
            }
        }
    }
}

/// `panic-freedom` + `unchecked-indexing`: the slot loop must not carry
/// accidental panic sources.
pub fn panic_freedom(ctx: &FileContext<'_>, config: &Config, out: &mut Vec<Diagnostic>) {
    const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
    let mut index_sites = 0usize;
    let mut first_index_line = 0u32;
    for func in &ctx.parsed.fns {
        if func.in_test || func.body.is_empty() || config.is_setup_function(&func.name) {
            continue;
        }
        let body = &ctx.tokens[func.body.clone()];
        let assertions = assertion_spans(body);
        for i in 0..body.len() {
            if in_ranges(&assertions, i) {
                continue;
            }
            if let Some((name, line)) = method_call_at(body, i) {
                if name == "unwrap" || name == "expect" {
                    out.push(Diagnostic::new(
                        "panic-freedom",
                        Severity::Error,
                        ctx.path,
                        line,
                        format!(
                            "`.{name}()` in hot function `{}`: a panic aborts the slot \
                             loop mid-batch; handle the case, prove it impossible with \
                             a debug_assert, or waive with the invariant that holds",
                            func.name
                        ),
                    ));
                }
                continue;
            }
            if let Some(mac) = body[i].ident() {
                if PANIC_MACROS.contains(&mac) && body.get(i + 1).is_some_and(|t| t.is_punct('!')) {
                    out.push(Diagnostic::new(
                        "panic-freedom",
                        Severity::Error,
                        ctx.path,
                        body[i].line,
                        format!("`{mac}!` in hot function `{}`", func.name),
                    ));
                    continue;
                }
            }
            // Index expression: `[` preceded by an ident or a closing
            // delimiter is indexing/slicing, not an array literal.
            if body[i].is_punct('[') && i > 0 {
                let prev = &body[i - 1];
                let is_receiver = matches!(prev.kind, TokenKind::Ident(_))
                    || prev.is_punct(')')
                    || prev.is_punct(']');
                if is_receiver {
                    if index_sites == 0 {
                        first_index_line = body[i].line;
                    }
                    index_sites += 1;
                }
            }
        }
    }
    if index_sites > 0 {
        out.push(Diagnostic::new(
            "unchecked-indexing",
            Severity::Warning,
            ctx.path,
            first_index_line,
            format!(
                "{index_sites} unchecked index expression(s) in hot functions: each \
                 relies on a debug_assert'd in-bounds invariant (advisory; see the \
                 clippy::indexing_slicing note in Cargo.toml)"
            ),
        ));
    }
}

/// `determinism` + `truncating-cast`: report-feeding modules must be
/// byte-reproducible across runs, hosts, and thread counts.
pub fn determinism(ctx: &FileContext<'_>, config: &Config, out: &mut Vec<Diagnostic>) {
    let tests = test_ranges(ctx.parsed);
    let tokens = ctx.tokens;
    for i in 0..tokens.len() {
        if in_ranges(&tests, i) {
            continue;
        }
        let Some(word) = tokens[i].ident() else {
            continue;
        };
        let line = tokens[i].line;
        match word {
            "HashMap" | "HashSet" => {
                out.push(Diagnostic::new(
                    "determinism",
                    Severity::Error,
                    ctx.path,
                    line,
                    format!(
                        "`{word}` in a report-feeding module: hash iteration order \
                         varies across processes, so anything it touches can leak \
                         into a report; use BTreeMap/Vec, or waive with a proof that \
                         no iteration order reaches serialized output"
                    ),
                ));
            }
            "Instant" | "SystemTime" => {
                out.push(Diagnostic::new(
                    "determinism",
                    Severity::Error,
                    ctx.path,
                    line,
                    format!(
                        "`{word}` in a report-feeding module: wall-clock values make \
                         reports non-reproducible (byte-identical reports are the \
                         LabRunner contract)"
                    ),
                ));
            }
            "time" if i > 0 && path_is(tokens, i - 1, "std") => {
                // `std::time` usage that doesn't name Instant/SystemTime
                // directly (e.g. `use std::time::…`).
                out.push(Diagnostic::new(
                    "determinism",
                    Severity::Error,
                    ctx.path,
                    line,
                    "`std::time` import in a report-feeding module".to_owned(),
                ));
            }
            "thread_rng" | "from_entropy" => {
                out.push(Diagnostic::new(
                    "determinism",
                    Severity::Error,
                    ctx.path,
                    line,
                    format!(
                        "`{word}` in a report-feeding module: unseeded randomness \
                         breaks replay; every stream derives from an explicit seed \
                         (see traffic::stream_seed)"
                    ),
                ));
            }
            "as" => {
                let Some(target) = tokens.get(i + 1).and_then(|t| t.ident()) else {
                    continue;
                };
                if !matches!(target, "u8" | "u16" | "u32" | "i8" | "i16" | "i32") {
                    continue;
                }
                // Look back a few tokens for slot/ordinal-flavoured operands.
                let stemmed = tokens[i.saturating_sub(4)..i]
                    .iter()
                    .rev()
                    .filter_map(|t| t.ident())
                    .find(|name| {
                        let lower = name.to_ascii_lowercase();
                        config.ordinal_stems.iter().any(|stem| lower.contains(stem))
                    });
                if let Some(operand) = stemmed {
                    out.push(Diagnostic::new(
                        "truncating-cast",
                        Severity::Warning,
                        ctx.path,
                        line,
                        format!(
                            "`{operand} as {target}` truncates 64-bit slot/ordinal \
                             arithmetic; use try_from or widen the target type"
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
}

/// Whether `tokens[i]` begins the path segment `name ::` (looking backward
/// from a segment that followed it).
fn path_is(tokens: &[Token], i: usize, name: &str) -> bool {
    // tokens[i] is expected to be the second ':' of `name::`.
    i >= 2
        && tokens[i].is_punct(':')
        && tokens[i - 1].is_punct(':')
        && tokens[i - 2].ident() == Some(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run_hot(src: &str) -> Vec<Diagnostic> {
        let lexed = lex(src);
        let parsed = crate::items::parse(&lexed.tokens);
        let config = crate::config::Config::from_toml(
            "[hotpath]\nfiles = [\"hot.rs\"]\nsetup_functions = [\"new\"]\n\
             [determinism]\npaths = [\"hot.rs\"]\n",
        )
        .expect("test config parses");
        let ctx = FileContext {
            path: "hot.rs",
            tokens: &lexed.tokens,
            parsed: &parsed,
        };
        let mut out = Vec::new();
        hotpath_alloc(&ctx, &config, &mut out);
        panic_freedom(&ctx, &config, &mut out);
        determinism(&ctx, &config, &mut out);
        out
    }

    #[test]
    fn alloc_in_hot_fn_fires_but_setup_does_not() {
        let diags =
            run_hot("fn new() -> V { Vec::with_capacity(4) }\nfn step() { let v = vec![0]; }");
        let rules: Vec<&str> = diags.iter().map(|d| d.rule.as_str()).collect();
        assert!(rules.contains(&"hotpath-alloc"));
        assert_eq!(
            diags.iter().filter(|d| d.rule == "hotpath-alloc").count(),
            1
        );
    }

    #[test]
    fn unwrap_inside_debug_assert_is_exempt() {
        let diags = run_hot(
            "fn step(&mut self) {\n\
               debug_assert!(self.check().unwrap());\n\
               let v = self.slot.unwrap();\n\
             }",
        );
        assert_eq!(
            diags.iter().filter(|d| d.rule == "panic-freedom").count(),
            1
        );
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn turbofish_collect_is_caught() {
        let diags = run_hot("fn step() { let v = iter.collect::<Vec<_>>(); }");
        assert!(diags.iter().any(|d| d.rule == "hotpath-alloc"));
    }

    #[test]
    fn truncating_slot_cast_warns_but_plain_cast_does_not() {
        let diags =
            run_hot("fn step(slot: u64, n: u64) { let a = slot as u32; let b = n as u32; }");
        let casts: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.rule == "truncating-cast")
            .collect();
        assert_eq!(casts.len(), 1);
        assert!(casts[0].message.contains("slot as u32"));
    }

    #[test]
    fn test_code_is_out_of_scope() {
        let diags = run_hot(
            "#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { let v = vec![HashMap::new()]; v.unwrap(); }\n}",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }
}
