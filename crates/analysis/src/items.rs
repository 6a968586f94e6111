//! A lightweight item parser over the token stream.
//!
//! It recovers just the structure the rules need: function spans (with
//! names, inside modules, `impl` and `trait` bodies alike) and which spans
//! are test code (`#[cfg(test)]` items, `#[test]` functions, `mod tests`).
//! It is *not* a full grammar — bodies are tracked by delimiter balancing,
//! which the lexer makes safe by swallowing literals and comments. Which
//! trait methods an `impl` defines and which variants an `enum` has are
//! rustc's to check (required trait methods, exhaustive `match`), so the
//! parser does not record them.

use crate::lexer::{Token, TokenKind};

/// A function item (free function, method, or trait default body).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Token-index range of the body, `start..end` (exclusive) — the tokens
    /// strictly between the body braces. Empty for bodiless trait methods.
    pub body: std::ops::Range<usize>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the function lives in test code.
    pub in_test: bool,
}

/// The structural view of one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Every function with a recovered span.
    pub fns: Vec<FnItem>,
}

/// Parses the token stream of one file.
pub fn parse(tokens: &[Token]) -> ParsedFile {
    let mut parsed = ParsedFile::default();
    let mut parser = Parser {
        tokens,
        out: &mut parsed,
    };
    let mut i = 0;
    parser.items(&mut i, false);
    parsed
}

struct Parser<'a> {
    tokens: &'a [Token],
    out: &'a mut ParsedFile,
}

impl Parser<'_> {
    /// Parses items until end-of-tokens or an unmatched `}` (the caller's
    /// closing brace). `in_test` marks the whole scope as test code.
    fn items(&mut self, i: &mut usize, in_test: bool) {
        // Test-ness granted by an attribute applies to the next item only.
        let mut pending_test = false;
        while *i < self.tokens.len() {
            let tok = &self.tokens[*i];
            match &tok.kind {
                TokenKind::Punct('}') => return, // caller consumes it
                TokenKind::Punct('#') => {
                    pending_test |= self.attribute(i);
                }
                TokenKind::Punct('{') => {
                    // A stray block at item level (e.g. inside a macro body).
                    *i += 1;
                    self.items(i, in_test || pending_test);
                    self.expect_close(i);
                    pending_test = false;
                }
                TokenKind::Punct('(') | TokenKind::Punct('[') => {
                    self.balanced(i);
                }
                TokenKind::Ident(word) => match word.as_str() {
                    "fn" => {
                        self.function(i, in_test || pending_test);
                        pending_test = false;
                    }
                    "mod" => {
                        self.module(i, in_test || pending_test);
                        pending_test = false;
                    }
                    "impl" | "trait" => {
                        self.skip_to_body_and_recurse(i, in_test || pending_test);
                        pending_test = false;
                    }
                    "struct" | "enum" | "union" | "type" | "static" | "const" | "use"
                    | "extern" => {
                        self.skip_item(i);
                        pending_test = false;
                    }
                    "macro_rules" => {
                        // macro_rules! name { … }
                        *i += 1; // macro_rules
                        while *i < self.tokens.len() && !self.open_delim(*i) {
                            *i += 1;
                        }
                        self.balanced(i);
                        pending_test = false;
                    }
                    _ => *i += 1, // pub, unsafe, async, idents in macros, …
                },
                _ => *i += 1,
            }
        }
    }

    fn open_delim(&self, idx: usize) -> bool {
        matches!(
            self.tokens.get(idx).map(|t| &t.kind),
            Some(TokenKind::Punct('{' | '(' | '['))
        )
    }

    /// Consumes a balanced delimiter group starting at an opener. Tolerant:
    /// at end-of-tokens it simply stops.
    fn balanced(&mut self, i: &mut usize) {
        let mut depth = 0usize;
        while *i < self.tokens.len() {
            match self.tokens[*i].kind {
                TokenKind::Punct('{' | '(' | '[') => depth += 1,
                TokenKind::Punct('}' | ')' | ']') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        *i += 1;
                        return;
                    }
                }
                _ => {}
            }
            *i += 1;
        }
    }

    fn expect_close(&self, i: &mut usize) {
        if matches!(
            self.tokens.get(*i).map(|t| &t.kind),
            Some(TokenKind::Punct('}'))
        ) {
            *i += 1;
        }
    }

    /// Consumes `#[…]` / `#![…]`; returns true when it marks test code
    /// (`#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]`, …).
    fn attribute(&mut self, i: &mut usize) -> bool {
        *i += 1; // '#'
        if matches!(
            self.tokens.get(*i).map(|t| &t.kind),
            Some(TokenKind::Punct('!'))
        ) {
            *i += 1;
        }
        let start = *i;
        self.balanced(i); // the [...] group
        let body = &self.tokens[start..*i];
        let has = |name: &str| body.iter().any(|t| t.ident() == Some(name));
        // `#[test]` is exactly `[ test ]`; `#[cfg(test)]`-style attributes
        // count unless the `test` is negated (`#[cfg(not(test))]` is *non*-
        // test code and must stay in scope for the rules).
        let bare_test = body.len() == 3 && body[1].ident() == Some("test");
        bare_test || (has("cfg") && has("test") && !has("not"))
    }

    /// `fn name …` — records the item and consumes through the body.
    fn function(&mut self, i: &mut usize, in_test: bool) {
        let line = self.tokens[*i].line;
        *i += 1; // fn
        let name = match self.tokens.get(*i).and_then(|t| t.ident()) {
            Some(name) => name.to_owned(),
            None => return, // `fn` inside a macro pattern; skip the keyword
        };
        *i += 1;
        // Scan the signature for the body `{` or a bodiless `;`. Parens and
        // brackets in the signature are skipped as balanced groups so a
        // default argument or array type cannot fool the scan.
        while *i < self.tokens.len() {
            match self.tokens[*i].kind {
                TokenKind::Punct(';') => {
                    *i += 1;
                    self.record_fn(name, 0..0, line, in_test);
                    return;
                }
                TokenKind::Punct('{') => break,
                TokenKind::Punct('(') | TokenKind::Punct('[') => self.balanced(i),
                _ => *i += 1,
            }
        }
        if *i >= self.tokens.len() {
            self.record_fn(name, 0..0, line, in_test);
            return;
        }
        let body_start = *i + 1;
        self.balanced(i); // the body { … }
        let body_end = i.saturating_sub(1);
        self.record_fn(name, body_start..body_end, line, in_test);
    }

    fn record_fn(&mut self, name: String, body: std::ops::Range<usize>, line: u32, in_test: bool) {
        self.out.fns.push(FnItem {
            name,
            body,
            line,
            in_test,
        });
    }

    fn module(&mut self, i: &mut usize, in_test: bool) {
        *i += 1; // mod
        let name = self.tokens.get(*i).and_then(|t| t.ident()).unwrap_or("");
        // `mod tests` without the cfg attribute is still, by convention,
        // test code in this workspace.
        let is_test = in_test || name == "tests";
        *i += 1;
        match self.tokens.get(*i).map(|t| &t.kind) {
            Some(TokenKind::Punct('{')) => {
                *i += 1;
                self.items(i, is_test);
                self.expect_close(i);
            }
            Some(TokenKind::Punct(';')) => *i += 1,
            _ => {}
        }
    }

    /// `impl … { items }` / `trait Name … { items }` — the methods (and a
    /// trait's bodiless declarations) inside get recorded.
    fn skip_to_body_and_recurse(&mut self, i: &mut usize, in_test: bool) {
        *i += 1; // impl / trait
        while *i < self.tokens.len() && !self.tokens[*i].is_punct('{') {
            match self.tokens[*i].kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') => self.balanced(i),
                _ => *i += 1,
            }
        }
        if matches!(
            self.tokens.get(*i).map(|t| &t.kind),
            Some(TokenKind::Punct('{'))
        ) {
            *i += 1;
            self.items(i, in_test);
            self.expect_close(i);
        }
    }

    /// Items that end at `;` or at a balanced brace body (struct, const, …).
    fn skip_item(&mut self, i: &mut usize) {
        *i += 1; // keyword
        let mut depth = 0usize;
        while *i < self.tokens.len() {
            match self.tokens[*i].kind {
                TokenKind::Punct('{' | '(' | '[') => depth += 1,
                TokenKind::Punct(')' | ']') => depth = depth.saturating_sub(1),
                TokenKind::Punct('}') => {
                    if depth == 0 {
                        return; // parent scope's closing brace
                    }
                    depth -= 1;
                    if depth == 0 {
                        // `struct X { … }` ends at its brace body.
                        *i += 1;
                        return;
                    }
                }
                TokenKind::Punct(';') if depth == 0 => {
                    *i += 1;
                    return;
                }
                _ => {}
            }
            *i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        parse(&lex(src).tokens)
    }

    #[test]
    fn finds_functions_and_test_scopes() {
        let parsed = parse_src(
            "fn hot() { step(); }\n\
             #[cfg(test)]\nmod tests {\n  #[test]\n  fn check() { hot(); }\n}\n\
             fn also_hot() {}",
        );
        let names: Vec<(&str, bool)> = parsed
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.in_test))
            .collect();
        assert_eq!(
            names,
            vec![("hot", false), ("check", true), ("also_hot", false)]
        );
    }

    #[test]
    fn impl_bodies_record_their_methods() {
        let parsed = parse_src(
            "impl<T: Fn(u8) -> [u8; 2]> PacketBuffer for MyBuf<T> where T: Send {\n\
               fn step(&mut self) {}\n\
               fn step_batch(&mut self) {}\n\
             }\n\
             #[cfg(test)]\n\
             impl MyBuf<u32> { fn helper(&self) {} }",
        );
        let names: Vec<(&str, bool)> = parsed
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.in_test))
            .collect();
        assert_eq!(
            names,
            vec![("step", false), ("step_batch", false), ("helper", true)]
        );
    }

    #[test]
    fn enum_bodies_are_skipped_as_items() {
        let parsed = parse_src(
            "pub enum DesignKind { DramOnly, Rads, Cfds }\n\
             enum Mixed { A(u32), B { x: u64 }, C = 4, D }\n\
             fn after() {}",
        );
        let names: Vec<&str> = parsed.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["after"]);
    }

    #[test]
    fn fn_bodies_span_nested_blocks() {
        let parsed = parse_src("fn outer() { if x { y(); } match z { _ => {} } }\nfn next() {}");
        assert_eq!(parsed.fns.len(), 2);
        assert!(parsed.fns[0].body.len() > parsed.fns[1].body.len());
    }

    #[test]
    fn trait_decls_record_bodiless_methods() {
        let parsed = parse_src(
            "trait PacketBuffer {\n\
               fn step(&mut self);\n\
               fn advance_idle(&mut self, n: u64) { for _ in 0..n { self.step(); } }\n\
             }",
        );
        let names: Vec<&str> = parsed.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["step", "advance_idle"]);
        assert!(parsed.fns[0].body.is_empty());
        assert!(!parsed.fns[1].body.is_empty());
    }
}
