//! A hand-rolled Rust lexer — just enough fidelity for token-pattern
//! linting.
//!
//! The goal is *never to misread what is code*: comments (line and block,
//! including nested block comments), string literals (plain, raw with any
//! number of `#`s, byte strings), and char literals (vs. lifetimes) must
//! all be skipped exactly, or the rules would fire on prose. Everything
//! that *is* code comes out as a flat token stream with line numbers;
//! no parsing beyond that is attempted.

/// What kind of token this is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`HashMap`, `for`, `unwrap`, …).
    Ident,
    /// A single punctuation character (`.`, `:`, `!`, `{`, …).
    Punct,
    /// A lifetime (`'a`, `'static`) — *not* a char literal.
    Lifetime,
    /// A char literal (`'x'`, `'\n'`).
    Char,
    /// A string literal of any flavor (plain, raw, byte).
    Str,
    /// A numeric literal.
    Num,
}

/// One token with its 1-based source line.
#[derive(Clone, Debug)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Source text (for `Punct`, the single character; for `Str`, the
    /// contents are not preserved — rules never look inside strings).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: usize,
}

/// An `// ec-lint: allow(rule-a, rule-b)` suppression found in a comment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Suppression {
    /// 1-based line of the comment.
    pub line: usize,
    /// The suppressed rule name (one `Suppression` per name).
    pub rule: String,
}

/// The lexed form of one source file.
#[derive(Clone, Debug, Default)]
pub struct LexedFile {
    /// All code tokens in source order.
    pub tokens: Vec<Tok>,
    /// Inline suppressions collected from comments.
    pub suppressions: Vec<Suppression>,
}

const ALLOW_MARKER: &str = "ec-lint: allow(";

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Extracts `ec-lint: allow(...)` rule names from a comment's text.
///
/// Only well-formed rule names (lowercase ASCII, digits, `-`) register:
/// prose like `allow(<rule>)` in documentation stays inert instead of
/// becoming a pseudo-suppression the `unused-suppression` rule would flag.
fn scan_comment(text: &str, line: usize, out: &mut Vec<Suppression>) {
    let Some(pos) = text.find(ALLOW_MARKER) else { return };
    let rest = &text[pos + ALLOW_MARKER.len()..];
    let Some(close) = rest.find(')') else { return };
    for rule in rest[..close].split(',') {
        let rule = rule.trim();
        let well_formed = !rule.is_empty()
            && rule.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-');
        if well_formed {
            out.push(Suppression { line, rule: rule.to_string() });
        }
    }
}

/// Lexes `src` into tokens plus suppression comments. Never fails: on a
/// malformed tail (unterminated string/comment) the remainder is consumed
/// as the current token and lexing ends.
pub fn lex(src: &str) -> LexedFile {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut i = 0usize;
    let mut line = 1usize;
    let mut out = LexedFile::default();

    macro_rules! bump {
        () => {{
            if b[i] == '\n' {
                line += 1;
            }
            i += 1;
        }};
    }

    while i < n {
        let c = b[i];
        // Whitespace.
        if c.is_whitespace() {
            bump!();
            continue;
        }
        // Line comment (also doc comments `///`, `//!`).
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let start = i;
            while i < n && b[i] != '\n' {
                i += 1;
            }
            let text: String = b[start..i].iter().collect();
            scan_comment(&text, line, &mut out.suppressions);
            continue; // the `\n` is consumed by the whitespace arm
        }
        // Block comment, possibly nested.
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let start = i;
            let start_line = line;
            let mut depth = 0usize;
            while i < n {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    bump!();
                }
            }
            let text: String = b[start..i.min(n)].iter().collect();
            scan_comment(&text, start_line, &mut out.suppressions);
            continue;
        }
        // Raw strings: r"..."  r#"..."#  br##"..."## — any hash count.
        if c == 'r' || c == 'b' {
            let mut j = i;
            if b[j] == 'b' && j + 1 < n && b[j + 1] == 'r' {
                j += 2;
            } else if b[j] == 'r' {
                j += 1;
            } else if b[j] == 'b' && j + 1 < n && b[j + 1] == '"' {
                // Byte string b"..." — handled by the plain-string arm below
                // after skipping the prefix.
                j += 1;
            } else {
                j = i; // plain identifier starting with r/b
            }
            if j > i && j < n && (b[j] == '"' || b[j] == '#') {
                let is_raw = b[j - 1] == 'r';
                if is_raw {
                    let mut hashes = 0usize;
                    while j < n && b[j] == '#' {
                        hashes += 1;
                        j += 1;
                    }
                    if j < n && b[j] == '"' {
                        // Found `r#*"`: scan to `"` followed by `hashes` #s.
                        let tok_line = line;
                        // Recount lines across the skipped region.
                        while i < j {
                            bump!();
                        }
                        bump!(); // opening quote
                        loop {
                            if i >= n {
                                break;
                            }
                            if b[i] == '"' {
                                let mut k = 0usize;
                                while k < hashes && i + 1 + k < n && b[i + 1 + k] == '#' {
                                    k += 1;
                                }
                                if k == hashes {
                                    bump!();
                                    for _ in 0..hashes {
                                        bump!();
                                    }
                                    break;
                                }
                            }
                            bump!();
                        }
                        out.tokens.push(Tok {
                            kind: TokKind::Str,
                            text: String::new(),
                            line: tok_line,
                        });
                        continue;
                    }
                    // `r#ident` (raw identifier) or stray `r#` — fall through
                    // to the identifier arm.
                } else {
                    // b"..." — plain string with a prefix byte.
                    let tok_line = line;
                    while i < j {
                        bump!();
                    }
                    lex_plain_string(&b, &mut i, &mut line);
                    out.tokens.push(Tok {
                        kind: TokKind::Str,
                        text: String::new(),
                        line: tok_line,
                    });
                    continue;
                }
            }
        }
        // Plain string.
        if c == '"' {
            let tok_line = line;
            lex_plain_string(&b, &mut i, &mut line);
            out.tokens.push(Tok { kind: TokKind::Str, text: String::new(), line: tok_line });
            continue;
        }
        // Lifetime or char literal.
        if c == '\'' {
            let tok_line = line;
            // `'\...'` is always a char literal.
            if i + 1 < n && b[i + 1] == '\\' {
                i += 2; // quote + backslash
                if i < n {
                    i += 1; // escaped char (or escape head, e.g. `u`)
                }
                while i < n && b[i] != '\'' {
                    bump!();
                }
                if i < n {
                    i += 1; // closing quote
                }
                out.tokens.push(Tok { kind: TokKind::Char, text: String::new(), line: tok_line });
                continue;
            }
            // `'X'` (any single non-quote char then a quote) is a char
            // literal; `'ident` with no closing quote is a lifetime.
            if i + 2 < n && b[i + 1] != '\'' && b[i + 2] == '\'' && !is_ident_continue(b[i + 2]) {
                bump!();
                bump!();
                bump!();
                out.tokens.push(Tok { kind: TokKind::Char, text: String::new(), line: tok_line });
                continue;
            }
            if i + 1 < n && is_ident_start(b[i + 1]) {
                // Lifetime: consume `'` + identifier.
                bump!();
                let start = i;
                while i < n && is_ident_continue(b[i]) {
                    i += 1;
                }
                let text: String = b[start..i].iter().collect();
                out.tokens.push(Tok { kind: TokKind::Lifetime, text, line: tok_line });
                continue;
            }
            // Degenerate (`'`, then punctuation): emit as punct.
            out.tokens.push(Tok { kind: TokKind::Punct, text: "'".into(), line: tok_line });
            bump!();
            continue;
        }
        // Identifier / keyword (including `r#raw` identifiers).
        if is_ident_start(c) {
            let start = i;
            while i < n && is_ident_continue(b[i]) {
                i += 1;
            }
            // Raw identifier prefix `r#` glues to the following ident.
            if i < n
                && b[i] == '#'
                && i + 1 < n
                && is_ident_start(b[i + 1])
                && (i - start) == 1
                && (b[start] == 'r' || b[start] == 'b')
            {
                i += 1;
                while i < n && is_ident_continue(b[i]) {
                    i += 1;
                }
            }
            let text: String = b[start..i].iter().collect();
            out.tokens.push(Tok { kind: TokKind::Ident, text, line });
            continue;
        }
        // Number: digits, then alnum/underscore (type suffixes, hex), and a
        // fractional part when the dot is followed by a digit (so `0..n`
        // keeps its range dots as punctuation).
        if c.is_ascii_digit() {
            let start = i;
            while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            if i + 1 < n && b[i] == '.' && b[i + 1].is_ascii_digit() {
                i += 1;
                while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
            }
            let text: String = b[start..i].iter().collect();
            out.tokens.push(Tok { kind: TokKind::Num, text, line });
            continue;
        }
        // Everything else: one punct char.
        out.tokens.push(Tok { kind: TokKind::Punct, text: c.to_string(), line });
        bump!();
    }
    out
}

/// Consumes a `"…"` string starting at `*i` (the opening quote), honoring
/// backslash escapes; updates the line counter for embedded newlines.
fn lex_plain_string(b: &[char], i: &mut usize, line: &mut usize) {
    debug_assert_eq!(b[*i], '"');
    *i += 1;
    while *i < b.len() {
        match b[*i] {
            '\\' => {
                *i += 2; // skip the escape pair (covers \" and \\)
            }
            '"' => {
                *i += 1;
                return;
            }
            c => {
                if c == '\n' {
                    *line += 1;
                }
                *i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text).collect()
    }

    #[test]
    fn comments_are_skipped() {
        let src = "let a = 1; // HashMap here is prose\nlet b = 2;";
        assert_eq!(idents(src), ["let", "a", "let", "b"]);
    }

    #[test]
    fn nested_block_comments_are_skipped_entirely() {
        let src = "before /* outer /* inner HashMap */ still comment */ after";
        assert_eq!(idents(src), ["before", "after"]);
    }

    #[test]
    fn block_comment_tracks_lines() {
        let src = "/* line one\nline two */ token";
        let f = lex(src);
        assert_eq!(f.tokens[0].line, 2);
    }

    #[test]
    fn strings_are_opaque() {
        let src = r#"let s = "HashMap .iter() \" quoted"; next"#;
        assert_eq!(idents(src), ["let", "s", "next"]);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r###"let s = r#"contains "quotes" and HashMap"#; after"###;
        assert_eq!(idents(src), ["let", "s", "after"]);
    }

    #[test]
    fn raw_strings_with_two_hashes() {
        let src = "let s = r##\"one \"# hash inside\"##; tail";
        assert_eq!(idents(src), ["let", "s", "tail"]);
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let src = "let a = b\"bytes HashMap\"; let c = br#\"raw bytes\"#; done";
        assert_eq!(idents(src), ["let", "a", "let", "c", "done"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'static str { x }";
        let f = lex(src);
        let lifetimes: Vec<_> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lifetimes, ["a", "a", "static"]);
    }

    #[test]
    fn char_literals_are_not_lifetimes() {
        let src = r"let c = 'x'; let q = '\''; let nl = '\n'; let u = '\u{1F600}'; end";
        let f = lex(src);
        let chars = f.tokens.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(chars, 4);
        assert_eq!(f.tokens.iter().filter(|t| t.kind == TokKind::Lifetime).count(), 0);
        assert_eq!(f.tokens.last().unwrap().text, "end");
    }

    #[test]
    fn char_literal_with_punctuation_payload() {
        let src = "let open = '('; let quote = '\"'; tail";
        let f = lex(src);
        assert_eq!(f.tokens.iter().filter(|t| t.kind == TokKind::Char).count(), 2);
        assert_eq!(idents(src), ["let", "open", "let", "quote", "tail"]);
    }

    #[test]
    fn range_dots_stay_punctuation() {
        let f = lex("for i in 0..10 {}");
        let puncts: String =
            f.tokens.iter().filter(|t| t.kind == TokKind::Punct).map(|t| t.text.as_str()).collect();
        assert!(puncts.contains(".."), "range dots lost: {puncts}");
    }

    #[test]
    fn floats_consume_their_dot() {
        let f = lex("let x = 1.5;");
        let nums: Vec<_> =
            f.tokens.iter().filter(|t| t.kind == TokKind::Num).map(|t| t.text.clone()).collect();
        assert_eq!(nums, ["1.5"]);
    }

    #[test]
    fn suppression_comments_are_collected() {
        let src = "let a = 1; // ec-lint: allow(wire-hygiene, no-panic-hot-path)\nlet b = 2;";
        let f = lex(src);
        assert_eq!(
            f.suppressions,
            vec![
                Suppression { line: 1, rule: "wire-hygiene".into() },
                Suppression { line: 1, rule: "no-panic-hot-path".into() },
            ]
        );
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let s = \"line\nbreak\";\nInstant";
        let f = lex(src);
        let inst = f.tokens.iter().find(|t| t.text == "Instant").unwrap();
        assert_eq!(inst.line, 3);
    }
}
