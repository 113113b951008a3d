//! A minimal Rust lexer: just enough to walk struct fields, function
//! bodies, and call sites without pulling in an external parser.
//!
//! String/char/byte literals never pollute the identifier stream — a string
//! containing `.lock()` can't add a lock-order edge — but string literals
//! are kept as [`TokKind::Str`] tokens carrying their content, because the
//! metrics-registry rule must see the actual name passed to
//! `CounterSet::incr` and friends. Raw strings (`r#"…"#`, any hash depth)
//! and nested block comments are handled exactly, so a `//` or `"` inside
//! either can never desynchronize the scan. Comments are collected
//! separately with their line ranges (for `lint:allow` and `SAFETY:`
//! directives). The lexer is deliberately permissive: malformed input
//! produces a best-effort token stream rather than an error, because a file
//! that does not lex will fail `cargo build` anyway.

/// What a token is. Only the distinctions the rules need are kept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unwrap`, `unsafe`, `presto_common`, ...).
    Ident,
    /// A single punctuation character (`.`, `(`, `{`, `#`, `!`, ...).
    Punct(char),
    /// The `::` path separator.
    PathSep,
    /// A lifetime (`'a`) — kept distinct so it is never confused with a
    /// char literal.
    Lifetime,
    /// A numeric literal. Char literals are dropped entirely.
    Number,
    /// A string or byte-string literal; `text` holds the content between
    /// the quotes (raw content for `r"…"`/`r#"…"#`, escapes unprocessed).
    Str,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    /// Identifier text or string-literal content; empty otherwise.
    pub text: String,
    pub line: u32,
}

impl Tok {
    /// Is this token the identifier `name`?
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// Is this token the punctuation `c`?
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }

    /// Is this token a string literal?
    pub fn is_str(&self) -> bool {
        self.kind == TokKind::Str
    }
}

/// A comment with the 1-based line range it covers (inclusive).
#[derive(Debug, Clone)]
pub struct Comment {
    pub start_line: u32,
    pub end_line: u32,
    pub text: String,
}

/// Lexer output: the token stream plus every comment.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Tok>,
    pub comments: Vec<Comment>,
}

/// Tokenize `src`, keeping string literals as [`TokKind::Str`] tokens and
/// collecting comments.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    start_line: line,
                    end_line: line,
                    text: src[start..i].to_string(),
                });
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let (start, start_line) = (i, line);
                // Block comments nest: `/* a /* b */ c */` is ONE comment.
                // Track depth so the inner `*/` can't end the outer scan —
                // otherwise the tail would leak into the token stream.
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                out.comments.push(Comment {
                    start_line,
                    end_line: line,
                    text: src[start..i].to_string(),
                });
            }
            b'"' => {
                let start_line = line;
                let end = skip_string(b, i, &mut line);
                // content excludes the closing quote when the literal closed
                let content_end =
                    if end > i + 1 && b.get(end - 1) == Some(&b'"') { end - 1 } else { end };
                out.tokens.push(Tok {
                    kind: TokKind::Str,
                    text: string_content(src, i + 1, content_end),
                    line: start_line,
                });
                i = end;
            }
            b'\'' => {
                // Lifetime `'a` vs char literal `'x'` / `'\n'`: a lifetime is
                // `'` + ident chars with no closing quote.
                let next = b.get(i + 1).copied();
                let after = b.get(i + 2).copied();
                let is_lifetime = matches!(next, Some(n) if is_ident_char(n))
                    && next != Some(b'\\')
                    && after != Some(b'\'');
                if is_lifetime {
                    i += 1;
                    while i < b.len() && is_ident_char(b[i]) {
                        i += 1;
                    }
                    out.tokens.push(Tok { kind: TokKind::Lifetime, text: String::new(), line });
                } else {
                    i = skip_char_literal(b, i, &mut line);
                }
            }
            b':' if b.get(i + 1) == Some(&b':') => {
                out.tokens.push(Tok { kind: TokKind::PathSep, text: String::new(), line });
                i += 2;
            }
            c if c.is_ascii_digit() => {
                // numbers, incl. `1_000u64`, `0xff`, `1.5` (but not `1..2`)
                i += 1;
                while i < b.len() {
                    let fraction_dot = b[i] == b'.'
                        && b.get(i + 1).is_some_and(|n| n.is_ascii_digit())
                        && b.get(i.wrapping_sub(1)) != Some(&b'.');
                    if is_ident_char(b[i]) || fraction_dot {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.tokens.push(Tok { kind: TokKind::Number, text: String::new(), line });
            }
            c if is_ident_start(c) => {
                // Raw/byte string prefixes (`r"`, `r#"`, `b"`, `br#"`) and
                // raw identifiers (`r#match`) start with ident characters.
                let start_line = line;
                if let Some((end, content)) = try_raw_or_byte_string(b, i, &mut line) {
                    // byte-char literals (`b'x'`) carry no content and are
                    // dropped like char literals
                    if let Some((cs, ce)) = content {
                        out.tokens.push(Tok {
                            kind: TokKind::Str,
                            text: string_content(src, cs, ce),
                            line: start_line,
                        });
                    }
                    i = end;
                    continue;
                }
                if c == b'r'
                    && b.get(i + 1) == Some(&b'#')
                    && b.get(i + 2).is_some_and(|n| is_ident_start(*n))
                {
                    i += 2; // raw identifier: lex the ident part
                }
                let start = i;
                while i < b.len() && is_ident_char(b[i]) {
                    i += 1;
                }
                out.tokens.push(Tok {
                    kind: TokKind::Ident,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            c => {
                out.tokens.push(Tok { kind: TokKind::Punct(c as char), text: String::new(), line });
                i += 1;
            }
        }
    }
    out
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Literal content between byte offsets, lossy on the (ASCII-delimited)
/// boundaries; `end` points one past the closing delimiter.
fn string_content(src: &str, content_start: usize, content_end: usize) -> String {
    if content_end <= content_start || content_end > src.len() {
        return String::new();
    }
    String::from_utf8_lossy(&src.as_bytes()[content_start..content_end]).into_owned()
}

/// Skip a normal (escaped) string literal starting at the opening `"`;
/// returns the index one past the closing quote.
fn skip_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    i += 1;
    while i < b.len() {
        match b[i] {
            // an escaped newline (line continuation) still ends a line
            b'\\' => {
                if b.get(i + 1) == Some(&b'\n') {
                    *line += 1;
                }
                i += 2;
            }
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skip a char/byte-char literal starting at the opening `'`.
fn skip_char_literal(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    i += 1;
    while i < b.len() {
        match b[i] {
            b'\\' => {
                if b.get(i + 1) == Some(&b'\n') {
                    *line += 1;
                }
                i += 2;
            }
            b'\'' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// If position `i` starts a raw/byte string (`r"`, `r#*"`, `b"`, `br#*"`)
/// or a byte-char (`b'x'`), skip it and return `(end, content)`: the index
/// past the literal plus the byte range of its string content (None for
/// byte-chars, which are dropped). Returns `None` when `i` is an ordinary
/// identifier.
#[allow(clippy::type_complexity)]
fn try_raw_or_byte_string(
    b: &[u8],
    i: usize,
    line: &mut u32,
) -> Option<(usize, Option<(usize, usize)>)> {
    let mut j = i;
    let mut raw = false;
    match b[j] {
        b'r' => {
            raw = true;
            j += 1;
        }
        b'b' => {
            j += 1;
            if b.get(j) == Some(&b'r') {
                raw = true;
                j += 1;
            }
        }
        _ => return None,
    }
    if raw {
        let mut hashes = 0usize;
        while b.get(j) == Some(&b'#') {
            hashes += 1;
            j += 1;
        }
        if b.get(j) != Some(&b'"') {
            return None;
        }
        j += 1;
        let content_start = j;
        // A raw string has no escapes: it ends at the first `"` followed by
        // exactly as many `#` as opened it. Anything else — `//`, `/*`,
        // lone `"` with too few hashes — is content.
        while j < b.len() {
            if b[j] == b'\n' {
                *line += 1;
                j += 1;
                continue;
            }
            if b[j] == b'"'
                && b[j + 1..].iter().take(hashes).filter(|&&h| h == b'#').count() == hashes
                && b[j + 1..].len() >= hashes
            {
                return Some((j + 1 + hashes, Some((content_start, j))));
            }
            j += 1;
        }
        Some((j, Some((content_start, j))))
    } else {
        // byte string `b"..."` with normal escapes, or byte char `b'x'`
        match b.get(j) {
            Some(&b'"') => {
                let end = skip_string(b, j, line);
                // content excludes the closing quote when present
                let content_end = if b.get(end.wrapping_sub(1)) == Some(&b'"') && end > j + 1 {
                    end - 1
                } else {
                    end.min(b.len())
                };
                Some((end, Some((j + 1, content_end))))
            }
            Some(&b'\'') => Some((skip_char_literal(b, j, line), None)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text).collect()
    }

    fn strings(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().filter(|t| t.kind == TokKind::Str).map(|t| t.text).collect()
    }

    #[test]
    fn literals_do_not_leak_identifiers() {
        let src = r##"let x = "Instant::now() unwrap()"; let y = 'u'; let z = r#"unsafe"#;"##;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "x", "let", "y", "let", "z"]);
    }

    #[test]
    fn string_literals_become_str_tokens_with_content() {
        let src = r#"metrics.incr("flc.hits"); metrics.add("dc.bytes", n);"#;
        assert_eq!(strings(src), vec!["flc.hits", "dc.bytes"]);
        let toks = lex(src).tokens;
        let s = toks.iter().find(|t| t.is_str()).unwrap();
        assert_eq!(s.line, 1);
    }

    #[test]
    fn raw_strings_keep_content_and_never_open_comments() {
        // `//` and `/*` inside a raw string are content, not comments; the
        // quote inside `r#"…"#` does not end the literal.
        let src = "let a = r#\"quote \" and // slash /* block\"#;\nfn f() {}";
        let lexed = lex(src);
        assert!(lexed.comments.is_empty(), "raw-string content parsed as comment");
        assert_eq!(strings(src), vec!["quote \" and // slash /* block"]);
        let f = lexed.tokens.iter().find(|t| t.is_ident("f")).unwrap();
        assert_eq!(f.line, 2);
    }

    #[test]
    fn raw_string_hash_depths_and_false_closers() {
        // a `"#` with too few hashes is content; `r##"…"##` needs two
        assert_eq!(strings(r####"let x = r##"a"# b"##;"####), vec!["a\"# b"]);
        assert_eq!(strings("let x = r\"plain\";"), vec!["plain"]);
        // a raw string closing at EOF without enough hashes keeps content
        assert_eq!(strings("let x = r##\"unterminated\"#"), vec!["unterminated\"#"]);
    }

    #[test]
    fn multiline_raw_string_counts_lines() {
        let src = "let q = r#\"line one\nline two\"#;\nInstant::now()";
        let toks = lex(src).tokens;
        let instant = toks.iter().find(|t| t.is_ident("Instant")).unwrap();
        assert_eq!(instant.line, 3);
        // Str token carries the line of its opening quote
        let s = toks.iter().find(|t| t.is_str()).unwrap();
        assert_eq!(s.line, 1);
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        assert_eq!(strings("let b = b\"bytes\";"), vec!["bytes"]);
        assert_eq!(strings("let b = br#\"raw bytes\"#;"), vec!["raw bytes"]);
        // byte char is dropped like a char literal; `b` alone stays an ident
        let src = "let c = b'x'; let b = 1;";
        assert_eq!(strings(src), Vec::<String>::new());
        assert!(idents(src).contains(&"b".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x } let c = 'x'; let n = '\\n';";
        let ids = idents(src);
        assert!(ids.contains(&"str".to_string()));
        // the 'x' and '\n' literals are stripped, the lifetimes tokenized
        let lifetimes = lex(src).tokens.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        assert_eq!(lifetimes, 3);
    }

    #[test]
    fn comments_are_collected_with_lines() {
        let src = "// one\nfn f() {}\n/* two\nspans */ fn g() {}\n";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(lexed.comments[0].start_line, 1);
        assert_eq!(lexed.comments[1].start_line, 3);
        assert_eq!(lexed.comments[1].end_line, 4);
        // tokens after a multi-line comment carry the right line
        let g = lexed.tokens.iter().find(|t| t.is_ident("g")).unwrap();
        assert_eq!(g.line, 4);
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* a /* nested */ still comment */ fn f() {}";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.tokens.iter().any(|t| t.is_ident("f")));
    }

    #[test]
    fn nested_block_comment_tail_never_leaks_tokens() {
        // the inner `*/` must not end the outer comment: `leak()` is comment
        // text, and the string inside the comment is not a Str token
        let src = "/* outer /* inner */ leak() \"not a string\" */ fn real() {}";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.comments[0].text.contains("leak()"));
        assert!(!lexed.tokens.iter().any(|t| t.is_ident("leak")));
        assert!(strings(src).is_empty());
        assert!(lexed.tokens.iter().any(|t| t.is_ident("real")));
    }

    #[test]
    fn multiline_nested_comment_line_counting() {
        let src = "/* a\n/* b\n*/\nc */\nfn after() {}";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.comments[0].end_line, 4);
        let after = lexed.tokens.iter().find(|t| t.is_ident("after")).unwrap();
        assert_eq!(after.line, 5);
    }

    #[test]
    fn path_sep_and_calls() {
        let src = "Instant::now()";
        let toks = lex(src).tokens;
        assert!(toks[0].is_ident("Instant"));
        assert_eq!(toks[1].kind, TokKind::PathSep);
        assert!(toks[2].is_ident("now"));
        assert!(toks[3].is_punct('('));
    }

    #[test]
    fn numbers_and_ranges() {
        let src = "for i in 0..10 { let f = 1.5; let h = 0xff_u32; }";
        let toks = lex(src).tokens;
        let numbers = toks.iter().filter(|t| t.kind == TokKind::Number).count();
        assert_eq!(numbers, 4);
        // `..` survives as two puncts
        assert!(toks.iter().any(|t| t.is_punct('.')));
    }

    #[test]
    fn raw_identifiers() {
        let toks = lex("let r#type = 1;").tokens;
        assert!(toks.iter().any(|t| t.is_ident("type")));
    }
}
