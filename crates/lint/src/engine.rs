//! Crate attribution, test-region detection, suppression handling, and
//! the workspace walker.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Lexed, TokKind};

/// One diagnostic the tool reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule identifier (`lock-order`, `metrics-registry`, ...).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// A source file ready to check: lexed, with its crate and suppression
/// index.
pub struct FileCtx {
    pub rel_path: String,
    /// The crate directory name (`"exec"`, `"root"` for the facade's `src/`),
    /// or `None` for integration tests, benches and examples, which no rule
    /// binds.
    pub crate_name: Option<String>,
    pub lexed: Lexed,
    /// `// lint:allow(rule, ...)` coverage: inclusive line ranges with the
    /// rule ids they suppress. A trailing directive covers its own line; a
    /// directive on a comment-only line covers exactly the next statement.
    allow: Vec<(u32, u32, Vec<String>)>,
    /// Token-index ranges inside `#[cfg(test)]` / `#[test]` items.
    test_ranges: Vec<(usize, usize)>,
}

impl FileCtx {
    /// Build a context from raw source text and its workspace-relative path.
    pub fn new(rel_path: &str, src: &str) -> FileCtx {
        let lexed = lex(src);
        let mut allow: Vec<(u32, u32, Vec<String>)> = Vec::new();
        let token_lines: HashSet<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        for c in &lexed.comments {
            let rules = parse_allow(&c.text);
            if !rules.is_empty() {
                let range = if token_lines.contains(&c.start_line) {
                    // trailing directive: covers only the code on its line
                    (c.start_line, c.start_line)
                } else {
                    // standalone directive: covers the next statement, however
                    // many lines it spans — and nothing after it
                    match lexed.tokens.iter().position(|t| t.line > c.end_line) {
                        Some(first) => statement_line_range(&lexed.tokens, first),
                        None => (c.start_line, c.start_line),
                    }
                };
                allow.push((range.0, range.1, rules));
            }
        }
        let test_ranges = test_ranges(&lexed);
        FileCtx {
            rel_path: rel_path.to_string(),
            crate_name: crate_of(rel_path),
            lexed,
            allow,
            test_ranges,
        }
    }

    /// Is token `idx` inside a `#[cfg(test)]` module or `#[test]` function?
    pub fn in_test_code(&self, idx: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| idx >= a && idx < b)
    }

    /// Is `rule` suppressed on `line` by a `// lint:allow(...)` directive?
    /// A trailing directive covers its own line; a directive on its own line
    /// covers the next statement (all its lines) and never leaks past it.
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        self.allow
            .iter()
            .any(|(a, b, rules)| line >= *a && line <= *b && rules.iter().any(|r| r == rule))
    }
}

/// The inclusive line range of the statement starting at token `start`.
///
/// A statement ends at the first `;` at bracket depth 0 (relative to its
/// first token), or at the `}` closing a block it opened at depth 0 (an
/// `if`/`for`/`match`/fn item), or just before the `}` that closes the
/// *enclosing* block. `else`-chains and method calls on a closed block
/// continue the same statement.
fn statement_line_range(toks: &[crate::lexer::Tok], start: usize) -> (u32, u32) {
    let start_line = toks[start].line;
    let mut depth = 0i32;
    let mut last_line = start_line;
    let mut i = start;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth < 0 {
                    // the enclosing block closed first: end on the previous token
                    return (start_line, last_line);
                }
                if depth == 0 {
                    // a statement-level block closed; the statement continues
                    // only through `else`, a trailing `;`, or a method chain
                    match toks.get(i + 1) {
                        Some(n) if n.is_ident("else") => {}
                        Some(n) if n.is_punct(';') => return (start_line, n.line),
                        Some(n) if n.is_punct('.') => {}
                        _ => return (start_line, t.line),
                    }
                }
            }
            TokKind::Punct(';') if depth == 0 => return (start_line, t.line),
            _ => {}
        }
        last_line = t.line;
        i += 1;
    }
    (start_line, last_line)
}

/// Parse every `lint:allow(a, b)` directive out of a comment.
fn parse_allow(comment: &str) -> Vec<String> {
    let mut rules = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("lint:allow(") {
        rest = &rest[pos + "lint:allow(".len()..];
        if let Some(end) = rest.find(')') {
            for rule in rest[..end].split(',') {
                let rule = rule.trim();
                if !rule.is_empty() {
                    rules.push(rule.to_string());
                }
            }
            rest = &rest[end..];
        } else {
            break;
        }
    }
    rules
}

/// The crate a workspace-relative path belongs to, if it is crate source.
fn crate_of(rel_path: &str) -> Option<String> {
    match rel_path.split('/').collect::<Vec<_>>().as_slice() {
        ["crates", name, "src", ..] => Some((*name).to_string()),
        ["src", ..] => Some("root".to_string()),
        _ => None,
    }
}

/// Find token ranges belonging to `#[cfg(test)]` / `#[test]` items by brace
/// matching from the item's opening `{`.
fn test_ranges(lexed: &Lexed) -> Vec<(usize, usize)> {
    let toks = &lexed.tokens;
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            // collect the attribute body between [ and its matching ]
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut idents = Vec::new();
            while j < toks.len() {
                if toks[j].is_punct('[') {
                    depth += 1;
                } else if toks[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if toks[j].kind == TokKind::Ident {
                    idents.push(toks[j].text.as_str());
                }
                j += 1;
            }
            let is_test_attr = match idents.first() {
                Some(&"test") => true,
                Some(&"cfg") => idents.contains(&"test"),
                _ => false,
            };
            if is_test_attr {
                // The attributed item's body is the next `{ ... }` before a
                // `;` at attribute level (an item like `#[cfg(test)] use x;`
                // has no body).
                let mut k = j + 1;
                let mut open = None;
                while k < toks.len() {
                    if toks[k].is_punct('{') {
                        open = Some(k);
                        break;
                    }
                    if toks[k].is_punct(';') {
                        break;
                    }
                    k += 1;
                }
                if let Some(start) = open {
                    let mut braces = 0usize;
                    let mut end = start;
                    while end < toks.len() {
                        if toks[end].is_punct('{') {
                            braces += 1;
                        } else if toks[end].is_punct('}') {
                            braces -= 1;
                            if braces == 0 {
                                break;
                            }
                        }
                        end += 1;
                    }
                    ranges.push((i, end + 1));
                    i = end + 1;
                    continue;
                }
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    ranges
}

/// Walk the workspace from `root`, collecting every `.rs` file the linter
/// owns. Skips build output, vendored stand-ins, VCS metadata, and the
/// linter's own deliberately-bad fixture corpus.
pub fn collect_workspace_files(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();
    Ok(files)
}

fn walk(root: &Path, dir: &Path, files: &mut Vec<(String, PathBuf)>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if matches!(name, "target" | "vendor" | ".git" | "fixtures") {
                continue;
            }
            walk(root, &path, files)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            files.push((rel, path));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert_eq!(crate_of("crates/exec/src/executor.rs").as_deref(), Some("exec"));
        assert_eq!(crate_of("crates/bench/src/bin/x.rs").as_deref(), Some("bench"));
        assert_eq!(crate_of("src/lib.rs").as_deref(), Some("root"));
        for driver in
            ["crates/geo/benches/quad.rs", "tests/federation.rs", "examples/quickstart.rs"]
        {
            assert_eq!(crate_of(driver), None, "{driver}");
        }
    }

    #[test]
    fn test_region_covers_cfg_test_module() {
        let src = "fn lib_code() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn more_lib() {}\n";
        let ctx = FileCtx::new("crates/exec/src/x.rs", src);
        let toks = &ctx.lexed.tokens;
        let helper = toks.iter().position(|t| t.is_ident("helper")).unwrap();
        let lib = toks.iter().position(|t| t.is_ident("lib_code")).unwrap();
        let more = toks.iter().position(|t| t.is_ident("more_lib")).unwrap();
        assert!(ctx.in_test_code(helper));
        assert!(!ctx.in_test_code(lib));
        assert!(!ctx.in_test_code(more));
    }

    #[test]
    fn cfg_test_on_bodyless_item_marks_nothing() {
        let src = "#[cfg(test)]\nuse std::fmt;\nfn real() {}\n";
        let ctx = FileCtx::new("crates/exec/src/x.rs", src);
        let toks = &ctx.lexed.tokens;
        let real = toks.iter().position(|t| t.is_ident("real")).unwrap();
        assert!(!ctx.in_test_code(real));
    }

    #[test]
    fn trailing_allow_is_line_scoped() {
        let src = "let a = 1; // lint:allow(metrics-registry)\nlet b = 2;\n";
        let ctx = FileCtx::new("crates/exec/src/x.rs", src);
        assert!(ctx.is_allowed("metrics-registry", 1));
        assert!(!ctx.is_allowed("metrics-registry", 2));
        assert!(!ctx.is_allowed("lock-order", 1));
    }

    #[test]
    fn standalone_allow_covers_next_multiline_statement_only() {
        let src = "\
fn f(map: &std::collections::HashMap<u32, String>) -> String {
    // lint:allow(metrics-registry)
    let v = map
        .get(&1)
        .unwrap()
        .clone();
    let w = map.get(&2).unwrap().clone();
    v + &w
}
";
        let ctx = FileCtx::new("crates/exec/src/x.rs", src);
        // the whole covered statement, lines 3-6
        for line in 3..=6 {
            assert!(ctx.is_allowed("metrics-registry", line), "line {line} should be covered");
        }
        // never the statement after it, and never a different rule
        assert!(!ctx.is_allowed("metrics-registry", 7));
        assert!(!ctx.is_allowed("lock-order", 4));
    }

    #[test]
    fn standalone_allow_covers_a_block_statement() {
        let src = "\
fn f(xs: &[u32]) -> u32 {
    let mut n = 0;
    // lint:allow(map-iter-in-digest)
    for x in xs {
        n += x;
    }
    let after = xs.len() as u32;
    n + after
}
";
        let ctx = FileCtx::new("crates/exec/src/x.rs", src);
        for line in 4..=6 {
            assert!(ctx.is_allowed("map-iter-in-digest", line), "line {line}");
        }
        assert!(!ctx.is_allowed("map-iter-in-digest", 7));
    }

    #[test]
    fn standalone_allow_stops_at_enclosing_block_close() {
        // directive above the last statement of a block must not cover code
        // after the block
        let src = "\
fn f() -> u32 {
    // lint:allow(metrics-registry)
    g()
}
fn g() -> u32 {
    1
}
";
        let ctx = FileCtx::new("crates/exec/src/x.rs", src);
        assert!(ctx.is_allowed("metrics-registry", 3));
        assert!(!ctx.is_allowed("metrics-registry", 5));
        assert!(!ctx.is_allowed("metrics-registry", 6));
    }

    #[test]
    fn allow_parses_multiple_rules() {
        assert_eq!(
            parse_allow("// lint:allow(lock-order, metrics-registry)"),
            vec!["lock-order".to_string(), "metrics-registry".to_string()]
        );
        assert!(parse_allow("// nothing here").is_empty());
    }
}
