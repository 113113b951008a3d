//! SQL tokenizer.

use presto_common::{PrestoError, Result};

/// A SQL token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier (unquoted identifiers are lower-cased).
    Word(String),
    /// Double-quoted identifier (case preserved).
    QuotedIdent(String),
    /// Single-quoted string literal.
    StringLit(String),
    /// Integer literal.
    Integer(i64),
    /// Floating-point literal.
    Float(f64),
    /// Operator or punctuation: `= <> != < <= > >= + - * / % ( ) , . ;`
    Symbol(&'static str),
}

impl Token {
    /// True when this is the given keyword (case-insensitive at lex time).
    pub fn is_keyword(&self, kw: &str) -> bool {
        matches!(self, Token::Word(w) if w == kw)
    }
}

/// Tokenize SQL text.
pub fn tokenize(sql: &str) -> Result<Vec<Token>> {
    let bytes = sql.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b'-' if bytes.get(i + 1) == Some(&b'-') => {
                // line comment
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'\'' => {
                // accumulate raw bytes and convert once, so multi-byte UTF-8
                // characters survive intact
                let mut buf: Vec<u8> = Vec::new();
                i += 1;
                loop {
                    match bytes.get(i) {
                        Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => {
                            buf.push(b'\'');
                            i += 2;
                        }
                        Some(b'\'') => {
                            i += 1;
                            break;
                        }
                        Some(&b) => {
                            buf.push(b);
                            i += 1;
                        }
                        None => return Err(PrestoError::Parse("unterminated string".into())),
                    }
                }
                let s = String::from_utf8(buf)
                    .map_err(|_| PrestoError::Parse("invalid UTF-8 in string literal".into()))?;
                tokens.push(Token::StringLit(s));
            }
            b'"' => {
                let mut buf: Vec<u8> = Vec::new();
                i += 1;
                loop {
                    match bytes.get(i) {
                        Some(b'"') => {
                            i += 1;
                            break;
                        }
                        Some(&b) => {
                            buf.push(b);
                            i += 1;
                        }
                        None => return Err(PrestoError::Parse("unterminated identifier".into())),
                    }
                }
                let s = String::from_utf8(buf)
                    .map_err(|_| PrestoError::Parse("invalid UTF-8 in identifier".into()))?;
                tokens.push(Token::QuotedIdent(s));
            }
            b'0'..=b'9' => {
                let start = i;
                let mut is_float = false;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || (bytes[i] == b'.' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)))
                {
                    if bytes[i] == b'.' {
                        is_float = true;
                    }
                    i += 1;
                }
                // exponent
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    let mut j = i + 1;
                    if matches!(bytes.get(j), Some(b'+') | Some(b'-')) {
                        j += 1;
                    }
                    if bytes.get(j).is_some_and(u8::is_ascii_digit) {
                        is_float = true;
                        i = j;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = &sql[start..i];
                if is_float {
                    tokens.push(Token::Float(
                        text.parse()
                            .map_err(|_| PrestoError::Parse(format!("bad number '{text}'")))?,
                    ));
                } else {
                    tokens.push(Token::Integer(
                        text.parse()
                            .map_err(|_| PrestoError::Parse(format!("bad number '{text}'")))?,
                    ));
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = sql[start..i].to_lowercase();
                tokens.push(Token::Word(word));
            }
            b'<' if bytes.get(i + 1) == Some(&b'=') => {
                tokens.push(Token::Symbol("<="));
                i += 2;
            }
            b'<' if bytes.get(i + 1) == Some(&b'>') => {
                tokens.push(Token::Symbol("<>"));
                i += 2;
            }
            b'>' if bytes.get(i + 1) == Some(&b'=') => {
                tokens.push(Token::Symbol(">="));
                i += 2;
            }
            b'!' if bytes.get(i + 1) == Some(&b'=') => {
                tokens.push(Token::Symbol("<>"));
                i += 2;
            }
            b'=' => {
                tokens.push(Token::Symbol("="));
                i += 1;
            }
            b'<' => {
                tokens.push(Token::Symbol("<"));
                i += 1;
            }
            b'>' => {
                tokens.push(Token::Symbol(">"));
                i += 1;
            }
            b'+' => {
                tokens.push(Token::Symbol("+"));
                i += 1;
            }
            b'-' => {
                tokens.push(Token::Symbol("-"));
                i += 1;
            }
            b'*' => {
                tokens.push(Token::Symbol("*"));
                i += 1;
            }
            b'/' => {
                tokens.push(Token::Symbol("/"));
                i += 1;
            }
            b'%' => {
                tokens.push(Token::Symbol("%"));
                i += 1;
            }
            b'(' => {
                tokens.push(Token::Symbol("("));
                i += 1;
            }
            b')' => {
                tokens.push(Token::Symbol(")"));
                i += 1;
            }
            b',' => {
                tokens.push(Token::Symbol(","));
                i += 1;
            }
            b'.' => {
                tokens.push(Token::Symbol("."));
                i += 1;
            }
            b';' => {
                tokens.push(Token::Symbol(";"));
                i += 1;
            }
            other => {
                return Err(PrestoError::Parse(format!(
                    "unexpected character '{}' at byte {i}",
                    other as char
                )))
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_the_papers_query() {
        let tokens = tokenize(
            "SELECT base.driver_uuid FROM rawdata.schemaless_mezzanine_trips_rows \
             WHERE datestr = '2017-03-02' AND base.city_id in (12)",
        )
        .unwrap();
        assert!(tokens.contains(&Token::Word("select".into())));
        assert!(tokens.contains(&Token::StringLit("2017-03-02".into())));
        assert!(tokens.contains(&Token::Integer(12)));
        assert!(tokens.contains(&Token::Symbol(".")));
    }

    #[test]
    fn numbers_strings_escapes() {
        let tokens = tokenize("1 2.5 1e3 'it''s' \"Mixed Case\"").unwrap();
        assert_eq!(
            tokens,
            vec![
                Token::Integer(1),
                Token::Float(2.5),
                Token::Float(1000.0),
                Token::StringLit("it's".into()),
                Token::QuotedIdent("Mixed Case".into()),
            ]
        );
    }

    #[test]
    fn utf8_strings_survive_intact() {
        let tokens = tokenize("'Köln' \"Šibenik 市\"").unwrap();
        assert_eq!(
            tokens,
            vec![Token::StringLit("Köln".into()), Token::QuotedIdent("Šibenik 市".into()),]
        );
    }

    #[test]
    fn operators_and_comments() {
        let tokens = tokenize("a >= 1 -- comment\n AND b <> c != d").unwrap();
        assert_eq!(tokens.iter().filter(|t| **t == Token::Symbol("<>")).count(), 2);
        assert!(tokens.contains(&Token::Symbol(">=")));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(tokenize("'unterminated").is_err());
        assert!(tokenize("price #").is_err());
    }
}
