//! Clean: writing into a `String` cannot fail, so the result is dropped
//! rather than unwrapped; the parser's own helper is not named `expect`;
//! a kernel reports a zero divisor as a classified error.
use std::fmt::Write;

use presto_common::{PrestoError, Result};

pub fn serialize(name: &str, out: &mut String) {
    out.push_str("(var ");
    let _ = write!(out, "{name})");
}

pub struct Parser {
    pos: usize,
}

impl Parser {
    fn eat(&mut self, _c: u8) -> Result<()> {
        self.pos += 1;
        Ok(())
    }

    pub fn open(&mut self) -> Result<()> {
        self.eat(b'(')
    }
}

pub fn divide(x: i64, y: i64) -> Result<i64> {
    if y == 0 {
        return Err(PrestoError::Execution("division by zero".into()));
    }
    Ok(x.wrapping_div(y))
}
