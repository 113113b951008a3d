//! Bad: the expression crate sits on every query's hot path; an
//! "infallible" unwrap and a parser helper called `expect` both trip the rule.
use std::fmt::Write;

pub fn serialize(name: &str, out: &mut String) {
    write!(out, "(var {name})").unwrap();
}

pub struct Parser {
    pos: usize,
}

impl Parser {
    fn expect(&mut self, _c: u8) -> Result<(), String> {
        self.pos += 1;
        Ok(())
    }

    pub fn open(&mut self) -> Result<(), String> {
        self.expect(b'(')
    }
}
