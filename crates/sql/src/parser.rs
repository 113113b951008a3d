//! Recursive-descent SQL parser.

use presto_common::{PrestoError, Result};

use crate::ast::{BinaryOp, Expr, JoinType, Query, QueryExpr, SelectItem, Statement, TableRef};
use crate::lexer::{tokenize, Token};

/// How deep a statement may nest. Each parenthesis, `NOT`, unary `-` and
/// subquery opens one level, and so does each operator of a left-deep
/// `AND` / `OR` / arithmetic / join chain while the chain is open. Every
/// later pass walks the tree recursively, so this bound keeps a generated
/// query from overflowing a 2 MiB thread stack anywhere from here to the
/// evaluator; past it the statement is refused with
/// `PrestoError::Parse("query too complex: …")`.
pub const MAX_DEPTH: usize = 64;

/// Parse one SQL statement.
pub fn parse_sql(sql: &str) -> Result<Statement> {
    let tokens = tokenize(sql)?;
    let mut parser = Parser { tokens, pos: 0, depth: 0 };
    let statement = if parser.eat_keyword("explain") {
        if parser.eat_keyword("analyze") {
            Statement::ExplainAnalyze(parser.parse_query_expr()?)
        } else {
            Statement::Explain(parser.parse_query_expr()?)
        }
    } else {
        Statement::Query(parser.parse_query_expr()?)
    };
    parser.eat_symbol(";");
    if parser.pos != parser.tokens.len() {
        return Err(parser.error("unexpected trailing tokens"));
    }
    Ok(statement)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Levels open toward [`MAX_DEPTH`].
    depth: usize,
}

impl Parser {
    fn error(&self, msg: &str) -> PrestoError {
        PrestoError::Parse(format!("{msg} at token {} ({:?})", self.pos, self.tokens.get(self.pos)))
    }

    /// Open one level; its opener closes it with `self.depth -= 1` (a chain,
    /// all of its levels at once). A failed parse never resumes, so an
    /// error path leaves its levels open.
    fn descend(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error(&format!("query too complex: nests deeper than {MAX_DEPTH}")));
        }
        Ok(())
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_keyword(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(&format!("expected {}", kw.to_uppercase())))
        }
    }

    fn eat_symbol(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(Token::Symbol(sym)) if *sym == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, s: &str) -> Result<()> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(self.error(&format!("expected '{s}'")))
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        self.peek().is_some_and(|t| t.is_keyword(kw))
    }

    fn identifier(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Word(w)) if !is_reserved(&w) => Ok(w),
            Some(Token::QuotedIdent(s)) => Ok(s),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.error("expected identifier"))
            }
        }
    }

    // ------------------------------------------------------------- query

    fn parse_query_expr(&mut self) -> Result<QueryExpr> {
        let mut branches = Vec::new();
        let mut last = self.parse_query()?;
        while self.eat_keyword("union") {
            self.expect_keyword("all")?;
            // ORDER BY / LIMIT before a UNION would be ambiguous; standard
            // SQL only allows them after the last branch (union-level)
            if !last.order_by.is_empty() || last.limit.is_some() {
                return Err(self.error(
                    "ORDER BY/LIMIT must follow the last UNION ALL branch                      (it applies to the whole union)",
                ));
            }
            let next = self.parse_query()?;
            branches.push(std::mem::replace(&mut last, next));
        }
        if branches.is_empty() {
            return Ok(QueryExpr::Select(Box::new(last)));
        }
        // the trailing ORDER BY / LIMIT the last branch consumed belongs to
        // the union as a whole
        let order_by = std::mem::take(&mut last.order_by);
        let limit = last.limit.take();
        branches.push(last);
        Ok(QueryExpr::UnionAll { branches, order_by, limit })
    }

    fn parse_query(&mut self) -> Result<Query> {
        self.expect_keyword("select")?;
        let distinct = self.eat_keyword("distinct");
        let mut select = vec![self.parse_select_item()?];
        while self.eat_symbol(",") {
            select.push(self.parse_select_item()?);
        }
        let from = if self.eat_keyword("from") { Some(self.parse_table_ref()?) } else { None };
        let where_clause = if self.eat_keyword("where") { Some(self.parse_expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_keyword("group") {
            self.expect_keyword("by")?;
            group_by.push(self.parse_expr()?);
            while self.eat_symbol(",") {
                group_by.push(self.parse_expr()?);
            }
        }
        let having = if self.eat_keyword("having") { Some(self.parse_expr()?) } else { None };
        let mut order_by = Vec::new();
        if self.eat_keyword("order") {
            self.expect_keyword("by")?;
            loop {
                let e = self.parse_expr()?;
                let desc = if self.eat_keyword("desc") {
                    true
                } else {
                    self.eat_keyword("asc");
                    false
                };
                order_by.push((e, desc));
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword("limit") {
            match self.next() {
                Some(Token::Integer(n)) if n >= 0 => Some(n as u64),
                _ => return Err(self.error("expected LIMIT count")),
            }
        } else {
            None
        };
        Ok(Query { distinct, select, from, where_clause, group_by, having, order_by, limit })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        if self.eat_symbol("*") {
            return Ok(SelectItem::Wildcard);
        }
        let expr = self.parse_expr()?;
        let alias = if self.eat_keyword("as") {
            Some(self.identifier()?)
        } else {
            // bare alias (not a keyword)
            match self.peek() {
                Some(Token::Word(w)) if !is_reserved(w) => {
                    let w = w.clone();
                    self.pos += 1;
                    Some(w)
                }
                Some(Token::QuotedIdent(s)) => {
                    let s = s.clone();
                    self.pos += 1;
                    Some(s)
                }
                _ => None,
            }
        };
        Ok(SelectItem::Expression { expr, alias })
    }

    // -------------------------------------------------------------- from

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        let mut left = self.parse_table_primary()?;
        let mut chain = 0;
        loop {
            let kind = if self.eat_keyword("cross") {
                self.expect_keyword("join")?;
                JoinType::Cross
            } else if self.eat_keyword("left") {
                self.eat_keyword("outer");
                self.expect_keyword("join")?;
                JoinType::Left
            } else if self.eat_keyword("inner") {
                self.expect_keyword("join")?;
                JoinType::Inner
            } else if self.eat_keyword("join") {
                JoinType::Inner
            } else {
                break;
            };
            self.descend()?;
            chain += 1;
            let right = self.parse_table_primary()?;
            let on = if kind == JoinType::Cross {
                None
            } else {
                self.expect_keyword("on")?;
                Some(self.parse_expr()?)
            };
            left = TableRef::Join { left: Box::new(left), right: Box::new(right), kind, on };
        }
        self.depth -= chain;
        Ok(left)
    }

    fn parse_table_primary(&mut self) -> Result<TableRef> {
        if self.eat_symbol("(") {
            self.descend()?;
            let query = self.parse_query()?;
            self.depth -= 1;
            self.expect_symbol(")")?;
            self.eat_keyword("as");
            let alias = self.identifier()?;
            return Ok(TableRef::Subquery { query: Box::new(query), alias });
        }
        let mut parts = vec![self.identifier()?];
        while self.eat_symbol(".") {
            parts.push(self.identifier()?);
        }
        if parts.len() > 3 {
            return Err(self.error("table name has too many parts"));
        }
        let alias = if self.eat_keyword("as") {
            Some(self.identifier()?)
        } else {
            match self.peek() {
                Some(Token::Word(w)) if !is_reserved(w) => {
                    let w = w.clone();
                    self.pos += 1;
                    Some(w)
                }
                _ => None,
            }
        };
        Ok(TableRef::Table { parts, alias })
    }

    // ------------------------------------------------------- expressions

    fn parse_expr(&mut self) -> Result<Expr> {
        self.descend()?;
        let expr = self.parse_or()?;
        self.depth -= 1;
        Ok(expr)
    }

    /// A left-deep chain `next (op next)*`. Each operator opens a level
    /// until the chain ends: the tree is as deep as the chain is long.
    fn parse_chain(
        &mut self,
        next: fn(&mut Parser) -> Result<Expr>,
        ops: &[(&str, BinaryOp)],
    ) -> Result<Expr> {
        let mut left = next(self)?;
        let mut chain = 0;
        while let Some(&(_, op)) =
            ops.iter().find(|(word, _)| self.eat_keyword(word) || self.eat_symbol(word))
        {
            self.descend()?;
            chain += 1;
            let right = next(self)?;
            left = Expr::BinaryOp { op, left: Box::new(left), right: Box::new(right) };
        }
        self.depth -= chain;
        Ok(left)
    }

    fn parse_or(&mut self) -> Result<Expr> {
        self.parse_chain(Parser::parse_and, &[("or", BinaryOp::Or)])
    }

    fn parse_and(&mut self) -> Result<Expr> {
        self.parse_chain(Parser::parse_not, &[("and", BinaryOp::And)])
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.eat_keyword("not") {
            self.descend()?;
            let operand = self.parse_not()?;
            self.depth -= 1;
            Ok(Expr::Not(Box::new(operand)))
        } else {
            self.parse_comparison()
        }
    }

    fn parse_comparison(&mut self) -> Result<Expr> {
        let left = self.parse_additive()?;
        // postfix predicates
        if self.eat_keyword("is") {
            let negated = self.eat_keyword("not");
            self.expect_keyword("null")?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated });
        }
        let negated = if self.peek_keyword("not") {
            // lookahead for NOT IN / NOT BETWEEN / NOT LIKE
            let saved = self.pos;
            self.pos += 1;
            if self.peek_keyword("in") || self.peek_keyword("between") || self.peek_keyword("like")
            {
                true
            } else {
                self.pos = saved;
                false
            }
        } else {
            false
        };
        if self.eat_keyword("in") {
            self.expect_symbol("(")?;
            let mut list = vec![self.parse_expr()?];
            while self.eat_symbol(",") {
                list.push(self.parse_expr()?);
            }
            self.expect_symbol(")")?;
            return Ok(Expr::InList { expr: Box::new(left), list, negated });
        }
        if self.eat_keyword("between") {
            let low = self.parse_additive()?;
            self.expect_keyword("and")?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_keyword("like") {
            let pattern = self.parse_additive()?;
            let like = Expr::BinaryOp {
                op: BinaryOp::Like,
                left: Box::new(left),
                right: Box::new(pattern),
            };
            return Ok(if negated { Expr::Not(Box::new(like)) } else { like });
        }
        let op = match self.peek() {
            Some(Token::Symbol("=")) => Some(BinaryOp::Eq),
            Some(Token::Symbol("<>")) => Some(BinaryOp::Neq),
            Some(Token::Symbol("<")) => Some(BinaryOp::Lt),
            Some(Token::Symbol("<=")) => Some(BinaryOp::Lte),
            Some(Token::Symbol(">")) => Some(BinaryOp::Gt),
            Some(Token::Symbol(">=")) => Some(BinaryOp::Gte),
            _ => None,
        };
        match op {
            Some(op) => {
                self.pos += 1;
                let right = self.parse_additive()?;
                Ok(Expr::BinaryOp { op, left: Box::new(left), right: Box::new(right) })
            }
            None => Ok(left),
        }
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        self.parse_chain(
            Parser::parse_multiplicative,
            &[("+", BinaryOp::Add), ("-", BinaryOp::Sub)],
        )
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let ops = [("*", BinaryOp::Mul), ("/", BinaryOp::Div), ("%", BinaryOp::Mod)];
        self.parse_chain(Parser::parse_unary, &ops)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat_symbol("-") {
            self.descend()?;
            let operand = self.parse_unary()?;
            self.depth -= 1;
            return Ok(Expr::Negate(Box::new(operand)));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.next() {
            Some(Token::Integer(n)) => Ok(Expr::Integer(n)),
            Some(Token::Float(f)) => Ok(Expr::Float(f)),
            Some(Token::StringLit(s)) => Ok(Expr::StringLit(s)),
            Some(Token::Symbol("(")) => {
                let e = self.parse_expr()?;
                self.expect_symbol(")")?;
                Ok(e)
            }
            Some(Token::Word(w)) if w == "true" => Ok(Expr::Boolean(true)),
            Some(Token::Word(w)) if w == "false" => Ok(Expr::Boolean(false)),
            Some(Token::Word(w)) if w == "null" => Ok(Expr::Null),
            Some(Token::Word(w)) if w == "case" => {
                let operand = if self.peek_keyword("when") {
                    None
                } else {
                    Some(Box::new(self.parse_expr()?))
                };
                let mut branches = Vec::new();
                while self.eat_keyword("when") {
                    let when = self.parse_expr()?;
                    self.expect_keyword("then")?;
                    let then = self.parse_expr()?;
                    branches.push((when, then));
                }
                if branches.is_empty() {
                    return Err(self.error("CASE needs at least one WHEN branch"));
                }
                let else_expr = if self.eat_keyword("else") {
                    Some(Box::new(self.parse_expr()?))
                } else {
                    None
                };
                self.expect_keyword("end")?;
                Ok(Expr::Case { operand, branches, else_expr })
            }
            Some(Token::Word(w)) if w == "cast" => {
                self.expect_symbol("(")?;
                let expr = self.parse_expr()?;
                self.expect_keyword("as")?;
                let type_name = match self.next() {
                    Some(Token::Word(t)) => t,
                    _ => return Err(self.error("expected type name")),
                };
                self.expect_symbol(")")?;
                Ok(Expr::Cast { expr: Box::new(expr), type_name })
            }
            Some(Token::Word(w)) if !is_reserved(&w) => {
                // function call?
                if self.eat_symbol("(") {
                    if self.eat_symbol("*") {
                        self.expect_symbol(")")?;
                        return Ok(Expr::FunctionCall { name: w, args: vec![], is_star: true });
                    }
                    let mut args = Vec::new();
                    if !self.eat_symbol(")") {
                        args.push(self.parse_expr()?);
                        while self.eat_symbol(",") {
                            args.push(self.parse_expr()?);
                        }
                        self.expect_symbol(")")?;
                    }
                    return Ok(Expr::FunctionCall { name: w, args, is_star: false });
                }
                // identifier chain
                let mut parts = vec![w];
                while self.eat_symbol(".") {
                    parts.push(self.identifier()?);
                }
                Ok(Expr::Identifier(parts))
            }
            Some(Token::QuotedIdent(s)) => {
                let mut parts = vec![s];
                while self.eat_symbol(".") {
                    parts.push(self.identifier()?);
                }
                Ok(Expr::Identifier(parts))
            }
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.error("expected expression"))
            }
        }
    }
}

fn is_reserved(word: &str) -> bool {
    matches!(
        word,
        "select"
            | "from"
            | "where"
            | "group"
            | "by"
            | "having"
            | "order"
            | "limit"
            | "join"
            | "inner"
            | "left"
            | "right"
            | "outer"
            | "cross"
            | "on"
            | "and"
            | "or"
            | "not"
            | "in"
            | "between"
            | "like"
            | "is"
            | "null"
            | "true"
            | "false"
            | "as"
            | "distinct"
            | "cast"
            | "desc"
            | "asc"
            | "explain"
            | "union"
            | "all"
            | "case"
            | "when"
            | "then"
            | "end"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query(sql: &str) -> Query {
        match parse_sql(sql).unwrap() {
            Statement::Query(QueryExpr::Select(q)) => *q,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_the_papers_trip_query() {
        let q = query(
            "SELECT base.driver_uuid FROM rawdata.schemaless_mezzanine_trips_rows \
             WHERE datestr = '2017-03-02' AND base.city_id in (12)",
        );
        assert_eq!(q.select.len(), 1);
        match &q.select[0] {
            SelectItem::Expression { expr: Expr::Identifier(parts), .. } => {
                assert_eq!(parts, &["base", "driver_uuid"]);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &q.from {
            Some(TableRef::Table { parts, .. }) => {
                assert_eq!(parts, &["rawdata", "schemaless_mezzanine_trips_rows"]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(q.where_clause.is_some());
    }

    #[test]
    fn parses_the_papers_geo_query() {
        let q = query(
            "SELECT c.city_id, count(*) FROM trips_table as t \
             JOIN city_table as c ON st_contains(c.geo_shape, st_point(t.dest_lng, t.dest_lat)) \
             WHERE datestr = '2017-08-01' GROUP BY 1",
        );
        assert_eq!(q.group_by, vec![Expr::Integer(1)]);
        match &q.from {
            Some(TableRef::Join { kind: JoinType::Inner, on: Some(on), .. }) => match on {
                Expr::FunctionCall { name, args, .. } => {
                    assert_eq!(name, "st_contains");
                    assert_eq!(args.len(), 2);
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
        match &q.select[1] {
            SelectItem::Expression { expr: Expr::FunctionCall { is_star: true, .. }, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn precedence_and_parentheses() {
        let q = query("SELECT a + b * c FROM t");
        match &q.select[0] {
            SelectItem::Expression {
                expr: Expr::BinaryOp { op: BinaryOp::Add, right, .. },
                ..
            } => {
                assert!(matches!(**right, Expr::BinaryOp { op: BinaryOp::Mul, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
        let q = query("SELECT (a + b) * c FROM t");
        match &q.select[0] {
            SelectItem::Expression { expr: Expr::BinaryOp { op: BinaryOp::Mul, .. }, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        let q = query("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3");
        match q.where_clause.unwrap() {
            Expr::BinaryOp { op: BinaryOp::Or, right, .. } => {
                assert!(matches!(*right, Expr::BinaryOp { op: BinaryOp::And, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn full_clause_set() {
        let q = query(
            "SELECT city, count(*) AS cnt FROM trips \
             WHERE fare BETWEEN 5 AND 50 AND city NOT IN ('x') AND note IS NOT NULL \
             GROUP BY city HAVING count(*) > 10 \
             ORDER BY cnt DESC, city LIMIT 20",
        );
        assert!(q.where_clause.is_some());
        assert_eq!(q.group_by.len(), 1);
        assert!(q.having.is_some());
        assert_eq!(q.order_by.len(), 2);
        assert!(q.order_by[0].1);
        assert!(!q.order_by[1].1);
        assert_eq!(q.limit, Some(20));
    }

    #[test]
    fn joins_and_subqueries() {
        let q = query(
            "SELECT * FROM (SELECT a FROM t1 LIMIT 5) s \
             LEFT JOIN t2 ON s.a = t2.a CROSS JOIN t3",
        );
        match q.from.unwrap() {
            TableRef::Join { kind: JoinType::Cross, left, .. } => match *left {
                TableRef::Join { kind: JoinType::Left, left: inner, .. } => match *inner {
                    TableRef::Subquery { alias, .. } => assert_eq!(alias, "s"),
                    other => panic!("unexpected {other:?}"),
                },
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn case_expressions() {
        let q = query(
            "SELECT CASE WHEN fare > 20 THEN 'high' WHEN fare > 10 THEN 'mid' ELSE 'low' END FROM t",
        );
        match &q.select[0] {
            SelectItem::Expression {
                expr: Expr::Case { operand: None, branches, else_expr },
                ..
            } => {
                assert_eq!(branches.len(), 2);
                assert!(else_expr.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
        let q = query("SELECT CASE status WHEN 'done' THEN 1 END FROM t");
        match &q.select[0] {
            SelectItem::Expression {
                expr: Expr::Case { operand: Some(_), branches, else_expr },
                ..
            } => {
                assert_eq!(branches.len(), 1);
                assert!(else_expr.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_sql("SELECT CASE END FROM t").is_err());
    }

    #[test]
    fn union_all_chains() {
        match parse_sql("SELECT 1 UNION ALL SELECT 2 UNION ALL SELECT 3").unwrap() {
            Statement::Query(QueryExpr::UnionAll { branches, order_by, limit }) => {
                assert_eq!(branches.len(), 3);
                assert!(order_by.is_empty());
                assert_eq!(limit, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        // UNION without ALL is unsupported (set semantics not implemented)
        assert!(parse_sql("SELECT 1 UNION SELECT 2").is_err());
    }

    #[test]
    fn union_level_order_by_and_limit() {
        // trailing ORDER BY / LIMIT bind to the whole union
        match parse_sql("SELECT a FROM t UNION ALL SELECT a FROM u ORDER BY 1 DESC LIMIT 7")
            .unwrap()
        {
            Statement::Query(QueryExpr::UnionAll { branches, order_by, limit }) => {
                assert_eq!(branches.len(), 2);
                assert!(branches.iter().all(|b| b.order_by.is_empty() && b.limit.is_none()));
                assert_eq!(order_by.len(), 1);
                assert!(order_by[0].1);
                assert_eq!(limit, Some(7));
            }
            other => panic!("unexpected {other:?}"),
        }
        // ...but not in the middle of a chain
        assert!(parse_sql("SELECT a FROM t ORDER BY 1 UNION ALL SELECT a FROM u").is_err());
        assert!(parse_sql("SELECT a FROM t LIMIT 3 UNION ALL SELECT a FROM u").is_err());
    }

    #[test]
    fn explain_cast_and_errors() {
        assert!(matches!(parse_sql("EXPLAIN SELECT 1").unwrap(), Statement::Explain(_)));
        assert!(matches!(
            parse_sql("EXPLAIN ANALYZE SELECT 1").unwrap(),
            Statement::ExplainAnalyze(_)
        ));
        // ANALYZE stays usable as a plain identifier elsewhere
        assert!(matches!(
            parse_sql("EXPLAIN SELECT analyze FROM t").unwrap(),
            Statement::Explain(_)
        ));
        let q = query("SELECT CAST(x AS bigint) FROM t");
        match &q.select[0] {
            SelectItem::Expression { expr: Expr::Cast { type_name, .. }, .. } => {
                assert_eq!(type_name, "bigint");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_sql("SELECT FROM t").is_err());
        assert!(parse_sql("SELECT a FROM").is_err());
        assert!(parse_sql("SELECT a FROM t WHERE").is_err());
        assert!(parse_sql("SELECT a FROM t extra garbage !").is_err());
    }
}
