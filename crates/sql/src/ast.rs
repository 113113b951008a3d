//! The SQL abstract syntax tree.

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A query expression (SELECT, possibly UNION ALL chains).
    Query(QueryExpr),
    /// `EXPLAIN <query>`.
    Explain(QueryExpr),
    /// `EXPLAIN ANALYZE <query>` — execute, then render the plan annotated
    /// with per-operator runtime stats.
    ExplainAnalyze(QueryExpr),
}

/// A query expression: one SELECT or a UNION ALL chain.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryExpr {
    /// A plain SELECT.
    Select(Box<Query>),
    /// `branch UNION ALL branch [...]` with an optional trailing ORDER BY /
    /// LIMIT that applies to the whole union (standard SQL semantics).
    UnionAll {
        /// The SELECT branches, in order (at least two).
        branches: Vec<Query>,
        /// Union-level ORDER BY keys `(expr, descending)`.
        order_by: Vec<(Expr, bool)>,
        /// Union-level LIMIT.
        limit: Option<u64>,
    },
}

/// A SELECT query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// SELECT DISTINCT?
    pub distinct: bool,
    /// SELECT list.
    pub select: Vec<SelectItem>,
    /// FROM clause (optional: `SELECT 1` is legal).
    pub from: Option<TableRef>,
    /// WHERE clause.
    pub where_clause: Option<Expr>,
    /// GROUP BY expressions (possibly ordinals).
    pub group_by: Vec<Expr>,
    /// HAVING clause.
    pub having: Option<Expr>,
    /// ORDER BY keys `(expr, descending)`.
    pub order_by: Vec<(Expr, bool)>,
    /// LIMIT.
    pub limit: Option<u64>,
}

/// One SELECT-list item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `expr [AS alias]`
    Expression {
        /// The expression.
        expr: Expr,
        /// Optional alias.
        alias: Option<String>,
    },
}

/// A FROM-clause relation.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// `[catalog.][schema.]table [alias]`
    Table {
        /// Name parts as written (1–3 of them).
        parts: Vec<String>,
        /// Optional alias.
        alias: Option<String>,
    },
    /// `left JOIN right ON cond` / `left CROSS JOIN right`.
    Join {
        /// Left relation.
        left: Box<TableRef>,
        /// Right relation.
        right: Box<TableRef>,
        /// Join kind.
        kind: JoinType,
        /// ON condition (`None` for CROSS JOIN).
        on: Option<Expr>,
    },
    /// `(query) alias` — derived table.
    Subquery {
        /// The inner query.
        query: Box<Query>,
        /// Mandatory alias.
        alias: String,
    },
}

/// Join types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// `[INNER] JOIN`.
    Inner,
    /// `LEFT [OUTER] JOIN`.
    Left,
    /// `CROSS JOIN`.
    Cross,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Lte,
    /// `>`
    Gt,
    /// `>=`
    Gte,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `LIKE`
    Like,
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Possibly-qualified identifier chain: `city`, `t.city`,
    /// `base.city_id`, `t.base.city_id`. Resolution (alias vs column vs
    /// nested field) happens in the analyzer.
    Identifier(Vec<String>),
    /// Integer literal.
    Integer(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    StringLit(String),
    /// TRUE / FALSE.
    Boolean(bool),
    /// NULL.
    Null,
    /// Binary operation.
    BinaryOp {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `NOT expr`.
    Not(Box<Expr>),
    /// `-expr`.
    Negate(Box<Expr>),
    /// Function call, e.g. `st_point(lng, lat)`, `count(*)`.
    FunctionCall {
        /// Function name (lower-cased).
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// `count(*)`-style star argument?
        is_star: bool,
    },
    /// `expr [NOT] IN (list)`.
    InList {
        /// Needle.
        expr: Box<Expr>,
        /// Haystack.
        list: Vec<Expr>,
        /// Negated?
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Value.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// Negated?
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Value.
        expr: Box<Expr>,
        /// `IS NOT NULL`?
        negated: bool,
    },
    /// `CAST(expr AS type)`.
    Cast {
        /// Value.
        expr: Box<Expr>,
        /// Target type name (lower-cased, e.g. `bigint`, `varchar`).
        type_name: String,
    },
    /// `CASE [operand] WHEN ... THEN ... [ELSE ...] END`.
    Case {
        /// Optional operand (`CASE x WHEN 1 ...` vs `CASE WHEN cond ...`).
        operand: Option<Box<Expr>>,
        /// `(WHEN, THEN)` branches in order.
        branches: Vec<(Expr, Expr)>,
        /// Optional ELSE result.
        else_expr: Option<Box<Expr>>,
    },
}

impl Expr {
    /// Render a default output-column name for an unaliased select item.
    pub fn default_name(&self) -> String {
        match self {
            Expr::Identifier(parts) => parts.last().cloned().unwrap_or_default(),
            Expr::FunctionCall { name, is_star: true, .. } => format!("{name}_star"),
            Expr::FunctionCall { name, .. } => name.clone(),
            Expr::Cast { expr, .. } => expr.default_name(),
            _ => "_col".to_string(),
        }
    }

    /// Call `f` on each direct sub-expression, in source order. Every walk
    /// over the tree recurses through this one match.
    pub fn for_each_child<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match self {
            Expr::Identifier(_)
            | Expr::Integer(_)
            | Expr::Float(_)
            | Expr::StringLit(_)
            | Expr::Boolean(_)
            | Expr::Null => {}
            Expr::BinaryOp { left, right, .. } => {
                f(left);
                f(right);
            }
            Expr::Not(e) | Expr::Negate(e) => f(e),
            Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => f(expr),
            Expr::FunctionCall { args, .. } => args.iter().for_each(f),
            Expr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            Expr::Between { expr, low, high, .. } => {
                f(expr);
                f(low);
                f(high);
            }
            Expr::Case { operand, branches, else_expr } => {
                operand.iter().for_each(|o| f(o));
                for (when, then) in branches {
                    f(when);
                    f(then);
                }
                else_expr.iter().for_each(|e| f(e));
            }
        }
    }
}
