//! The SQL abstract syntax tree.
//!
//! Every node derives structural equality and hashing (floating-point
//! literals are wrapped in [`F64`], which compares by bit pattern) so that
//! the DiffTree layer can merge and deduplicate subtrees cheaply.

use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A floating-point literal wrapper that provides total equality and hashing
/// by comparing IEEE-754 bit patterns. NaNs with identical payloads compare
/// equal; `0.0` and `-0.0` do not, which is fine for literal identity.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct F64(pub f64);

impl PartialEq for F64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}
impl Eq for F64 {}
impl Hash for F64 {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}
impl PartialOrd for F64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for F64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl From<f64> for F64 {
    fn from(v: f64) -> Self {
        F64(v)
    }
}
impl fmt::Display for F64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.fract() == 0.0 && self.0.is_finite() && self.0.abs() < 1e15 {
            write!(f, "{:.1}", self.0)
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// A calendar date stored as days since 1970-01-01 (proleptic Gregorian).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Date(pub i32);

impl Date {
    /// Build a date from year/month/day. Returns `None` for invalid dates.
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Option<Self> {
        if !(1..=12).contains(&month) || day == 0 || day > days_in_month(year, month) {
            return None;
        }
        // Days from civil algorithm (Howard Hinnant).
        let y = if month <= 2 { year - 1 } else { year } as i64;
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400;
        let mp = ((month as i64) + 9) % 12;
        let doy = (153 * mp + 2) / 5 + (day as i64) - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        Some(Date((era * 146097 + doe - 719468) as i32))
    }

    /// Parse `YYYY-MM-DD`.
    pub fn parse(s: &str) -> Option<Self> {
        let mut parts = s.split('-');
        let year: i32 = parts.next()?.parse().ok()?;
        let month: u32 = parts.next()?.parse().ok()?;
        let day: u32 = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Date::from_ymd(year, month, day)
    }

    /// Decompose into (year, month, day).
    pub fn ymd(self) -> (i32, u32, u32) {
        let z = self.0 as i64 + 719468;
        let era = if z >= 0 { z } else { z - 146096 } / 146097;
        let doe = z - era * 146097;
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
        let mp = (5 * doy + 2) / 153;
        let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
        let year = if m <= 2 { y + 1 } else { y } as i32;
        (year, m, d)
    }

    /// The date `n` days later.
    pub fn plus_days(self, n: i32) -> Self {
        Date(self.0 + n)
    }
}

fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if (year % 4 == 0 && year % 100 != 0) || year % 400 == 0 {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

/// A literal value appearing in SQL text.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Literal {
    /// SQL NULL.
    Null,
    /// Boolean literal/value.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(F64),
    /// String.
    Str(String),
    /// Calendar date.
    Date(Date),
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Null => write!(f, "NULL"),
            Literal::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Literal::Int(v) => write!(f, "{v}"),
            Literal::Float(v) => write!(f, "{v}"),
            Literal::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Literal::Date(d) => write!(f, "DATE '{d}'"),
        }
    }
}

/// A possibly-qualified column reference (`t.a` or `a`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ColumnRef {
    /// Optional table qualifier.
    pub table: Option<String>,
    /// The column name.
    pub column: String,
}

impl ColumnRef {
    /// An unqualified column reference.
    pub fn bare(column: impl Into<String>) -> Self {
        Self { table: None, column: column.into() }
    }
    /// A table-qualified column reference.
    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> Self {
        Self { table: Some(table.into()), column: column.into() }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let col = crate::printer::ident(&self.column);
        match &self.table {
            Some(t) => write!(f, "{}.{col}", crate::printer::ident(t)),
            None => write!(f, "{col}"),
        }
    }
}

/// Binary operators, in SQL precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinaryOp {
    /// Logical OR.
    Or,
    /// Logical AND.
    And,
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
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
    /// `||` string concatenation.
    Concat,
}

impl BinaryOp {
    /// SQL spelling of the operator.
    pub fn sql(self) -> &'static str {
        match self {
            BinaryOp::Or => "OR",
            BinaryOp::And => "AND",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Concat => "||",
        }
    }

    /// Binding strength; higher binds tighter.
    pub fn precedence(self) -> u8 {
        match self {
            BinaryOp::Or => 1,
            BinaryOp::And => 2,
            BinaryOp::Eq
            | BinaryOp::NotEq
            | BinaryOp::Lt
            | BinaryOp::LtEq
            | BinaryOp::Gt
            | BinaryOp::GtEq => 4,
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Concat => 5,
            BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => 6,
        }
    }

    /// True for `=, <>, <, <=, >, >=`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnaryOp {
    /// Logical negation.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// A scalar or boolean expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Expr {
    /// A column reference.
    Column(ColumnRef),
    /// A literal constant.
    Literal(Literal),
    /// `*` inside `count(*)`.
    Wildcard,
    /// Unary `NOT` / `-`.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand expression.
        expr: Box<Expr>,
    },
    /// Binary operator application.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// The operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Function call (aggregate or scalar); `distinct` applies to aggregates.
    Function {
        /// The name.
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
        /// `DISTINCT` flag.
        distinct: bool,
    },
    /// `CASE [operand] WHEN .. THEN .. [ELSE ..] END`.
    Case {
        /// Optional `CASE` operand.
        operand: Option<Box<Expr>>,
        /// `WHEN … THEN …` branches.
        branches: Vec<(Expr, Expr)>,
        /// Optional `ELSE` expression.
        else_expr: Option<Box<Expr>>,
    },
    /// `expr [NOT] IN (e1, e2, ...)`.
    InList {
        /// The operand expression.
        expr: Box<Expr>,
        /// The listed alternatives.
        list: Vec<Expr>,
        /// True for the `NOT` form.
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT ...)`.
    InSubquery {
        /// The operand expression.
        expr: Box<Expr>,
        /// The nested query.
        subquery: Box<Query>,
        /// True for the `NOT` form.
        negated: bool,
    },
    /// `[NOT] EXISTS (SELECT ...)`.
    Exists {
        /// The nested query.
        subquery: Box<Query>,
        /// True for the `NOT` form.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// The operand expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// True for the `NOT` form.
        negated: bool,
    },
    /// A scalar subquery `(SELECT ...)`.
    ScalarSubquery(Box<Query>),
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// The operand expression.
        expr: Box<Expr>,
        /// True for the `NOT` form.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern`.
    Like {
        /// The operand expression.
        expr: Box<Expr>,
        /// The LIKE pattern expression.
        pattern: Box<Expr>,
        /// True for the `NOT` form.
        negated: bool,
    },
}

impl Expr {
    /// A bare column-reference expression.
    pub fn col(name: impl Into<String>) -> Self {
        Expr::Column(ColumnRef::bare(name))
    }
    /// A qualified column-reference expression.
    pub fn qcol(table: impl Into<String>, name: impl Into<String>) -> Self {
        Expr::Column(ColumnRef::qualified(table, name))
    }
    /// Int.
    pub fn int(v: i64) -> Self {
        Expr::Literal(Literal::Int(v))
    }
    /// Float.
    pub fn float(v: f64) -> Self {
        Expr::Literal(Literal::Float(F64(v)))
    }
    /// Str.
    pub fn str(v: impl Into<String>) -> Self {
        Expr::Literal(Literal::Str(v.into()))
    }
    /// Date.
    pub fn date(s: &str) -> Self {
        Expr::Literal(Literal::Date(Date::parse(s).expect("valid date literal")))
    }
    /// Binary.
    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Self {
        Expr::Binary { left: Box::new(left), op, right: Box::new(right) }
    }
    /// And.
    pub fn and(left: Expr, right: Expr) -> Self {
        Expr::binary(left, BinaryOp::And, right)
    }
    /// Eq.
    pub fn eq(left: Expr, right: Expr) -> Self {
        Expr::binary(left, BinaryOp::Eq, right)
    }
    /// Func.
    pub fn func(name: &str, args: Vec<Expr>) -> Self {
        Expr::Function { name: name.to_ascii_lowercase(), args, distinct: false }
    }
    /// Count star.
    pub fn count_star() -> Self {
        Expr::func("count", vec![Expr::Wildcard])
    }

    /// True if this expression (at any depth) contains an aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        crate::visit::contains_aggregate(self)
    }

    /// 64-bit structural hash, used for dedup in the DiffTree layer.
    pub fn structural_hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

/// Names of the aggregate functions the dialect understands.
pub const AGGREGATE_FUNCTIONS: &[&str] = &["count", "sum", "avg", "min", "max"];

/// Is `name` (case-insensitive) an aggregate function?
pub fn is_aggregate_function(name: &str) -> bool {
    AGGREGATE_FUNCTIONS.iter().any(|a| a.eq_ignore_ascii_case(name))
}

/// One item of the `SELECT` list.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `t.*`
    QualifiedWildcard(String),
    /// `expr [AS alias]`
    Expr {
        /// The operand expression.
        expr: Expr,
        /// Optional alias.
        alias: Option<String>,
    },
}

impl SelectItem {
    /// The operand expression.
    pub fn expr(expr: Expr) -> Self {
        SelectItem::Expr { expr, alias: None }
    }
    /// Aliased.
    pub fn aliased(expr: Expr, alias: impl Into<String>) -> Self {
        SelectItem::Expr { expr, alias: Some(alias.into()) }
    }
}

/// Join kinds supported by the dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JoinKind {
    /// Inner join.
    Inner,
    /// Left outer join.
    Left,
    /// Cross join.
    Cross,
}

/// A relation in the `FROM` clause.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TableRef {
    /// A named base table, optionally aliased.
    Named {
        /// The name.
        name: String,
        /// Optional alias.
        alias: Option<String>,
    },
    /// A derived table `(SELECT ...) alias`.
    Subquery {
        /// The nested query.
        query: Box<Query>,
        /// Optional alias.
        alias: String,
    },
    /// An explicit join.
    Join {
        /// Left operand.
        left: Box<TableRef>,
        /// Right operand.
        right: Box<TableRef>,
        /// The kind.
        kind: JoinKind,
        /// Join condition (`None` for cross joins).
        on: Option<Expr>,
    },
}

impl TableRef {
    /// Named.
    pub fn named(name: impl Into<String>) -> Self {
        TableRef::Named { name: name.into(), alias: None }
    }
    /// Aliased.
    pub fn aliased(name: impl Into<String>, alias: impl Into<String>) -> Self {
        TableRef::Named { name: name.into(), alias: Some(alias.into()) }
    }
}

/// Sort direction for `ORDER BY`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SortDir {
    /// Ascending.
    Asc,
    /// Descending.
    Desc,
}

/// One `ORDER BY` term.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OrderByItem {
    /// The operand expression.
    pub expr: Expr,
    /// Sort direction.
    pub dir: SortDir,
}

/// A full `SELECT` query.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Query {
    /// `DISTINCT` flag.
    pub distinct: bool,
    /// Projection.
    pub projection: Vec<SelectItem>,
    /// From.
    pub from: Vec<TableRef>,
    /// Where clause.
    pub where_clause: Option<Expr>,
    /// Group by.
    pub group_by: Vec<Expr>,
    /// Having.
    pub having: Option<Expr>,
    /// Order by.
    pub order_by: Vec<OrderByItem>,
    /// Limit.
    pub limit: Option<u64>,
    /// Offset.
    pub offset: Option<u64>,
}

impl Query {
    /// An empty `SELECT` skeleton to build on.
    pub fn new() -> Self {
        Self {
            distinct: false,
            projection: Vec::new(),
            from: Vec::new(),
            where_clause: None,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
            offset: None,
        }
    }

    /// True if the query has any aggregate in its projection or a GROUP BY.
    pub fn is_aggregating(&self) -> bool {
        !self.group_by.is_empty()
            || self.projection.iter().any(|item| match item {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                _ => false,
            })
    }

    /// 64-bit structural hash of the whole query.
    pub fn structural_hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

impl Default for Query {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_roundtrips_ymd() {
        for &(y, m, d) in
            &[(1970, 1, 1), (2000, 2, 29), (2021, 12, 31), (1969, 12, 31), (2024, 2, 29)]
        {
            let date = Date::from_ymd(y, m, d).unwrap();
            assert_eq!(date.ymd(), (y, m, d), "roundtrip {y}-{m}-{d}");
        }
    }

    #[test]
    fn date_epoch_is_zero() {
        assert_eq!(Date::from_ymd(1970, 1, 1).unwrap().0, 0);
        assert_eq!(Date::from_ymd(1970, 1, 2).unwrap().0, 1);
    }

    #[test]
    fn date_rejects_invalid() {
        assert!(Date::from_ymd(2021, 2, 29).is_none());
        assert!(Date::from_ymd(2021, 13, 1).is_none());
        assert!(Date::from_ymd(2021, 0, 1).is_none());
        assert!(Date::from_ymd(2021, 4, 31).is_none());
        assert!(Date::parse("2021-1").is_none());
        assert!(Date::parse("2021-01-02-03").is_none());
    }

    #[test]
    fn date_parse_display_roundtrip() {
        let d = Date::parse("2021-12-25").unwrap();
        assert_eq!(d.to_string(), "2021-12-25");
    }

    #[test]
    fn date_plus_days_crosses_month() {
        let d = Date::parse("2021-12-30").unwrap().plus_days(3);
        assert_eq!(d.to_string(), "2022-01-02");
    }

    #[test]
    fn f64_equality_is_bitwise() {
        assert_eq!(F64(1.5), F64(1.5));
        assert_ne!(F64(0.0), F64(-0.0));
        assert_eq!(F64(f64::NAN), F64(f64::NAN));
    }

    #[test]
    fn structural_hash_distinguishes_queries() {
        let a = crate::parse_query("SELECT a FROM t").unwrap();
        let b = crate::parse_query("SELECT b FROM t").unwrap();
        let a2 = crate::parse_query("select a from t").unwrap();
        assert_ne!(a.structural_hash(), b.structural_hash());
        assert_eq!(a.structural_hash(), a2.structural_hash());
    }

    #[test]
    fn is_aggregating_detects_group_by_and_aggregates() {
        assert!(crate::parse_query("SELECT count(*) FROM t").unwrap().is_aggregating());
        assert!(crate::parse_query("SELECT a FROM t GROUP BY a").unwrap().is_aggregating());
        assert!(!crate::parse_query("SELECT a FROM t").unwrap().is_aggregating());
    }
}
