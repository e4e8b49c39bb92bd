//! A recursive-descent parser for the PI2 SQL dialect.
//!
//! Precedence climbing handles binary operators; `NOT`, `IN`, `BETWEEN`,
//! `LIKE`, `IS NULL` and `EXISTS` are parsed at the standard SQL precedence
//! levels. Function names are lower-cased during parsing so that aggregates
//! compare canonically; table/column identifiers keep their spelling and are
//! matched case-insensitively by the execution engine.
//!
//! Two bounds keep every accepted tree shallow enough for the recursive
//! passes that follow the parser (printing, hashing, normalization,
//! execution, dropping): [`MAX_DEPTH`] on nesting and [`MAX_OPERATORS`] on
//! the chain operators of one query.

use crate::ast::*;
use crate::error::{ParseError, Result};
use crate::lexer::tokenize;
use crate::token::{Symbol, Token, TokenKind};

/// The deepest nesting the parser accepts. Parentheses, subqueries,
/// function arguments, `NOT`, unary signs and parenthesized joins each open
/// one level; deeper input is a [`ParseError`]. The parser recurses once per
/// level, and a debug build spends about 21 KB of stack on each.
pub const MAX_DEPTH: usize = 64;

/// The most chain operators one query may hold, subqueries included: `AND`,
/// `OR`, arithmetic and `||` operators, and joins. More is a [`ParseError`].
/// A chain such as `a = 1 AND b = 2 AND …` parses without recursion but
/// builds a left-deep tree that later passes walk recursively, one stack
/// frame per operator, and normalization turns any `AND` tree, however
/// balanced, into such a chain. Normalization never adds an operator, so
/// counting them bounds the height of every rewrite too, which a bound on
/// the parsed tree's height would not.
///
/// Executing and generating from a query cost the most stack per chain
/// operator, about 2 KB in a release build and 15 KB in a debug build, so
/// threads that run client SQL need stacks sized for this bound.
pub const MAX_OPERATORS: usize = 512;

/// Parse a single `SELECT` query (an optional trailing `;` is allowed).
pub fn parse_query(input: &str) -> Result<Query> {
    let mut p = Parser::new(input)?;
    let q = p.top_query()?;
    p.eat_symbol(Symbol::Semicolon);
    p.expect_eof()?;
    Ok(q)
}

/// Parse a `;`-separated sequence of queries (e.g. a whole query log).
pub fn parse_queries(input: &str) -> Result<Vec<Query>> {
    let mut p = Parser::new(input)?;
    let mut out = Vec::new();
    loop {
        while p.eat_symbol(Symbol::Semicolon) {}
        if p.at_eof() {
            break;
        }
        out.push(p.top_query()?);
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting level of the construct being parsed.
    depth: usize,
    /// Chain operators parsed for the current top-level query.
    operators: usize,
}

impl Parser {
    fn new(input: &str) -> Result<Self> {
        Ok(Parser { tokens: tokenize(input)?, pos: 0, depth: 0, operators: 0 })
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek_kind(), TokenKind::Eof)
    }

    fn error_here(&self, msg: impl Into<String>) -> ParseError {
        let t = self.peek();
        ParseError::new(msg, t.offset, t.line, t.column)
    }

    fn expect_eof(&self) -> Result<()> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.error_here(format!("unexpected trailing input near {}", self.peek_kind())))
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek_kind(), TokenKind::Keyword(k) if *k == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error_here(format!("expected {kw}, found {}", self.peek_kind())))
        }
    }

    fn at_symbol(&self, sym: Symbol) -> bool {
        matches!(self.peek_kind(), TokenKind::Symbol(s) if *s == sym)
    }

    fn eat_symbol(&mut self, sym: Symbol) -> bool {
        if self.at_symbol(sym) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, sym: Symbol) -> Result<()> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            Err(self.error_here(format!("expected '{sym}', found {}", self.peek_kind())))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek_kind() {
            TokenKind::Ident(_) => {
                let TokenKind::Ident(name) = self.bump().kind else { unreachable!() };
                Ok(name)
            }
            // `DATE` doubles as an ordinary identifier (e.g. the COVID-19
            // dataset's `date` column) unless followed by a string literal.
            TokenKind::Keyword("DATE") => {
                self.bump();
                Ok("date".to_string())
            }
            other => Err(self.error_here(format!("expected identifier, found {other}"))),
        }
    }

    fn at_ident(&self) -> bool {
        matches!(self.peek_kind(), TokenKind::Ident(_) | TokenKind::Keyword("DATE"))
    }

    // ---- nesting ----------------------------------------------------------

    /// Parse a construct one level below the current one.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_DEPTH {
            return Err(self.error_here(format!("query nests deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    /// Count one more chain operator against [`MAX_OPERATORS`].
    fn count_operator(&mut self) -> Result<()> {
        self.operators += 1;
        if self.operators > MAX_OPERATORS {
            return Err(self.error_here(format!("query has more than {MAX_OPERATORS} operators")));
        }
        Ok(())
    }

    /// Parse a left-deep chain `operand (op operand)*`, where `op` consumes
    /// an operator token and returns it.
    fn chain(
        &mut self,
        operand: fn(&mut Self) -> Result<Expr>,
        op: impl Fn(&mut Self) -> Option<BinaryOp>,
    ) -> Result<Expr> {
        let mut left = operand(self)?;
        while let Some(op) = op(self) {
            self.count_operator()?;
            let right = operand(self)?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    /// A binary operator from `ops`, consumed when the next token is one.
    fn binary_op(&mut self, ops: &[(Symbol, BinaryOp)]) -> Option<BinaryOp> {
        let TokenKind::Symbol(sym) = self.peek_kind() else { return None };
        let op = ops.iter().find(|(s, _)| s == sym)?.1;
        self.bump();
        Some(op)
    }

    // ---- queries ----------------------------------------------------------

    /// A query that is not nested in another one.
    fn top_query(&mut self) -> Result<Query> {
        self.operators = 0;
        self.query()
    }

    fn query(&mut self) -> Result<Query> {
        self.nested(Self::query_body)
    }

    fn query_body(&mut self) -> Result<Query> {
        self.expect_keyword("SELECT")?;
        let mut q = Query::new();
        q.distinct = self.eat_keyword("DISTINCT");
        loop {
            q.projection.push(self.select_item()?);
            if !self.eat_symbol(Symbol::Comma) {
                break;
            }
        }
        if self.eat_keyword("FROM") {
            loop {
                q.from.push(self.table_ref()?);
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
        }
        if self.eat_keyword("WHERE") {
            q.where_clause = Some(self.expr()?);
        }
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                q.group_by.push(self.expr()?);
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
        }
        if self.eat_keyword("HAVING") {
            q.having = Some(self.expr()?);
        }
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let expr = self.expr()?;
                let dir = if self.eat_keyword("DESC") {
                    SortDir::Desc
                } else {
                    self.eat_keyword("ASC");
                    SortDir::Asc
                };
                q.order_by.push(OrderByItem { expr, dir });
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
        }
        if self.eat_keyword("LIMIT") {
            q.limit = Some(self.unsigned_int()?);
        }
        if self.eat_keyword("OFFSET") {
            q.offset = Some(self.unsigned_int()?);
        }
        Ok(q)
    }

    fn unsigned_int(&mut self) -> Result<u64> {
        match self.peek_kind() {
            TokenKind::Int(v) if *v >= 0 => {
                let v = *v as u64;
                self.bump();
                Ok(v)
            }
            other => Err(self.error_here(format!("expected non-negative integer, found {other}"))),
        }
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.at_symbol(Symbol::Star) {
            self.bump();
            return Ok(SelectItem::Wildcard);
        }
        // `t.*`
        if let TokenKind::Ident(name) = self.peek_kind() {
            let name = name.clone();
            if matches!(
                self.tokens.get(self.pos + 1).map(|t| &t.kind),
                Some(TokenKind::Symbol(Symbol::Dot))
            ) && matches!(
                self.tokens.get(self.pos + 2).map(|t| &t.kind),
                Some(TokenKind::Symbol(Symbol::Star))
            ) {
                self.bump();
                self.bump();
                self.bump();
                return Ok(SelectItem::QualifiedWildcard(name));
            }
        }
        let expr = self.expr()?;
        let alias =
            if self.eat_keyword("AS") || self.at_ident() { Some(self.ident()?) } else { None };
        Ok(SelectItem::Expr { expr, alias })
    }

    // ---- FROM clause ------------------------------------------------------

    fn table_ref(&mut self) -> Result<TableRef> {
        let mut left = self.table_factor()?;
        loop {
            let kind = if self.eat_keyword("JOIN") {
                JoinKind::Inner
            } else if self.at_keyword("INNER") {
                self.bump();
                self.expect_keyword("JOIN")?;
                JoinKind::Inner
            } else if self.at_keyword("LEFT") {
                self.bump();
                self.eat_keyword("OUTER");
                self.expect_keyword("JOIN")?;
                JoinKind::Left
            } else if self.at_keyword("CROSS") {
                self.bump();
                self.expect_keyword("JOIN")?;
                JoinKind::Cross
            } else {
                break;
            };
            self.count_operator()?;
            let right = self.table_factor()?;
            let on = if kind != JoinKind::Cross {
                self.expect_keyword("ON")?;
                Some(self.expr()?)
            } else {
                None
            };
            left = TableRef::Join { left: Box::new(left), right: Box::new(right), kind, on };
        }
        Ok(left)
    }

    fn table_factor(&mut self) -> Result<TableRef> {
        if self.eat_symbol(Symbol::LParen) {
            // Either a derived table or a parenthesized join.
            if self.at_keyword("SELECT") {
                let query = Box::new(self.query()?);
                self.expect_symbol(Symbol::RParen)?;
                self.eat_keyword("AS");
                let alias = self.ident()?;
                return Ok(TableRef::Subquery { query, alias });
            }
            let inner = self.nested(Self::table_ref)?;
            self.expect_symbol(Symbol::RParen)?;
            return Ok(inner);
        }
        let name = self.ident()?;
        let alias =
            if self.eat_keyword("AS") || self.at_ident() { Some(self.ident()?) } else { None };
        Ok(TableRef::Named { name, alias })
    }

    // ---- expressions ------------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.nested(Self::or_expr)
    }

    fn or_expr(&mut self) -> Result<Expr> {
        self.chain(Self::and_expr, |p| p.eat_keyword("OR").then_some(BinaryOp::Or))
    }

    fn and_expr(&mut self) -> Result<Expr> {
        self.chain(Self::not_expr, |p| p.eat_keyword("AND").then_some(BinaryOp::And))
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_keyword("NOT") {
            let inner = self.nested(Self::not_expr)?;
            // Fold `NOT EXISTS (...)` into the Exists node's negated flag so
            // both spellings produce the same AST.
            return Ok(match inner {
                Expr::Exists { subquery, negated } => Expr::Exists { subquery, negated: !negated },
                other => Expr::Unary { op: UnaryOp::Not, expr: Box::new(other) },
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        // Postfix predicates: IN, BETWEEN, LIKE, IS [NOT] NULL.
        let negated = self.eat_keyword("NOT");
        if self.eat_keyword("IN") {
            self.expect_symbol(Symbol::LParen)?;
            if self.at_keyword("SELECT") {
                let subquery = Box::new(self.query()?);
                self.expect_symbol(Symbol::RParen)?;
                return Ok(Expr::InSubquery { expr: Box::new(left), subquery, negated });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
            self.expect_symbol(Symbol::RParen)?;
            return Ok(Expr::InList { expr: Box::new(left), list, negated });
        }
        if self.eat_keyword("BETWEEN") {
            let low = self.additive()?;
            self.expect_keyword("AND")?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_keyword("LIKE") {
            let pattern = self.additive()?;
            return Ok(Expr::Like { expr: Box::new(left), pattern: Box::new(pattern), negated });
        }
        if negated {
            return Err(self.error_here("expected IN, BETWEEN or LIKE after NOT"));
        }
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated });
        }
        let op = match self.peek_kind() {
            TokenKind::Symbol(Symbol::Eq) => BinaryOp::Eq,
            TokenKind::Symbol(Symbol::NotEq) => BinaryOp::NotEq,
            TokenKind::Symbol(Symbol::Lt) => BinaryOp::Lt,
            TokenKind::Symbol(Symbol::LtEq) => BinaryOp::LtEq,
            TokenKind::Symbol(Symbol::Gt) => BinaryOp::Gt,
            TokenKind::Symbol(Symbol::GtEq) => BinaryOp::GtEq,
            _ => return Ok(left),
        };
        self.bump();
        let right = self.additive()?;
        Ok(Expr::binary(left, op, right))
    }

    fn additive(&mut self) -> Result<Expr> {
        const OPS: [(Symbol, BinaryOp); 3] = [
            (Symbol::Plus, BinaryOp::Add),
            (Symbol::Minus, BinaryOp::Sub),
            (Symbol::Concat, BinaryOp::Concat),
        ];
        self.chain(Self::multiplicative, |p| p.binary_op(&OPS))
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        const OPS: [(Symbol, BinaryOp); 3] = [
            (Symbol::Star, BinaryOp::Mul),
            (Symbol::Slash, BinaryOp::Div),
            (Symbol::Percent, BinaryOp::Mod),
        ];
        self.chain(Self::unary, |p| p.binary_op(&OPS))
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat_symbol(Symbol::Minus) {
            // Fold negation into numeric literals for canonical ASTs.
            let inner = self.nested(Self::unary)?;
            return Ok(match inner {
                Expr::Literal(Literal::Int(v)) => Expr::int(-v),
                Expr::Literal(Literal::Float(F64(v))) => Expr::float(-v),
                other => Expr::Unary { op: UnaryOp::Neg, expr: Box::new(other) },
            });
        }
        if self.eat_symbol(Symbol::Plus) {
            return self.nested(Self::unary);
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek_kind().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::int(v))
            }
            TokenKind::Float(v) => {
                self.bump();
                Ok(Expr::float(v))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr::Literal(Literal::Str(s)))
            }
            TokenKind::Keyword("NULL") => {
                self.bump();
                Ok(Expr::Literal(Literal::Null))
            }
            TokenKind::Keyword("TRUE") => {
                self.bump();
                Ok(Expr::Literal(Literal::Bool(true)))
            }
            TokenKind::Keyword("FALSE") => {
                self.bump();
                Ok(Expr::Literal(Literal::Bool(false)))
            }
            TokenKind::Keyword("DATE") => {
                self.bump();
                match self.peek_kind().clone() {
                    TokenKind::Str(s) => {
                        let d = Date::parse(&s).ok_or_else(|| {
                            self.error_here(format!("invalid date literal '{s}'"))
                        })?;
                        self.bump();
                        Ok(Expr::Literal(Literal::Date(d)))
                    }
                    // Not a literal: `date` is being used as an identifier
                    // (column or function name), e.g. the COVID `date` column.
                    TokenKind::Symbol(Symbol::LParen) => {
                        self.bump();
                        self.function_call("date".to_string())
                    }
                    TokenKind::Symbol(Symbol::Dot) => {
                        self.bump();
                        let column = self.ident()?;
                        Ok(Expr::Column(ColumnRef::qualified("date", column)))
                    }
                    _ => Ok(Expr::Column(ColumnRef::bare("date"))),
                }
            }
            TokenKind::Keyword("CASE") => self.case_expr(),
            TokenKind::Keyword("EXISTS") => {
                self.bump();
                self.expect_symbol(Symbol::LParen)?;
                let subquery = Box::new(self.query()?);
                self.expect_symbol(Symbol::RParen)?;
                Ok(Expr::Exists { subquery, negated: false })
            }
            TokenKind::Keyword("NOT") => {
                // `NOT EXISTS (...)` reachable from primary position.
                self.bump();
                self.expect_keyword("EXISTS")?;
                self.expect_symbol(Symbol::LParen)?;
                let subquery = Box::new(self.query()?);
                self.expect_symbol(Symbol::RParen)?;
                Ok(Expr::Exists { subquery, negated: true })
            }
            TokenKind::Symbol(Symbol::LParen) => {
                self.bump();
                if self.at_keyword("SELECT") {
                    let q = Box::new(self.query()?);
                    self.expect_symbol(Symbol::RParen)?;
                    return Ok(Expr::ScalarSubquery(q));
                }
                let inner = self.expr()?;
                self.expect_symbol(Symbol::RParen)?;
                Ok(inner)
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.eat_symbol(Symbol::LParen) {
                    return self.function_call(name);
                }
                if self.eat_symbol(Symbol::Dot) {
                    let column = self.ident()?;
                    return Ok(Expr::Column(ColumnRef::qualified(name, column)));
                }
                Ok(Expr::Column(ColumnRef::bare(name)))
            }
            other => Err(self.error_here(format!("unexpected token {other} in expression"))),
        }
    }

    fn function_call(&mut self, name: String) -> Result<Expr> {
        let name = name.to_ascii_lowercase();
        let distinct = self.eat_keyword("DISTINCT");
        let mut args = Vec::new();
        if !self.at_symbol(Symbol::RParen) {
            loop {
                if self.at_symbol(Symbol::Star) {
                    self.bump();
                    args.push(Expr::Wildcard);
                } else {
                    args.push(self.expr()?);
                }
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
        }
        self.expect_symbol(Symbol::RParen)?;
        Ok(Expr::Function { name, args, distinct })
    }

    fn case_expr(&mut self) -> Result<Expr> {
        self.expect_keyword("CASE")?;
        let operand = if self.at_keyword("WHEN") { None } else { Some(Box::new(self.expr()?)) };
        let mut branches = Vec::new();
        while self.eat_keyword("WHEN") {
            let cond = self.expr()?;
            self.expect_keyword("THEN")?;
            let value = self.expr()?;
            branches.push((cond, value));
        }
        if branches.is_empty() {
            return Err(self.error_here("CASE requires at least one WHEN branch"));
        }
        let else_expr = if self.eat_keyword("ELSE") { Some(Box::new(self.expr()?)) } else { None };
        self.expect_keyword("END")?;
        Ok(Expr::Case { operand, branches, else_expr })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_select() {
        let q = parse_query("SELECT a FROM t").unwrap();
        assert_eq!(q.projection.len(), 1);
        assert_eq!(q.from, vec![TableRef::named("t")]);
    }

    #[test]
    fn parses_all_clauses() {
        let q = parse_query(
            "SELECT DISTINCT state, sum(cases) AS total FROM covid \
             WHERE date >= DATE '2021-12-01' AND cases > 0 \
             GROUP BY state HAVING sum(cases) > 100 \
             ORDER BY total DESC, state ASC LIMIT 10 OFFSET 5",
        )
        .unwrap();
        assert!(q.distinct);
        assert_eq!(q.projection.len(), 2);
        assert!(q.where_clause.is_some());
        assert_eq!(q.group_by.len(), 1);
        assert!(q.having.is_some());
        assert_eq!(q.order_by.len(), 2);
        assert_eq!(q.order_by[0].dir, SortDir::Desc);
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.offset, Some(5));
    }

    #[test]
    fn parses_count_star() {
        let q = parse_query("SELECT count(*) FROM t").unwrap();
        let SelectItem::Expr { expr, .. } = &q.projection[0] else { panic!() };
        assert_eq!(*expr, Expr::count_star());
    }

    #[test]
    fn operator_precedence_and_over_or() {
        let q = parse_query("SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3").unwrap();
        let Some(Expr::Binary { op: BinaryOp::Or, right, .. }) = q.where_clause else {
            panic!("expected OR at root");
        };
        assert!(matches!(*right, Expr::Binary { op: BinaryOp::And, .. }));
    }

    #[test]
    fn arithmetic_precedence() {
        let q = parse_query("SELECT 1 + 2 * 3").unwrap();
        let SelectItem::Expr { expr, .. } = &q.projection[0] else { panic!() };
        let Expr::Binary { op: BinaryOp::Add, right, .. } = expr else { panic!("expected +") };
        assert!(matches!(**right, Expr::Binary { op: BinaryOp::Mul, .. }));
    }

    #[test]
    fn unary_minus_folds_into_literal() {
        let q = parse_query("SELECT -5, -2.5").unwrap();
        let SelectItem::Expr { expr, .. } = &q.projection[0] else { panic!() };
        assert_eq!(*expr, Expr::int(-5));
        let SelectItem::Expr { expr, .. } = &q.projection[1] else { panic!() };
        assert_eq!(*expr, Expr::float(-2.5));
    }

    #[test]
    fn parses_joins() {
        let q = parse_query(
            "SELECT * FROM covid c JOIN regions r ON c.state = r.state LEFT JOIN x ON x.id = r.id",
        )
        .unwrap();
        let TableRef::Join { kind, .. } = &q.from[0] else { panic!("expected join") };
        assert_eq!(*kind, JoinKind::Left);
    }

    #[test]
    fn parses_cross_join_without_on() {
        let q = parse_query("SELECT * FROM a CROSS JOIN b").unwrap();
        let TableRef::Join { kind, on, .. } = &q.from[0] else { panic!() };
        assert_eq!(*kind, JoinKind::Cross);
        assert!(on.is_none());
    }

    #[test]
    fn parses_derived_table() {
        let q = parse_query("SELECT s.total FROM (SELECT sum(x) AS total FROM t) AS s").unwrap();
        assert!(matches!(q.from[0], TableRef::Subquery { .. }));
    }

    #[test]
    fn parses_in_list_and_subquery() {
        let q = parse_query("SELECT a FROM t WHERE a IN (1, 2, 3)").unwrap();
        assert!(matches!(q.where_clause, Some(Expr::InList { .. })));
        let q = parse_query("SELECT a FROM t WHERE a NOT IN (SELECT b FROM u)").unwrap();
        assert!(matches!(q.where_clause, Some(Expr::InSubquery { negated: true, .. })));
    }

    #[test]
    fn parses_exists_and_not_exists() {
        let q = parse_query("SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.id = t.id)")
            .unwrap();
        assert!(matches!(q.where_clause, Some(Expr::Exists { negated: false, .. })));
        let q = parse_query("SELECT a FROM t WHERE NOT EXISTS (SELECT 1 FROM u)").unwrap();
        assert!(matches!(q.where_clause, Some(Expr::Exists { negated: true, .. })));
    }

    #[test]
    fn parses_between() {
        let q = parse_query("SELECT a FROM t WHERE ra BETWEEN 150.0 AND 180.0").unwrap();
        assert!(matches!(q.where_clause, Some(Expr::Between { negated: false, .. })));
        let q = parse_query("SELECT a FROM t WHERE ra NOT BETWEEN 1 AND 2").unwrap();
        assert!(matches!(q.where_clause, Some(Expr::Between { negated: true, .. })));
    }

    #[test]
    fn parses_case() {
        let q = parse_query("SELECT CASE WHEN a > 0 THEN 'pos' ELSE 'neg' END FROM t").unwrap();
        let SelectItem::Expr { expr, .. } = &q.projection[0] else { panic!() };
        assert!(matches!(expr, Expr::Case { .. }));
    }

    #[test]
    fn parses_scalar_subquery() {
        let q = parse_query("SELECT a FROM t WHERE a > (SELECT avg(a) FROM t)").unwrap();
        let Some(Expr::Binary { right, .. }) = q.where_clause else { panic!() };
        assert!(matches!(*right, Expr::ScalarSubquery(_)));
    }

    #[test]
    fn parses_is_null() {
        let q = parse_query("SELECT a FROM t WHERE a IS NOT NULL").unwrap();
        assert!(matches!(q.where_clause, Some(Expr::IsNull { negated: true, .. })));
    }

    #[test]
    fn parses_like() {
        let q = parse_query("SELECT a FROM t WHERE name LIKE 'New%'").unwrap();
        assert!(matches!(q.where_clause, Some(Expr::Like { negated: false, .. })));
    }

    #[test]
    fn parses_date_literal() {
        let q = parse_query("SELECT a FROM t WHERE d = DATE '2021-12-15'").unwrap();
        let Some(Expr::Binary { right, .. }) = q.where_clause else { panic!() };
        assert_eq!(*right, Expr::date("2021-12-15"));
    }

    #[test]
    fn rejects_invalid_date_literal() {
        assert!(parse_query("SELECT DATE '2021-02-30'").is_err());
    }

    #[test]
    fn parses_multiple_statements() {
        let qs = parse_queries("SELECT a FROM t; SELECT b FROM u;").unwrap();
        assert_eq!(qs.len(), 2);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_query("SELECT a FROM t WHERE").is_err());
        assert!(parse_query("SELECT a FROM t xyzzy plugh").is_err());
    }

    #[test]
    fn function_names_are_lowercased() {
        let q = parse_query("SELECT COUNT(*), SUM(x) FROM t").unwrap();
        let SelectItem::Expr { expr, .. } = &q.projection[0] else { panic!() };
        assert!(matches!(expr, Expr::Function { name, .. } if name == "count"));
    }

    #[test]
    fn alias_without_as() {
        let q = parse_query("SELECT sum(cases) total FROM covid c").unwrap();
        let SelectItem::Expr { alias, .. } = &q.projection[0] else { panic!() };
        assert_eq!(alias.as_deref(), Some("total"));
        assert_eq!(q.from[0], TableRef::aliased("covid", "c"));
    }

    #[test]
    fn parses_qualified_wildcard() {
        let q = parse_query("SELECT c.* FROM covid c").unwrap();
        assert_eq!(q.projection[0], SelectItem::QualifiedWildcard("c".into()));
    }

    #[test]
    fn parses_correlated_subquery_from_demo() {
        // Shape of Q4 from the paper's §3.2 walkthrough.
        let q = parse_query(
            "SELECT date, state, cases FROM covid c JOIN regions r ON c.state = r.state \
             WHERE r.region = 'South' AND date BETWEEN DATE '2021-12-01' AND DATE '2021-12-31' \
             AND state IN (SELECT c2.state FROM covid c2 JOIN regions r2 ON c2.state = r2.state \
                           WHERE r2.region = r.region GROUP BY c2.state \
                           HAVING avg(c2.cases) > (SELECT avg(c3.cases) FROM covid c3 \
                              JOIN regions r3 ON c3.state = r3.state WHERE r3.region = r.region))",
        )
        .unwrap();
        assert!(q.where_clause.is_some());
    }
}
