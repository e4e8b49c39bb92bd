//! Expression evaluation with SQL three-valued logic, name scopes, and
//! correlated-subquery support.
//!
//! Evaluation happens inside an [`ExecCtx`], which also owns the query
//! executor (see [`crate::exec`]) and a memo table for correlated
//! subqueries keyed on the subquery's free variables.

use crate::catalog::Catalog;
use crate::error::{EngineError, Result};
use crate::functions::eval_scalar;
use crate::result::ResultSet;
use crate::value::{DataType, Value};
use pi2_sql::{is_aggregate_function, BinaryOp, ColumnRef, Expr, Query, UnaryOp};
use std::borrow::Cow;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::rc::Rc;

/// Memo of subquery executions, keyed by (query hash, free-variable values).
type SubqueryMemo = HashMap<(u64, Vec<Value>), Rc<ResultSet>>;

/// One field of an intermediate relation: the visible qualifier (table name
/// or alias), the column name, and its type.
#[derive(Debug, Clone)]
pub struct RelField {
    /// Qualifier.
    pub qualifier: Option<String>,
    /// The name.
    pub name: String,
    /// The column's data type.
    pub data_type: DataType,
}

/// The schema of an intermediate relation during execution.
#[derive(Debug, Clone, Default)]
pub struct RelSchema {
    /// The fields, in order.
    pub fields: Vec<RelField>,
}

impl RelSchema {
    /// Resolve a column reference. `Ok(Some(i))` is the field index,
    /// `Ok(None)` means "not visible here" (the caller tries the outer
    /// scope), and `Err` means the reference is ambiguous.
    pub fn resolve(&self, col: &ColumnRef) -> Result<Option<usize>> {
        let mut found = None;
        for (i, f) in self.fields.iter().enumerate() {
            let matches = match &col.table {
                Some(q) => {
                    f.qualifier.as_deref().is_some_and(|fq| fq.eq_ignore_ascii_case(q))
                        && f.name.eq_ignore_ascii_case(&col.column)
                }
                None => f.name.eq_ignore_ascii_case(&col.column),
            };
            if matches {
                if found.is_some() {
                    return Err(EngineError::AmbiguousColumn(col.to_string()));
                }
                found = Some(i);
            }
        }
        Ok(found)
    }
}

/// Values of the aggregate calls computed for one group, keyed by the
/// structural hash of the aggregate expression.
#[derive(Debug, Default)]
pub struct AggBindings {
    /// Map.
    pub map: HashMap<u64, Value>,
}

/// A name-resolution scope: the current relation schema and row, an optional
/// parent scope (for correlated subqueries), and optional aggregate
/// bindings (when evaluating post-aggregation expressions).
pub struct Scope<'a> {
    /// The output schema.
    pub schema: &'a RelSchema,
    /// Row.
    pub row: &'a [Value],
    /// Parent.
    pub parent: Option<&'a Scope<'a>>,
    /// Aggs.
    pub aggs: Option<&'a AggBindings>,
}

impl<'a> Scope<'a> {
    /// A scope with no parent and no aggregates.
    pub fn base(schema: &'a RelSchema, row: &'a [Value]) -> Self {
        Scope { schema, row, parent: None, aggs: None }
    }

    fn lookup(&self, col: &ColumnRef) -> Result<Value> {
        self.lookup_ref(col).cloned()
    }

    /// Resolve a column to a borrowed value, walking parent scopes. The
    /// returned borrow lives as long as the scope's row — this is what lets
    /// the executor's hot loops evaluate predicates without cloning.
    pub(crate) fn lookup_ref(&self, col: &ColumnRef) -> Result<&'a Value> {
        match self.schema.resolve(col)? {
            Some(i) => Ok(&self.row[i]),
            None => match self.parent {
                Some(p) => p.lookup_ref(col),
                None => Err(EngineError::UnknownColumn(col.to_string())),
            },
        }
    }
}

/// Execution context: the catalog plus per-execution caches.
pub struct ExecCtx<'c> {
    /// Catalog.
    pub catalog: &'c Catalog,
    /// Memo for subquery executions, keyed by (query hash, free-var values).
    pub(crate) memo: RefCell<SubqueryMemo>,
    /// Cache of each subquery's free variables, keyed by query hash.
    pub(crate) free_vars: RefCell<HashMap<u64, Rc<Vec<ColumnRef>>>>,
    /// Resource limits copied from the catalog at context creation.
    pub(crate) limits: crate::catalog::ExecLimits,
    /// When this execution started (for the wall-clock limit).
    pub(crate) started: std::time::Instant,
}

impl<'c> ExecCtx<'c> {
    /// Create a fresh context for one top-level query execution.
    pub fn new(catalog: &'c Catalog) -> Self {
        Self {
            catalog,
            memo: RefCell::new(HashMap::new()),
            free_vars: RefCell::new(HashMap::new()),
            limits: catalog.limits(),
            started: std::time::Instant::now(),
        }
    }

    /// Enforce the catalog's [`crate::catalog::ExecLimits`] against the
    /// number of rows an operator has materialized so far. Called from
    /// the executor's row-producing loops; the wall-clock check is
    /// amortized to every [`LIMIT_CHECK_ROWS`]th row to keep the common case
    /// to a compare.
    pub(crate) fn check_limits(&self, rows: usize) -> Result<()> {
        enforce_limits(&self.limits, self.started, rows)
    }

    /// Evaluate `expr` in `scope`, borrowing the result from the row when
    /// the expression is a plain column reference. Hot loops (WHERE
    /// filtering, comparisons, IN lists) go through this to avoid cloning a
    /// `Value` — potentially a heap string — per row per column access.
    pub(crate) fn eval_ref<'s>(&self, expr: &Expr, scope: &Scope<'s>) -> Result<Cow<'s, Value>> {
        match expr {
            Expr::Column(c) => scope.lookup_ref(c).map(Cow::Borrowed),
            other => self.eval(other, scope).map(Cow::Owned),
        }
    }

    /// Evaluate `expr` in `scope`.
    pub fn eval(&self, expr: &Expr, scope: &Scope<'_>) -> Result<Value> {
        match expr {
            Expr::Column(c) => scope.lookup(c),
            Expr::Literal(l) => Ok(Value::from_literal(l)),
            Expr::Wildcard => Err(EngineError::Unsupported("bare * outside count(*)".into())),
            Expr::Unary { op, expr } => {
                let v = self.eval_ref(expr, scope)?;
                match op {
                    UnaryOp::Not => Ok(match &*v {
                        Value::Null => Value::Null,
                        Value::Bool(b) => Value::Bool(!b),
                        other => {
                            return Err(EngineError::TypeMismatch(format!("NOT {other}")));
                        }
                    }),
                    UnaryOp::Neg => match &*v {
                        Value::Null => Ok(Value::Null),
                        Value::Int(v) => Ok(Value::Int(-v)),
                        Value::Float(v) => Ok(Value::Float(-v)),
                        other => Err(EngineError::TypeMismatch(format!("-{other}"))),
                    },
                }
            }
            Expr::Binary { left, op, right } => self.eval_binary(left, *op, right, scope),
            Expr::Function { name, args, distinct } => {
                if is_aggregate_function(name) {
                    let key = expr.structural_hash();
                    if let Some(aggs) = scope.aggs {
                        if let Some(v) = aggs.map.get(&key) {
                            return Ok(v.clone());
                        }
                    }
                    // A correlated reference to an outer aggregate context.
                    let mut cur = scope.parent;
                    while let Some(s) = cur {
                        if let Some(aggs) = s.aggs {
                            if let Some(v) = aggs.map.get(&key) {
                                return Ok(v.clone());
                            }
                        }
                        cur = s.parent;
                    }
                    Err(EngineError::Unsupported(format!(
                        "aggregate {name}(..) used outside an aggregating query"
                    )))
                } else {
                    let _ = distinct;
                    let vals: Vec<Value> =
                        args.iter().map(|a| self.eval(a, scope)).collect::<Result<_>>()?;
                    eval_scalar(name, &vals)
                }
            }
            Expr::Case { operand, branches, else_expr } => {
                let op_val = operand.as_ref().map(|o| self.eval_ref(o, scope)).transpose()?;
                for (when, then) in branches {
                    let hit = match &op_val {
                        Some(ov) => {
                            let wv = self.eval_ref(when, scope)?;
                            cmp_values(ov, &wv)? == Some(Ordering::Equal)
                        }
                        None => self.eval_ref(when, scope)?.is_truthy(),
                    };
                    if hit {
                        return self.eval(then, scope);
                    }
                }
                match else_expr {
                    Some(e) => self.eval(e, scope),
                    None => Ok(Value::Null),
                }
            }
            Expr::InList { expr, list, negated } => {
                let needle = self.eval_ref(expr, scope)?;
                if needle.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let v = self.eval_ref(item, scope)?;
                    match cmp_values(&needle, &v)? {
                        None => saw_null = true,
                        Some(Ordering::Equal) => {
                            return Ok(Value::Bool(!negated));
                        }
                        Some(_) => {}
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            Expr::InSubquery { expr, subquery, negated } => {
                let needle = self.eval_ref(expr, scope)?;
                if needle.is_null() {
                    return Ok(Value::Null);
                }
                let result = self.exec_subquery(subquery, scope)?;
                if result.schema.len() != 1 {
                    return Err(EngineError::ScalarSubquery(format!(
                        "IN subquery returns {} columns",
                        result.schema.len()
                    )));
                }
                let mut saw_null = false;
                for v in result.column(0) {
                    match cmp_values(&needle, &v)? {
                        None => saw_null = true,
                        Some(Ordering::Equal) => return Ok(Value::Bool(!negated)),
                        Some(_) => {}
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            Expr::Exists { subquery, negated } => {
                let result = self.exec_subquery(subquery, scope)?;
                Ok(Value::Bool(result.is_empty() == *negated))
            }
            Expr::Between { expr, low, high, negated } => {
                let v = self.eval_ref(expr, scope)?;
                let lo = self.eval_ref(low, scope)?;
                let hi = self.eval_ref(high, scope)?;
                let ge = three_valued_cmp(&v, &lo, |o| o != Ordering::Less)?;
                let le = three_valued_cmp(&v, &hi, |o| o != Ordering::Greater)?;
                let both = and3(ge, le);
                Ok(match both {
                    None => Value::Null,
                    Some(b) => Value::Bool(b != *negated),
                })
            }
            Expr::ScalarSubquery(q) => {
                let result = self.exec_subquery(q, scope)?;
                if result.schema.len() != 1 {
                    return Err(EngineError::ScalarSubquery(format!(
                        "scalar subquery returns {} columns",
                        result.schema.len()
                    )));
                }
                match result.len() {
                    0 => Ok(Value::Null),
                    1 => Ok(result.columns()[0].value(0)),
                    n => Err(EngineError::ScalarSubquery(format!(
                        "scalar subquery returned {n} rows"
                    ))),
                }
            }
            Expr::IsNull { expr, negated } => {
                let v = self.eval_ref(expr, scope)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            Expr::Like { expr, pattern, negated } => {
                let v = self.eval_ref(expr, scope)?;
                let p = self.eval_ref(pattern, scope)?;
                match (&*v, &*p) {
                    (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                    (Value::Str(s), Value::Str(p)) => Ok(Value::Bool(like_match(p, s) != *negated)),
                    (a, b) => Err(EngineError::TypeMismatch(format!("{a} LIKE {b}"))),
                }
            }
        }
    }

    fn eval_binary(
        &self,
        left: &Expr,
        op: BinaryOp,
        right: &Expr,
        scope: &Scope<'_>,
    ) -> Result<Value> {
        // AND/OR use SQL three-valued logic with short-circuiting where the
        // truth value is already determined.
        match op {
            BinaryOp::And => {
                let lv = self.eval_ref(left, scope)?;
                let l = to_bool3(&lv)?;
                if l == Some(false) {
                    return Ok(Value::Bool(false));
                }
                let rv = self.eval_ref(right, scope)?;
                let r = to_bool3(&rv)?;
                return Ok(match and3(l, r) {
                    Some(b) => Value::Bool(b),
                    None => Value::Null,
                });
            }
            BinaryOp::Or => {
                let lv = self.eval_ref(left, scope)?;
                let l = to_bool3(&lv)?;
                if l == Some(true) {
                    return Ok(Value::Bool(true));
                }
                let rv = self.eval_ref(right, scope)?;
                let r = to_bool3(&rv)?;
                return Ok(match or3(l, r) {
                    Some(b) => Value::Bool(b),
                    None => Value::Null,
                });
            }
            _ => {}
        }
        let l = self.eval_ref(left, scope)?;
        let r = self.eval_ref(right, scope)?;
        if op.is_comparison() {
            return Ok(match cmp_values(&l, &r)? {
                None => Value::Null,
                Some(ord) => Value::Bool(apply_comparison(op, ord)),
            });
        }
        arithmetic(&l, op, &r)
    }

    /// Execute a subquery with memoization on its free variables.
    pub(crate) fn exec_subquery(&self, q: &Query, outer: &Scope<'_>) -> Result<Rc<ResultSet>> {
        let qhash = q.structural_hash();
        let free = {
            let mut cache = self.free_vars.borrow_mut();
            cache
                .entry(qhash)
                .or_insert_with(|| Rc::new(crate::exec::free_columns(q, self.catalog)))
                .clone()
        };
        // Evaluate the free variables in the outer scope; if any fails,
        // fall back to unmemoized execution (the executor will surface the
        // real error, or the reference resolves through a path the analysis
        // didn't model).
        let mut key_vals = Vec::with_capacity(free.len());
        let mut keyable = true;
        for col in free.iter() {
            match outer.lookup(col) {
                Ok(v) => key_vals.push(v),
                Err(_) => {
                    keyable = false;
                    break;
                }
            }
        }
        if keyable {
            let key = (qhash, key_vals);
            if let Some(hit) = self.memo.borrow().get(&key) {
                return Ok(hit.clone());
            }
            let result = Rc::new(self.execute_query(q, Some(outer))?);
            self.memo.borrow_mut().insert(key, result.clone());
            Ok(result)
        } else {
            Ok(Rc::new(self.execute_query(q, Some(outer))?))
        }
    }
}

/// SQL comparison: `None` if either side is NULL, the ordering otherwise.
/// Numeric types compare across Int/Float; other types must match.
pub fn cmp_values(a: &Value, b: &Value) -> Result<Option<Ordering>> {
    use Value::*;
    Ok(Some(match (a, b) {
        (Null, _) | (_, Null) => return Ok(None),
        (Bool(x), Bool(y)) => x.cmp(y),
        (Int(x), Int(y)) => x.cmp(y),
        (Float(x), Float(y)) => x.total_cmp(y),
        (Int(x), Float(y)) => (*x as f64).total_cmp(y),
        (Float(x), Int(y)) => x.total_cmp(&(*y as f64)),
        (Str(x), Str(y)) => x.cmp(y),
        (Date(x), Date(y)) => x.cmp(y),
        (x, y) => {
            return Err(EngineError::TypeMismatch(format!(
                "cannot compare {} with {}",
                x.data_type(),
                y.data_type()
            )))
        }
    }))
}

/// Rows between two wall-clock checks of [`enforce_limits`].
pub(crate) const LIMIT_CHECK_ROWS: usize = 256;

/// Wall-clock / row-count limit enforcement shared by the reference and
/// columnar executors (see [`ExecCtx::check_limits`] for the cadence).
pub(crate) fn enforce_limits(
    limits: &crate::catalog::ExecLimits,
    started: std::time::Instant,
    rows: usize,
) -> Result<()> {
    if limits.max_rows.is_some_and(|m| rows > m) {
        return Err(EngineError::ResourceExhausted(format!(
            "row limit exceeded: materialized {rows} rows (limit {})",
            limits.max_rows.unwrap_or(0)
        )));
    }
    if let Some(timeout) = limits.timeout {
        if rows.is_multiple_of(LIMIT_CHECK_ROWS) && started.elapsed() >= timeout {
            return Err(EngineError::ResourceExhausted(format!(
                "query timeout: exceeded {timeout:?}"
            )));
        }
    }
    Ok(())
}

/// Map a comparison operator over an ordering; `op` must be a comparison.
pub(crate) fn apply_comparison(op: BinaryOp, ord: Ordering) -> bool {
    match op {
        BinaryOp::Eq => ord == Ordering::Equal,
        BinaryOp::NotEq => ord != Ordering::Equal,
        BinaryOp::Lt => ord == Ordering::Less,
        BinaryOp::LtEq => ord != Ordering::Greater,
        BinaryOp::Gt => ord == Ordering::Greater,
        BinaryOp::GtEq => ord != Ordering::Less,
        _ => unreachable!("not a comparison"),
    }
}

pub(crate) fn three_valued_cmp(
    a: &Value,
    b: &Value,
    f: impl Fn(Ordering) -> bool,
) -> Result<Option<bool>> {
    Ok(cmp_values(a, b)?.map(f))
}

pub(crate) fn to_bool3(v: &Value) -> Result<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
        other => Err(EngineError::TypeMismatch(format!("expected boolean, got {other}"))),
    }
}

pub(crate) fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

pub(crate) fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

pub(crate) fn arithmetic(l: &Value, op: BinaryOp, r: &Value) -> Result<Value> {
    use Value::*;
    if l.is_null() || r.is_null() {
        return Ok(Null);
    }
    if op == BinaryOp::Concat {
        return Ok(Str(format!("{l}{r}")));
    }
    // Date arithmetic: Date ± Int, Date - Date.
    match (&l, op, &r) {
        (Date(d), BinaryOp::Add, Int(n)) | (Int(n), BinaryOp::Add, Date(d)) => {
            return Ok(Date(d.plus_days(*n as i32)));
        }
        (Date(d), BinaryOp::Sub, Int(n)) => return Ok(Date(d.plus_days(-(*n as i32)))),
        (Date(a), BinaryOp::Sub, Date(b)) => return Ok(Int((a.0 - b.0) as i64)),
        _ => {}
    }
    match (&l, &r) {
        (Int(a), Int(b)) => {
            let (a, b) = (*a, *b);
            Ok(match op {
                BinaryOp::Add => Int(a.wrapping_add(b)),
                BinaryOp::Sub => Int(a.wrapping_sub(b)),
                BinaryOp::Mul => Int(a.wrapping_mul(b)),
                // Division by zero yields NULL, matching SQLite.
                BinaryOp::Div => {
                    if b == 0 {
                        Null
                    } else {
                        Int(a.wrapping_div(b))
                    }
                }
                BinaryOp::Mod => {
                    if b == 0 {
                        Null
                    } else {
                        Int(a.wrapping_rem(b))
                    }
                }
                other => return Err(EngineError::TypeMismatch(format!("{a} {} {b}", other.sql()))),
            })
        }
        _ => {
            let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
                return Err(EngineError::TypeMismatch(format!(
                    "{} {} {}",
                    l.data_type(),
                    op.sql(),
                    r.data_type()
                )));
            };
            Ok(match op {
                BinaryOp::Add => Float(a + b),
                BinaryOp::Sub => Float(a - b),
                BinaryOp::Mul => Float(a * b),
                BinaryOp::Div => {
                    if b == 0.0 {
                        Null
                    } else {
                        Float(a / b)
                    }
                }
                BinaryOp::Mod => {
                    if b == 0.0 {
                        Null
                    } else {
                        Float(a % b)
                    }
                }
                other => return Err(EngineError::TypeMismatch(format!("{a} {} {b}", other.sql()))),
            })
        }
    }
}

/// SQL LIKE matching: `%` matches any run, `_` matches one character.
/// Case-sensitive, as in standard SQL.
pub fn like_match(pattern: &str, text: &str) -> bool {
    fn go(p: &[char], t: &[char]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some('%') => {
                // Try consuming 0..=len characters.
                (0..=t.len()).any(|k| go(&p[1..], &t[k..]))
            }
            Some('_') => !t.is_empty() && go(&p[1..], &t[1..]),
            Some(c) => t.first() == Some(c) && go(&p[1..], &t[1..]),
        }
    }
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    go(&p, &t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_patterns() {
        assert!(like_match("New%", "New York"));
        assert!(!like_match("New%", "Vermont"));
        assert!(like_match("%ork", "New York"));
        assert!(like_match("%o%", "Florida"));
        assert!(like_match("F_orida", "Florida"));
        assert!(!like_match("F_orida", "Fllorida"));
        assert!(like_match("%", ""));
        assert!(!like_match("_", ""));
        assert!(like_match("abc", "abc"));
    }

    #[test]
    fn three_valued_tables() {
        assert_eq!(and3(Some(true), None), None);
        assert_eq!(and3(Some(false), None), Some(false));
        assert_eq!(or3(Some(true), None), Some(true));
        assert_eq!(or3(Some(false), None), None);
        assert_eq!(or3(None, None), None);
    }

    #[test]
    fn arithmetic_int_division_truncates() {
        assert_eq!(
            arithmetic(&Value::Int(7), BinaryOp::Div, &Value::Int(2)).unwrap(),
            Value::Int(3)
        );
        assert_eq!(arithmetic(&Value::Int(7), BinaryOp::Div, &Value::Int(0)).unwrap(), Value::Null);
    }

    #[test]
    fn arithmetic_mixed_is_float() {
        assert_eq!(
            arithmetic(&Value::Int(1), BinaryOp::Add, &Value::Float(0.5)).unwrap(),
            Value::Float(1.5)
        );
    }

    #[test]
    fn date_arithmetic() {
        let d = Value::date("2021-12-30");
        assert_eq!(
            arithmetic(&d, BinaryOp::Add, &Value::Int(3)).unwrap(),
            Value::date("2022-01-02")
        );
        assert_eq!(
            arithmetic(&Value::date("2022-01-02"), BinaryOp::Sub, &Value::date("2021-12-30"))
                .unwrap(),
            Value::Int(3)
        );
    }

    #[test]
    fn concat_coerces() {
        assert_eq!(
            arithmetic(&Value::str("a"), BinaryOp::Concat, &Value::Int(1)).unwrap(),
            Value::str("a1")
        );
    }

    #[test]
    fn cmp_rejects_cross_type() {
        assert!(cmp_values(&Value::Int(1), &Value::str("1")).is_err());
        assert_eq!(cmp_values(&Value::Int(1), &Value::Null).unwrap(), None);
    }
}
