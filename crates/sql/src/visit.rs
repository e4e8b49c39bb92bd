//! Visitor utilities over the AST.
//!
//! These walkers power the DiffTree lifter, the baselines, and the interface
//! mapper: collecting literals, column references, and aggregate calls, and
//! applying in-place expression rewrites.

use crate::ast::*;

/// Walk every sub-expression of `expr` (pre-order), including `expr` itself.
/// The callback returns `true` to descend into children.
pub fn walk_expr<'a>(expr: &'a Expr, f: &mut dyn FnMut(&'a Expr) -> bool) {
    if !f(expr) {
        return;
    }
    match expr {
        Expr::Column(_) | Expr::Literal(_) | Expr::Wildcard => {}
        Expr::Unary { expr, .. } => walk_expr(expr, f),
        Expr::Binary { left, right, .. } => {
            walk_expr(left, f);
            walk_expr(right, f);
        }
        Expr::Function { args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
        Expr::Case { operand, branches, else_expr } => {
            if let Some(o) = operand {
                walk_expr(o, f);
            }
            for (w, t) in branches {
                walk_expr(w, f);
                walk_expr(t, f);
            }
            if let Some(e) = else_expr {
                walk_expr(e, f);
            }
        }
        Expr::InList { expr, list, .. } => {
            walk_expr(expr, f);
            for e in list {
                walk_expr(e, f);
            }
        }
        Expr::InSubquery { expr, subquery, .. } => {
            walk_expr(expr, f);
            walk_query_exprs(subquery, f);
        }
        Expr::Exists { subquery, .. } => walk_query_exprs(subquery, f),
        Expr::Between { expr, low, high, .. } => {
            walk_expr(expr, f);
            walk_expr(low, f);
            walk_expr(high, f);
        }
        Expr::ScalarSubquery(q) => walk_query_exprs(q, f),
        Expr::IsNull { expr, .. } => walk_expr(expr, f),
        Expr::Like { expr, pattern, .. } => {
            walk_expr(expr, f);
            walk_expr(pattern, f);
        }
    }
}

/// Walk every expression appearing anywhere in `query`, including inside
/// derived tables and subqueries.
pub fn walk_query_exprs<'a>(query: &'a Query, f: &mut dyn FnMut(&'a Expr) -> bool) {
    for item in &query.projection {
        if let SelectItem::Expr { expr, .. } = item {
            walk_expr(expr, f);
        }
    }
    for t in &query.from {
        walk_table_ref_exprs(t, f);
    }
    if let Some(w) = &query.where_clause {
        walk_expr(w, f);
    }
    for g in &query.group_by {
        walk_expr(g, f);
    }
    if let Some(h) = &query.having {
        walk_expr(h, f);
    }
    for o in &query.order_by {
        walk_expr(&o.expr, f);
    }
}

fn walk_table_ref_exprs<'a>(t: &'a TableRef, f: &mut dyn FnMut(&'a Expr) -> bool) {
    match t {
        TableRef::Named { .. } => {}
        TableRef::Subquery { query, .. } => walk_query_exprs(query, f),
        TableRef::Join { left, right, on, .. } => {
            walk_table_ref_exprs(left, f);
            walk_table_ref_exprs(right, f);
            if let Some(on) = on {
                walk_expr(on, f);
            }
        }
    }
}

/// True if `expr` contains an aggregate function call at any depth *outside*
/// nested subqueries (an aggregate inside a subquery does not aggregate the
/// outer query).
pub fn contains_aggregate(expr: &Expr) -> bool {
    match expr {
        Expr::Function { name, args, .. } => {
            is_aggregate_function(name) || args.iter().any(contains_aggregate)
        }
        Expr::Column(_) | Expr::Literal(_) | Expr::Wildcard => false,
        Expr::Unary { expr, .. } => contains_aggregate(expr),
        Expr::Binary { left, right, .. } => contains_aggregate(left) || contains_aggregate(right),
        Expr::Case { operand, branches, else_expr } => {
            operand.as_deref().is_some_and(contains_aggregate)
                || branches.iter().any(|(w, t)| contains_aggregate(w) || contains_aggregate(t))
                || else_expr.as_deref().is_some_and(contains_aggregate)
        }
        Expr::InList { expr, list, .. } => {
            contains_aggregate(expr) || list.iter().any(contains_aggregate)
        }
        Expr::Between { expr, low, high, .. } => {
            contains_aggregate(expr) || contains_aggregate(low) || contains_aggregate(high)
        }
        Expr::IsNull { expr, .. } => contains_aggregate(expr),
        Expr::Like { expr, pattern, .. } => contains_aggregate(expr) || contains_aggregate(pattern),
        // Subqueries form their own aggregation scope.
        Expr::InSubquery { expr, .. } => contains_aggregate(expr),
        Expr::Exists { .. } | Expr::ScalarSubquery(_) => false,
    }
}

/// Collect every literal in the query (including inside subqueries), in
/// syntactic order.
pub fn collect_literals(query: &Query) -> Vec<&Literal> {
    let mut out = Vec::new();
    walk_query_exprs(query, &mut |e| {
        if let Expr::Literal(l) = e {
            out.push(l);
        }
        true
    });
    out
}

/// Collect every column reference in the query (including inside subqueries).
pub fn collect_columns(query: &Query) -> Vec<&ColumnRef> {
    let mut out = Vec::new();
    walk_query_exprs(query, &mut |e| {
        if let Expr::Column(c) = e {
            out.push(c);
        }
        true
    });
    out
}

/// Collect the names of every base table referenced by the query, including
/// inside derived tables and subqueries.
pub fn collect_table_names(query: &Query) -> Vec<&str> {
    fn from_table<'a>(t: &'a TableRef, out: &mut Vec<&'a str>) {
        match t {
            TableRef::Named { name, .. } => out.push(name),
            TableRef::Subquery { query, .. } => from_query(query, out),
            TableRef::Join { left, right, .. } => {
                from_table(left, out);
                from_table(right, out);
            }
        }
    }
    fn from_query<'a>(q: &'a Query, out: &mut Vec<&'a str>) {
        for t in &q.from {
            from_table(t, out);
        }
        if let Some(w) = &q.where_clause {
            from_expr(w, out);
        }
        if let Some(h) = &q.having {
            from_expr(h, out);
        }
        for item in &q.projection {
            if let SelectItem::Expr { expr, .. } = item {
                from_expr(expr, out);
            }
        }
    }
    // Each subquery is visited once, by `from_query`; the walk does not
    // descend into it again.
    fn from_expr<'a>(e: &'a Expr, out: &mut Vec<&'a str>) {
        walk_expr(e, &mut |e| match e {
            Expr::InSubquery { expr, subquery, .. } => {
                from_expr(expr, out);
                from_query(subquery, out);
                false
            }
            Expr::Exists { subquery, .. } | Expr::ScalarSubquery(subquery) => {
                from_query(subquery, out);
                false
            }
            _ => true,
        });
    }
    let mut out = Vec::new();
    from_query(query, &mut out);
    out
}

/// Apply `f` to every expression in the query top-down, replacing each
/// expression with the returned value. `f` receives an owned expression and
/// is applied *before* recursing into the (possibly new) children.
pub fn rewrite_query_exprs(query: &mut Query, f: &mut dyn FnMut(Expr) -> Expr) {
    for item in &mut query.projection {
        if let SelectItem::Expr { expr, .. } = item {
            rewrite_expr(expr, f);
        }
    }
    for t in &mut query.from {
        rewrite_table_ref(t, f);
    }
    if let Some(w) = &mut query.where_clause {
        rewrite_expr(w, f);
    }
    for g in &mut query.group_by {
        rewrite_expr(g, f);
    }
    if let Some(h) = &mut query.having {
        rewrite_expr(h, f);
    }
    for o in &mut query.order_by {
        rewrite_expr(&mut o.expr, f);
    }
}

fn rewrite_table_ref(t: &mut TableRef, f: &mut dyn FnMut(Expr) -> Expr) {
    match t {
        TableRef::Named { .. } => {}
        TableRef::Subquery { query, .. } => rewrite_query_exprs(query, f),
        TableRef::Join { left, right, on, .. } => {
            rewrite_table_ref(left, f);
            rewrite_table_ref(right, f);
            if let Some(on) = on {
                rewrite_expr(on, f);
            }
        }
    }
}

/// Apply `f` to `expr` and then recursively to its children, in place.
pub fn rewrite_expr(expr: &mut Expr, f: &mut dyn FnMut(Expr) -> Expr) {
    rewrite(expr, f, true);
}

/// [`rewrite_expr`] that does not descend into subqueries: `f` sees each
/// subquery node but none of the expressions inside it.
pub(crate) fn rewrite_expr_in_scope(expr: &mut Expr, f: &mut dyn FnMut(Expr) -> Expr) {
    rewrite(expr, f, false);
}

fn rewrite(expr: &mut Expr, f: &mut dyn FnMut(Expr) -> Expr, into: bool) {
    let owned = std::mem::replace(expr, Expr::Wildcard);
    *expr = f(owned);
    match expr {
        Expr::Column(_) | Expr::Literal(_) | Expr::Wildcard => {}
        Expr::Unary { expr, .. } => rewrite(expr, f, into),
        Expr::Binary { left, right, .. } => {
            rewrite(left, f, into);
            rewrite(right, f, into);
        }
        Expr::Function { args, .. } => {
            for a in args {
                rewrite(a, f, into);
            }
        }
        Expr::Case { operand, branches, else_expr } => {
            if let Some(o) = operand {
                rewrite(o, f, into);
            }
            for (w, t) in branches {
                rewrite(w, f, into);
                rewrite(t, f, into);
            }
            if let Some(e) = else_expr {
                rewrite(e, f, into);
            }
        }
        Expr::InList { expr, list, .. } => {
            rewrite(expr, f, into);
            for e in list {
                rewrite(e, f, into);
            }
        }
        Expr::InSubquery { expr, subquery, .. } => {
            rewrite(expr, f, into);
            if into {
                rewrite_query_exprs(subquery, f);
            }
        }
        Expr::Exists { subquery, .. } if into => rewrite_query_exprs(subquery, f),
        Expr::Between { expr, low, high, .. } => {
            rewrite(expr, f, into);
            rewrite(low, f, into);
            rewrite(high, f, into);
        }
        Expr::ScalarSubquery(q) if into => rewrite_query_exprs(q, f),
        Expr::Exists { .. } | Expr::ScalarSubquery(_) => {}
        Expr::IsNull { expr, .. } => rewrite(expr, f, into),
        Expr::Like { expr, pattern, .. } => {
            rewrite(expr, f, into);
            rewrite(pattern, f, into);
        }
    }
}

/// Split a boolean expression into its top-level conjuncts.
pub fn conjuncts(expr: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    fn go<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        if let Expr::Binary { left, op: BinaryOp::And, right } = e {
            go(left, out);
            go(right, out);
        } else {
            out.push(e);
        }
    }
    go(expr, &mut out);
    out
}

/// Rebuild a conjunction from parts; returns `None` for an empty list.
pub fn conjoin(parts: Vec<Expr>) -> Option<Expr> {
    parts.into_iter().reduce(Expr::and)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;

    #[test]
    fn collects_literals_in_order() {
        let q = parse_query("SELECT a FROM t WHERE x = 1 AND y = 'two' AND z > 3.5").unwrap();
        let lits = collect_literals(&q);
        assert_eq!(lits.len(), 3);
        assert_eq!(*lits[0], Literal::Int(1));
        assert_eq!(*lits[1], Literal::Str("two".into()));
    }

    #[test]
    fn collects_literals_inside_subqueries() {
        let q = parse_query("SELECT a FROM t WHERE x IN (SELECT y FROM u WHERE z = 7)").unwrap();
        let lits = collect_literals(&q);
        assert_eq!(lits, vec![&Literal::Int(7)]);
    }

    #[test]
    fn collects_columns() {
        let q = parse_query("SELECT a, t.b FROM t WHERE c = 1").unwrap();
        let cols: Vec<String> = collect_columns(&q).iter().map(|c| c.column.clone()).collect();
        assert_eq!(cols, vec!["a", "b", "c"]);
    }

    #[test]
    fn collects_table_names_recursively() {
        let q = parse_query(
            "SELECT * FROM covid c JOIN regions r ON c.state = r.state \
             WHERE x IN (SELECT s FROM other)",
        )
        .unwrap();
        let names = collect_table_names(&q);
        assert_eq!(names, vec!["covid", "regions", "other"]);
    }

    #[test]
    fn aggregate_detection_ignores_subqueries() {
        let q = parse_query("SELECT a FROM t WHERE a > (SELECT avg(a) FROM t)").unwrap();
        assert!(!q.is_aggregating());
        let q = parse_query("SELECT avg(a) FROM t").unwrap();
        assert!(q.is_aggregating());
    }

    #[test]
    fn conjuncts_flatten_and_chain() {
        let q = parse_query("SELECT a FROM t WHERE x = 1 AND y = 2 AND (z = 3 OR w = 4)").unwrap();
        let c = conjuncts(q.where_clause.as_ref().unwrap());
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn conjoin_rebuilds() {
        let parts =
            vec![Expr::eq(Expr::col("a"), Expr::int(1)), Expr::eq(Expr::col("b"), Expr::int(2))];
        let e = conjoin(parts).unwrap();
        assert_eq!(conjuncts(&e).len(), 2);
        assert!(conjoin(vec![]).is_none());
    }

    #[test]
    fn rewrite_replaces_literals() {
        let mut q = parse_query("SELECT a FROM t WHERE x = 1").unwrap();
        rewrite_query_exprs(&mut q, &mut |e| {
            if let Expr::Literal(Literal::Int(v)) = e {
                Expr::int(v + 100)
            } else {
                e
            }
        });
        assert_eq!(q.to_string(), "SELECT a FROM t WHERE x = 101");
    }
}
