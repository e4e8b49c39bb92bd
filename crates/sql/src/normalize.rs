//! Structural normalization of queries.
//!
//! Normalization makes semantically-identical query spellings compare equal,
//! which directly improves DiffTree merging: two analysts' predicates
//! `a = 1 AND b = 2` and `b = 2 AND a = 1` should merge without spurious
//! choice nodes. Normalization:
//!
//! 1. orders the operands of commutative comparisons so the column reference
//!    comes first (`1 = a` becomes `a = 1`, flipping the operator),
//! 2. flattens `AND` chains and sorts conjuncts by a stable structural key,
//! 3. recursively normalizes subqueries and derived tables.
//!
//! `x >= lo AND x <= hi` is *not* rewritten into `BETWEEN` (or vice versa):
//! the DiffTree layer detects both spellings as range predicates.

use crate::ast::*;
use crate::visit::{conjoin, conjuncts};

/// Normalize a query in place (see module docs).
pub fn normalize_query(query: &mut Query) {
    for item in &mut query.projection {
        if let SelectItem::Expr { expr, .. } = item {
            normalize_expr(expr);
        }
    }
    for t in &mut query.from {
        normalize_table_ref(t);
    }
    if let Some(w) = query.where_clause.take() {
        query.where_clause = Some(normalize_predicate(w));
    }
    for g in &mut query.group_by {
        normalize_expr(g);
    }
    // GROUP BY order carries no semantics; sort it for a canonical form.
    query.group_by.sort_by_key(|g| g.to_string());
    if let Some(h) = query.having.take() {
        query.having = Some(normalize_predicate(h));
    }
    for o in &mut query.order_by {
        normalize_expr(&mut o.expr);
    }
}

/// Normalized copy of a query.
pub fn normalized(query: &Query) -> Query {
    let mut q = query.clone();
    normalize_query(&mut q);
    q
}

/// Literal-free normalized copy of a query: every literal constant is
/// replaced by a canonical placeholder (`NULL`), then the query is
/// normalized. Two queries that differ only in their literal values —
/// `a = 1` vs `a = 2`, `d BETWEEN '2021-01-01' AND '2021-02-01'` vs any
/// other date window — produce identical literal-free forms, while any
/// structural difference (another column, operator, grouping, …) keeps
/// them apart.
///
/// This is the per-query basis of the fleet generation-cache fingerprint:
/// in a DiffTree, literal variation becomes the *binding domain* of a
/// widget rather than interface structure, so logs that only differ in
/// literals generate the same interface and may share a cache entry.
///
/// Literals are erased *before* normalization so conjunct sort keys never
/// depend on the erased values.
pub fn literal_free(query: &Query) -> Query {
    let mut q = query.clone();
    crate::visit::rewrite_query_exprs(&mut q, &mut |e| match e {
        Expr::Literal(_) => Expr::Literal(Literal::Null),
        other => other,
    });
    normalize_query(&mut q);
    q
}

fn normalize_table_ref(t: &mut TableRef) {
    match t {
        TableRef::Named { .. } => {}
        TableRef::Subquery { query, .. } => normalize_query(query),
        TableRef::Join { left, right, on, .. } => {
            normalize_table_ref(left);
            normalize_table_ref(right);
            if let Some(on) = on {
                normalize_expr(on);
            }
        }
    }
}

/// Normalize a boolean predicate: normalize each conjunct, then sort the
/// conjuncts by a stable key and rebuild a left-deep `AND` chain.
fn normalize_predicate(expr: Expr) -> Expr {
    let mut parts: Vec<Expr> = conjuncts(&expr).into_iter().cloned().collect();
    for p in &mut parts {
        normalize_expr(p);
    }
    parts.sort_by_key(sort_key);
    conjoin(parts).expect("predicate has at least one conjunct")
}

/// Stable ordering key for conjuncts: the printed form, which sorts
/// predicates over the same column next to each other.
fn sort_key(e: &Expr) -> String {
    e.to_string()
}

fn normalize_expr(expr: &mut Expr) {
    // Stop at subquery boundaries: the closure normalizes each subquery
    // whole, and descending into it again would redo that work once per
    // enclosing level (exponential in the nesting depth).
    crate::visit::rewrite_expr_in_scope(expr, &mut |e| match e {
        Expr::Binary { left, op, right } if op.is_comparison() => {
            // Put the "structural" operand (column/function) on the left when
            // the left side is a bare literal, flipping the comparison.
            if matches!(*left, Expr::Literal(_)) && !matches!(*right, Expr::Literal(_)) {
                let flipped = match op {
                    BinaryOp::Lt => BinaryOp::Gt,
                    BinaryOp::LtEq => BinaryOp::GtEq,
                    BinaryOp::Gt => BinaryOp::Lt,
                    BinaryOp::GtEq => BinaryOp::LtEq,
                    other => other,
                };
                Expr::Binary { left: right, op: flipped, right: left }
            } else {
                Expr::Binary { left, op, right }
            }
        }
        Expr::ScalarSubquery(mut q) => {
            normalize_query(&mut q);
            Expr::ScalarSubquery(q)
        }
        Expr::InSubquery { expr, mut subquery, negated } => {
            normalize_query(&mut subquery);
            Expr::InSubquery { expr, subquery, negated }
        }
        Expr::Exists { mut subquery, negated } => {
            normalize_query(&mut subquery);
            Expr::Exists { subquery, negated }
        }
        other => other,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;

    fn norm(sql: &str) -> String {
        let mut q = parse_query(sql).unwrap();
        normalize_query(&mut q);
        q.to_string()
    }

    #[test]
    fn sorts_conjuncts() {
        assert_eq!(
            norm("SELECT x FROM t WHERE b = 2 AND a = 1"),
            norm("SELECT x FROM t WHERE a = 1 AND b = 2")
        );
    }

    #[test]
    fn flips_literal_first_comparisons() {
        assert_eq!(norm("SELECT x FROM t WHERE 5 < a"), "SELECT x FROM t WHERE a > 5");
        assert_eq!(norm("SELECT x FROM t WHERE 5 = a"), "SELECT x FROM t WHERE a = 5");
    }

    #[test]
    fn normalizes_inside_subqueries() {
        let a = norm("SELECT x FROM t WHERE y IN (SELECT z FROM u WHERE c = 3 AND b = 2)");
        let b = norm("SELECT x FROM t WHERE y IN (SELECT z FROM u WHERE b = 2 AND c = 3)");
        assert_eq!(a, b);
    }

    #[test]
    fn normalization_is_idempotent() {
        let once = norm("SELECT x FROM t WHERE c = 3 AND 1 < a AND b = 2");
        let mut q = parse_query(&once).unwrap();
        normalize_query(&mut q);
        assert_eq!(q.to_string(), once);
    }

    #[test]
    fn preserves_or_structure() {
        // OR operands must not be reordered across the OR.
        let s = norm("SELECT x FROM t WHERE b = 2 OR a = 1");
        assert_eq!(s, "SELECT x FROM t WHERE b = 2 OR a = 1");
    }

    #[test]
    fn keeps_between_spelling() {
        let s = norm("SELECT x FROM t WHERE a BETWEEN 1 AND 2");
        assert!(s.contains("BETWEEN"));
    }

    fn lf(sql: &str) -> String {
        literal_free(&parse_query(sql).unwrap()).to_string()
    }

    #[test]
    fn literal_free_erases_only_literals() {
        assert_eq!(
            lf("SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p"),
            lf("SELECT p, count(*) FROM t WHERE a = 2 GROUP BY p")
        );
        // Different column: still distinct.
        assert_ne!(
            lf("SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p"),
            lf("SELECT p, count(*) FROM t WHERE b = 1 GROUP BY p")
        );
        // Different operator: still distinct.
        assert_ne!(lf("SELECT x FROM t WHERE a = 1"), lf("SELECT x FROM t WHERE a > 1"));
    }

    #[test]
    fn literal_free_is_order_stable() {
        // Conjunct order never depends on the erased literal values.
        assert_eq!(
            lf("SELECT x FROM t WHERE a = 9 AND b = 0"),
            lf("SELECT x FROM t WHERE b = 7 AND a = 7")
        );
    }

    #[test]
    fn literal_free_reaches_subqueries_and_between() {
        assert_eq!(
            lf("SELECT x FROM t WHERE y IN (SELECT z FROM u WHERE c = 3) AND a BETWEEN 1 AND 5"),
            lf("SELECT x FROM t WHERE y IN (SELECT z FROM u WHERE c = 8) AND a BETWEEN 2 AND 9")
        );
    }
}
