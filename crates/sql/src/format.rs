//! A multi-line SQL formatter.
//!
//! [`std::fmt::Display`] on [`Query`] emits canonical single-line SQL (built for
//! round-tripping); this module pretty-prints for humans — the notebook's
//! cell display and the HTML export's query log, where the walkthrough's Q4
//! (joins plus correlated subqueries) is unreadable on one line.

use crate::ast::*;

/// Pretty-print a query across multiple lines with `indent`-space nesting
/// per subquery level. The output still parses back to the same AST.
pub fn format_query(q: &Query, indent: usize) -> String {
    let mut out = String::new();
    write_query(q, 0, indent, &mut out);
    out
}

fn pad(level: usize, indent: usize) -> String {
    " ".repeat(level * indent)
}

fn write_query(q: &Query, level: usize, indent: usize, out: &mut String) {
    let p = pad(level, indent);

    out.push_str(&p);
    out.push_str("SELECT ");
    if q.distinct {
        out.push_str("DISTINCT ");
    }
    let items: Vec<String> = q.projection.iter().map(|i| i.to_string()).collect();
    out.push_str(&items.join(", "));

    if !q.from.is_empty() {
        out.push('\n');
        out.push_str(&p);
        out.push_str("FROM ");
        let tables: Vec<String> = q.from.iter().map(|t| format_table_ref(t, indent)).collect();
        out.push_str(&tables.join(", "));
    }

    if let Some(w) = &q.where_clause {
        out.push('\n');
        out.push_str(&p);
        out.push_str("WHERE ");
        write_predicate(w, level, indent, out);
    }

    if !q.group_by.is_empty() {
        out.push('\n');
        out.push_str(&p);
        out.push_str("GROUP BY ");
        let gs: Vec<String> = q.group_by.iter().map(|g| g.to_string()).collect();
        out.push_str(&gs.join(", "));
    }

    if let Some(h) = &q.having {
        out.push('\n');
        out.push_str(&p);
        out.push_str("HAVING ");
        write_predicate(h, level, indent, out);
    }

    if !q.order_by.is_empty() {
        out.push('\n');
        out.push_str(&p);
        out.push_str("ORDER BY ");
        let os: Vec<String> = q
            .order_by
            .iter()
            .map(|o| {
                if o.dir == SortDir::Desc {
                    format!("{} DESC", o.expr)
                } else {
                    o.expr.to_string()
                }
            })
            .collect();
        out.push_str(&os.join(", "));
    }

    if let Some(l) = q.limit {
        out.push('\n');
        out.push_str(&p);
        out.push_str(&format!("LIMIT {l}"));
    }
    if let Some(o) = q.offset {
        out.push('\n');
        out.push_str(&p);
        out.push_str(&format!("OFFSET {o}"));
    }
}

/// Conjuncts go one per line, aligned under the clause keyword; each
/// conjunct containing a subquery expands it on the following lines.
fn write_predicate(pred: &Expr, level: usize, indent: usize, out: &mut String) {
    let parts = crate::visit::conjuncts(pred);
    for (i, part) in parts.iter().enumerate() {
        if i > 0 {
            out.push('\n');
            out.push_str(&pad(level, indent));
            out.push_str("  AND ");
        }
        write_expr(part, level, indent, out);
    }
}

fn write_expr(e: &Expr, level: usize, indent: usize, out: &mut String) {
    match e {
        Expr::InSubquery { expr, subquery, negated } => {
            out.push_str(&format!("{expr} {}IN (\n", if *negated { "NOT " } else { "" }));
            write_query(subquery, level + 1, indent, out);
            out.push('\n');
            out.push_str(&pad(level, indent));
            out.push(')');
        }
        Expr::Exists { subquery, negated } => {
            out.push_str(&format!("{}EXISTS (\n", if *negated { "NOT " } else { "" }));
            write_query(subquery, level + 1, indent, out);
            out.push('\n');
            out.push_str(&pad(level, indent));
            out.push(')');
        }
        Expr::Binary { left, op, right } if op.is_comparison() => {
            if let Expr::ScalarSubquery(sq) = right.as_ref() {
                out.push_str(&format!("{left} {} (\n", op.sql()));
                write_query(sq, level + 1, indent, out);
                out.push('\n');
                out.push_str(&pad(level, indent));
                out.push(')');
            } else {
                out.push_str(&e.to_string());
            }
        }
        other => out.push_str(&other.to_string()),
    }
}

fn format_table_ref(t: &TableRef, indent: usize) -> String {
    // Derived tables expand; joins stay inline (their ON conditions are
    // usually short).
    match t {
        TableRef::Subquery { query, alias } => {
            let inner = format_query(query, indent);
            let padded: String =
                inner.lines().map(|l| format!("{}{l}\n", pad(1, indent))).collect();
            format!("(\n{padded}) AS {alias}")
        }
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;

    fn roundtrip(sql: &str) -> String {
        let q = parse_query(sql).unwrap();
        let pretty = format_query(&q, 2);
        let reparsed = parse_query(&pretty)
            .unwrap_or_else(|e| panic!("formatted SQL does not reparse: {e}\n{pretty}"));
        assert_eq!(q, reparsed, "formatting changed the AST:\n{pretty}");
        pretty
    }

    #[test]
    fn formats_simple_query_on_clause_lines() {
        let pretty = roundtrip("SELECT state, sum(cases) FROM covid WHERE cases > 0 GROUP BY state ORDER BY state LIMIT 5");
        let lines: Vec<&str> = pretty.lines().collect();
        assert_eq!(lines[0], "SELECT state, sum(cases)");
        assert_eq!(lines[1], "FROM covid");
        assert_eq!(lines[2], "WHERE cases > 0");
        assert_eq!(lines[3], "GROUP BY state");
        assert_eq!(lines[4], "ORDER BY state");
        assert_eq!(lines[5], "LIMIT 5");
    }

    #[test]
    fn conjuncts_align_under_where() {
        let pretty = roundtrip("SELECT a FROM t WHERE x = 1 AND y = 2 AND z = 3");
        assert!(pretty.contains("WHERE x = 1\n  AND y = 2\n  AND z = 3"), "{pretty}");
    }

    #[test]
    fn q4_subqueries_expand_indented() {
        let q4 = &pi2_datasets_free_q4();
        let q = parse_query(q4).unwrap();
        let pretty = format_query(&q, 2);
        // The IN subquery and the scalar subquery each sit on their own
        // indented block.
        assert!(pretty.contains("IN (\n"), "{pretty}");
        assert!(pretty.lines().count() > 8, "{pretty}");
        assert_eq!(parse_query(&pretty).unwrap(), q);
    }

    /// The paper's Q4 shape without depending on pi2-datasets (which would
    /// be a dependency cycle).
    fn pi2_datasets_free_q4() -> String {
        "SELECT c.date, c.state, sum(c.cases) AS cases FROM covid c JOIN regions r ON c.state = r.state \
         WHERE r.region = 'South' AND c.date BETWEEN DATE '2021-12-16' AND DATE '2021-12-31' \
         AND c.state IN (SELECT c2.state FROM covid c2 JOIN regions r2 ON c2.state = r2.state \
           WHERE r2.region = r.region GROUP BY c2.state \
           HAVING avg(c2.cases) > (SELECT avg(c3.cases) FROM covid c3 JOIN regions r3 \
             ON c3.state = r3.state WHERE r3.region = r.region)) GROUP BY c.date, c.state"
            .to_string()
    }

    #[test]
    fn derived_tables_expand() {
        let pretty = roundtrip("SELECT s.total FROM (SELECT sum(x) AS total FROM t) AS s");
        assert!(pretty.contains("FROM (\n"), "{pretty}");
        assert!(pretty.contains(") AS s"), "{pretty}");
    }

    #[test]
    fn scalar_subquery_in_comparison_expands() {
        let pretty = roundtrip("SELECT a FROM t WHERE a > (SELECT avg(a) FROM t)");
        assert!(pretty.contains("> (\n"), "{pretty}");
    }
}
