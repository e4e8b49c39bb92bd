//! The query executor.
//!
//! Executes a [`pi2_sql::Query`] AST directly against the catalog. The
//! pipeline is: build the FROM relation (scans, derived tables, joins with a
//! hash-join fast path for equi-joins), filter with WHERE, aggregate if the
//! query groups, project, apply DISTINCT / ORDER BY / LIMIT / OFFSET. A
//! FROM clause that is one named table is not materialized: its row cursor
//! streams into WHERE, which keeps only the rows that pass.

use crate::catalog::Catalog;
use crate::columnar::{Column, ColumnBuilder, ColumnarTable};
use crate::error::{EngineError, Result};
use crate::eval::{AggBindings, ExecCtx, RelField, RelSchema, Scope};
use crate::result::ResultSet;
use crate::schema::{Field, Schema};
use crate::value::{DataType, Value};
use pi2_sql::visit::walk_expr;
use pi2_sql::{
    is_aggregate_function, BinaryOp, ColumnRef, Expr, JoinKind, Literal, Query, SelectItem,
    SortDir, TableRef, UnaryOp,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// An intermediate relation: schema plus materialized rows.
struct Relation {
    schema: RelSchema,
    rows: Vec<Vec<Value>>,
}

impl<'c> ExecCtx<'c> {
    /// Execute a top-level query.
    pub fn execute(&self, q: &Query) -> Result<ResultSet> {
        self.execute_query(q, None)
    }

    pub(crate) fn execute_query(&self, q: &Query, outer: Option<&Scope<'_>>) -> Result<ResultSet> {
        if let [TableRef::Named { name, alias }] = q.from.as_slice() {
            let table = self.named_table(name)?;
            let schema = qualified(&table.schema, alias.as_ref().unwrap_or(name));
            return self.execute_rows(q, &schema, table.rows(), outer);
        }
        let input = self.build_from(&q.from, outer)?;
        self.execute_rows(q, &input.schema, input.rows.into_iter(), outer)
    }

    /// WHERE over `input` (Scan → Filter: only passing rows are kept), then
    /// aggregation or projection and the shared query tail.
    fn execute_rows(
        &self,
        q: &Query,
        schema: &RelSchema,
        input: impl Iterator<Item = Vec<Value>>,
        outer: Option<&Scope<'_>>,
    ) -> Result<ResultSet> {
        let rows: Vec<Vec<Value>> = match &q.where_clause {
            Some(pred) => {
                let mut rows = Vec::new();
                for row in input {
                    let scope = Scope { schema, row: &row, parent: outer, aggs: None };
                    if self.eval_ref(pred, &scope)?.is_truthy() {
                        rows.push(row);
                    }
                }
                rows
            }
            None => input.collect(),
        };

        // Expand the projection list against the input schema.
        let items = expand_projection(&q.projection, schema)?;

        // Static output schema; refined from values after execution.
        let out_fields: Vec<Field> = items
            .iter()
            .map(|(expr, alias)| Field::new(output_name(expr, alias), infer_type(expr, schema)))
            .collect();

        // Evaluate rows (+ ORDER BY keys alongside).
        let mut out = Output::new(items.len());
        if q.is_aggregating() {
            self.execute_grouped(q, schema, rows, &items, outer, &mut out)?;
        } else {
            if q.having.is_some() {
                return Err(EngineError::Unsupported("HAVING without aggregation".into()));
            }
            for row in rows {
                self.check_limits(out.len)?;
                let scope = Scope { schema, row: &row, parent: outer, aggs: None };
                let mut values = Vec::with_capacity(items.len());
                for (expr, _) in &items {
                    values.push(self.eval(expr, &scope)?);
                }
                self.push_output(q, &items, values, &scope, &mut out)?;
            }
        }

        Ok(finalize_result(q, out_fields, out))
    }

    /// Grouped execution: hash-aggregate `rows`, filter with HAVING, project.
    #[allow(clippy::too_many_arguments)]
    fn execute_grouped(
        &self,
        q: &Query,
        schema: &RelSchema,
        rows: Vec<Vec<Value>>,
        items: &[(Expr, Option<String>)],
        outer: Option<&Scope<'_>>,
        out: &mut Output,
    ) -> Result<()> {
        // Aggregate calls appearing anywhere downstream of grouping.
        let mut agg_exprs: Vec<Expr> = Vec::new();
        let mut seen_aggs: HashSet<u64> = HashSet::new();
        let mut collect = |e: &Expr| {
            collect_aggregates(e, &mut |agg| {
                if seen_aggs.insert(agg.structural_hash()) {
                    agg_exprs.push(agg.clone());
                }
            });
        };
        for (expr, _) in items {
            collect(expr);
        }
        if let Some(h) = &q.having {
            collect(h);
        }
        for o in &q.order_by {
            collect(&o.expr);
        }

        // Group rows by GROUP BY keys.
        let mut groups: Vec<(Vec<Value>, Vec<Vec<Value>>)> = Vec::new();
        let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
        for row in rows {
            let scope = Scope { schema, row: &row, parent: outer, aggs: None };
            let key: Vec<Value> =
                q.group_by.iter().map(|g| self.eval(g, &scope)).collect::<Result<_>>()?;
            match index.get(&key) {
                Some(&i) => groups[i].1.push(row),
                None => {
                    index.insert(key.clone(), groups.len());
                    groups.push((key, vec![row]));
                }
            }
        }
        // Ungrouped aggregation over zero rows still yields one group.
        if groups.is_empty() && q.group_by.is_empty() {
            groups.push((Vec::new(), Vec::new()));
        }

        let null_row = vec![Value::Null; schema.fields.len()];
        for (_, group_rows) in groups {
            self.check_limits(out.len)?;
            let mut aggs = AggBindings::default();
            for agg in &agg_exprs {
                let v = self.compute_aggregate(agg, schema, &group_rows, outer)?;
                aggs.map.insert(agg.structural_hash(), v);
            }
            let rep_row = group_rows.first().unwrap_or(&null_row);
            let scope = Scope { schema, row: rep_row, parent: outer, aggs: Some(&aggs) };
            if let Some(h) = &q.having {
                if !self.eval_ref(h, &scope)?.is_truthy() {
                    continue;
                }
            }
            let mut values = Vec::with_capacity(items.len());
            for (expr, _) in items {
                values.push(self.eval(expr, &scope)?);
            }
            self.push_output(q, items, values, &scope, out)?;
        }
        Ok(())
    }

    /// Evaluate one aggregate call over a group.
    fn compute_aggregate(
        &self,
        agg: &Expr,
        schema: &RelSchema,
        group_rows: &[Vec<Value>],
        outer: Option<&Scope<'_>>,
    ) -> Result<Value> {
        let Expr::Function { name, args, distinct } = agg else {
            return Err(EngineError::Unsupported("not an aggregate".into()));
        };
        // count(*) counts rows including NULLs.
        if name == "count" && matches!(args.first(), Some(Expr::Wildcard)) {
            return Ok(Value::Int(group_rows.len() as i64));
        }
        let arg = args
            .first()
            .ok_or_else(|| EngineError::BadFunction(format!("{name}() requires an argument")))?;
        let mut vals: Vec<Value> = Vec::with_capacity(group_rows.len());
        for row in group_rows {
            let scope = Scope { schema, row, parent: outer, aggs: None };
            let v = self.eval(arg, &scope)?;
            if !v.is_null() {
                vals.push(v);
            }
        }
        if *distinct {
            let mut seen: HashSet<Value> = HashSet::new();
            vals.retain(|v| seen.insert(v.clone()));
        }
        match name.as_str() {
            "count" => Ok(Value::Int(vals.len() as i64)),
            "min" => Ok(vals.into_iter().min().unwrap_or(Value::Null)),
            "max" => Ok(vals.into_iter().max().unwrap_or(Value::Null)),
            "sum" | "avg" => {
                if vals.is_empty() {
                    return Ok(Value::Null);
                }
                let all_int = vals.iter().all(|v| matches!(v, Value::Int(_)));
                let total: f64 = vals
                    .iter()
                    .map(|v| {
                        v.as_f64().ok_or_else(|| {
                            EngineError::TypeMismatch(format!("{name}({})", v.data_type()))
                        })
                    })
                    .sum::<Result<f64>>()?;
                if name == "avg" {
                    Ok(Value::Float(total / vals.len() as f64))
                } else if all_int {
                    Ok(Value::Int(total as i64))
                } else {
                    Ok(Value::Float(total))
                }
            }
            other => Err(EngineError::BadFunction(format!("unknown aggregate {other}"))),
        }
    }

    /// Append one output row, and its ORDER BY keys when the query sorts. A
    /// bare column matching a projection alias (or an integer literal
    /// position) sorts by the output column; anything else evaluates in the
    /// row scope.
    fn push_output(
        &self,
        q: &Query,
        items: &[(Expr, Option<String>)],
        values: Vec<Value>,
        scope: &Scope<'_>,
        out: &mut Output,
    ) -> Result<()> {
        if q.order_by.is_empty() {
            out.push_row(values);
            return Ok(());
        }
        let mut keys = Vec::with_capacity(q.order_by.len());
        for o in &q.order_by {
            if let Expr::Column(ColumnRef { table: None, column }) = &o.expr {
                if let Some(idx) = items.iter().position(|(expr, alias)| {
                    alias.as_deref().is_some_and(|a| a.eq_ignore_ascii_case(column))
                        || matches!(expr, Expr::Column(c) if c.column.eq_ignore_ascii_case(column) && c.table.is_none())
                }) {
                    keys.push(values[idx].clone());
                    continue;
                }
            }
            if let Expr::Literal(Literal::Int(pos)) = &o.expr {
                let idx = *pos as usize;
                if idx >= 1 && idx <= values.len() {
                    keys.push(values[idx - 1].clone());
                    continue;
                }
            }
            keys.push(self.eval(&o.expr, scope)?);
        }
        out.push_row(values);
        out.keys.push(keys);
        Ok(())
    }

    // ---- FROM construction -------------------------------------------------

    fn build_from(&self, from: &[TableRef], outer: Option<&Scope<'_>>) -> Result<Relation> {
        if from.is_empty() {
            return Ok(Relation { schema: RelSchema::default(), rows: vec![Vec::new()] });
        }
        let mut acc = self.build_table_ref(&from[0], outer)?;
        for t in &from[1..] {
            let right = self.build_table_ref(t, outer)?;
            acc = self.cross_product(acc, right)?;
        }
        Ok(acc)
    }

    fn build_table_ref(&self, t: &TableRef, outer: Option<&Scope<'_>>) -> Result<Relation> {
        match t {
            TableRef::Named { name, alias } => {
                let table = self.named_table(name)?;
                let schema = qualified(&table.schema, alias.as_ref().unwrap_or(name));
                Ok(Relation { schema, rows: table.rows().collect() })
            }
            TableRef::Subquery { query, alias } => {
                let result = self.execute_query(query, outer)?;
                Ok(Relation {
                    schema: qualified(&result.schema, alias),
                    rows: result.rows().collect(),
                })
            }
            TableRef::Join { left, right, kind, on } => {
                let l = self.build_table_ref(left, outer)?;
                let r = self.build_table_ref(right, outer)?;
                self.join(l, r, *kind, on.as_ref(), outer)
            }
        }
    }

    fn named_table(&self, name: &str) -> Result<Arc<ColumnarTable>> {
        self.catalog.get(name).ok_or_else(|| EngineError::UnknownTable(name.to_string()))
    }

    fn join(
        &self,
        left: Relation,
        right: Relation,
        kind: JoinKind,
        on: Option<&Expr>,
        outer: Option<&Scope<'_>>,
    ) -> Result<Relation> {
        let mut fields = left.schema.fields.clone();
        fields.extend(right.schema.fields.iter().cloned());
        let schema = RelSchema { fields };

        if kind == JoinKind::Cross || on.is_none() {
            return self.cross_product(left, right);
        }
        let on = on.expect("checked above");

        // Hash-join fast path: find an equality conjunct between a
        // left-resolvable and a right-resolvable column.
        let conjuncts = pi2_sql::visit::conjuncts(on);
        let mut hash_key: Option<(usize, usize)> = None;
        let mut residual: Vec<&Expr> = Vec::new();
        for c in &conjuncts {
            if hash_key.is_none() {
                if let Expr::Binary { left: a, op: BinaryOp::Eq, right: b } = c {
                    if let (Expr::Column(ca), Expr::Column(cb)) = (a.as_ref(), b.as_ref()) {
                        let la = left.schema.resolve(ca).ok().flatten();
                        let rb = right.schema.resolve(cb).ok().flatten();
                        if let (Some(li), Some(ri)) = (la, rb) {
                            hash_key = Some((li, ri));
                            continue;
                        }
                        let lb = left.schema.resolve(cb).ok().flatten();
                        let ra = right.schema.resolve(ca).ok().flatten();
                        if let (Some(li), Some(ri)) = (lb, ra) {
                            hash_key = Some((li, ri));
                            continue;
                        }
                    }
                }
            }
            residual.push(c);
        }

        let mut out_rows = Vec::new();
        match hash_key {
            Some((li, ri)) => {
                let mut table: HashMap<&Value, Vec<usize>> = HashMap::new();
                for (idx, row) in right.rows.iter().enumerate() {
                    if !row[ri].is_null() {
                        table.entry(&row[ri]).or_default().push(idx);
                    }
                }
                for lrow in &left.rows {
                    self.check_limits(out_rows.len())?;
                    let mut matched = false;
                    if !lrow[li].is_null() {
                        if let Some(candidates) = table.get(&lrow[li]) {
                            for &ridx in candidates {
                                let rrow = &right.rows[ridx];
                                let mut combined = lrow.clone();
                                combined.extend(rrow.iter().cloned());
                                let ok = self.residual_ok(&residual, &schema, &combined, outer)?;
                                if ok {
                                    matched = true;
                                    out_rows.push(combined);
                                }
                            }
                        }
                    }
                    if !matched && kind == JoinKind::Left {
                        let mut combined = lrow.clone();
                        combined
                            .extend(std::iter::repeat_n(Value::Null, right.schema.fields.len()));
                        out_rows.push(combined);
                    }
                }
            }
            None => {
                for lrow in &left.rows {
                    self.check_limits(out_rows.len())?;
                    let mut matched = false;
                    for rrow in &right.rows {
                        let mut combined = lrow.clone();
                        combined.extend(rrow.iter().cloned());
                        let scope =
                            Scope { schema: &schema, row: &combined, parent: outer, aggs: None };
                        if self.eval_ref(on, &scope)?.is_truthy() {
                            matched = true;
                            out_rows.push(combined);
                        }
                    }
                    if !matched && kind == JoinKind::Left {
                        let mut combined = lrow.clone();
                        combined
                            .extend(std::iter::repeat_n(Value::Null, right.schema.fields.len()));
                        out_rows.push(combined);
                    }
                }
            }
        }
        Ok(Relation { schema, rows: out_rows })
    }

    fn residual_ok(
        &self,
        residual: &[&Expr],
        schema: &RelSchema,
        row: &[Value],
        outer: Option<&Scope<'_>>,
    ) -> Result<bool> {
        for pred in residual {
            let scope = Scope { schema, row, parent: outer, aggs: None };
            if !self.eval_ref(pred, &scope)?.is_truthy() {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

impl ExecCtx<'_> {
    fn cross_product(&self, left: Relation, right: Relation) -> Result<Relation> {
        // Check the product size up front: the whole point of the row
        // limit is to refuse a pathological cross join *before*
        // materializing it.
        let product = left.rows.len().saturating_mul(right.rows.len());
        self.check_limits(product)?;
        let mut fields = left.schema.fields;
        fields.extend(right.schema.fields);
        let mut rows = Vec::with_capacity(product);
        for l in &left.rows {
            self.check_limits(rows.len())?;
            for r in &right.rows {
                let mut combined = l.clone();
                combined.extend(r.iter().cloned());
                rows.push(combined);
            }
        }
        Ok(Relation { schema: RelSchema { fields }, rows })
    }
}

/// Projected output columns, built as typed columns, and, when the query
/// sorts, each row's ORDER BY keys (`keys[i]` belongs to row `i`; `keys`
/// stays empty otherwise).
pub(crate) struct Output {
    pub(crate) columns: Vec<ColumnBuilder>,
    pub(crate) len: usize,
    pub(crate) keys: Vec<Vec<Value>>,
}

impl Output {
    /// An empty output of `width` columns.
    pub(crate) fn new(width: usize) -> Self {
        Output { columns: vec![ColumnBuilder::default(); width], len: 0, keys: Vec::new() }
    }

    /// Append one row of `width` values.
    pub(crate) fn push_row(&mut self, values: impl IntoIterator<Item = Value>) {
        for (column, v) in self.columns.iter_mut().zip(values) {
            column.push(v);
        }
        self.len += 1;
    }

    /// The finished columns and the row count.
    pub(crate) fn finish(self) -> (Vec<Column>, usize) {
        (self.columns.into_iter().map(ColumnBuilder::finish).collect(), self.len)
    }
}

/// The shared query tail: DISTINCT, ORDER BY (over the precomputed sort
/// keys), OFFSET/LIMIT, and dynamic type refinement. Both the reference and the
/// columnar executors funnel through this, so the post-projection semantics
/// cannot drift between them. A query without any of them moves its output
/// columns into the result as they are; otherwise the surviving rows are
/// picked as an index list and each column is gathered once
/// ([`Column::gather`]).
pub(crate) fn finalize_result(q: &Query, mut out_fields: Vec<Field>, mut out: Output) -> ResultSet {
    let keys = std::mem::take(&mut out.keys);
    let (mut columns, mut len) = out.finish();
    debug_assert!(keys.len() == if q.order_by.is_empty() { 0 } else { len });
    let offset = q.offset.unwrap_or(0) as usize;
    let limit = q.limit.map_or(usize::MAX, |l| l as usize);
    if q.distinct || !q.order_by.is_empty() || offset > 0 || limit < len {
        let mut order: Vec<usize> = (0..len).collect();
        // DISTINCT (keeps each row's first occurrence).
        if q.distinct {
            let mut seen: HashSet<Vec<Value>> = HashSet::new();
            order.retain(|&i| seen.insert(columns.iter().map(|c| c.value(i)).collect()));
        }
        // ORDER BY: a stable sort of the surviving rows; DESC flips per key.
        let dirs: Vec<SortDir> = q.order_by.iter().map(|o| o.dir).collect();
        order.sort_by(|&a, &b| {
            for (i, dir) in dirs.iter().enumerate() {
                let ord = keys[a][i].cmp(&keys[b][i]);
                let ord = match dir {
                    SortDir::Asc => ord,
                    SortDir::Desc => ord.reverse(),
                };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        // OFFSET / LIMIT, after ORDER BY; then one gather per column.
        let order: Vec<usize> = order.into_iter().skip(offset).take(limit).collect();
        columns = columns.iter().map(|c| c.gather(&order)).collect();
        len = order.len();
    }

    // Dynamic type refinement for columns the static pass couldn't type.
    for (f, column) in out_fields.iter_mut().zip(&columns) {
        if f.data_type == DataType::Null {
            if let Some(t) = column.non_null_type() {
                f.data_type = t;
            }
        }
    }

    ResultSet::new(Schema::new(out_fields), columns, len)
}

/// `schema`'s fields as a relation schema, qualified by `qualifier` (the
/// table name or alias they are visible under).
pub(crate) fn qualified(schema: &Schema, qualifier: &str) -> RelSchema {
    let field = |f: &Field| RelField {
        qualifier: Some(qualifier.to_string()),
        name: f.name.clone(),
        data_type: f.data_type,
    };
    RelSchema { fields: schema.fields.iter().map(field).collect() }
}

/// Expand wildcards in a projection list into concrete expressions.
pub(crate) fn expand_projection(
    projection: &[SelectItem],
    schema: &RelSchema,
) -> Result<Vec<(Expr, Option<String>)>> {
    let mut items = Vec::new();
    for item in projection {
        match item {
            SelectItem::Wildcard => {
                for f in &schema.fields {
                    let col = match &f.qualifier {
                        Some(q) => ColumnRef::qualified(q.clone(), f.name.clone()),
                        None => ColumnRef::bare(f.name.clone()),
                    };
                    items.push((Expr::Column(col), Some(f.name.clone())));
                }
            }
            SelectItem::QualifiedWildcard(t) => {
                let mut any = false;
                for f in &schema.fields {
                    if f.qualifier.as_deref().is_some_and(|q| q.eq_ignore_ascii_case(t)) {
                        any = true;
                        items.push((
                            Expr::Column(ColumnRef::qualified(t.clone(), f.name.clone())),
                            Some(f.name.clone()),
                        ));
                    }
                }
                if !any {
                    return Err(EngineError::UnknownTable(format!("{t}.*")));
                }
            }
            SelectItem::Expr { expr, alias } => items.push((expr.clone(), alias.clone())),
        }
    }
    Ok(items)
}

/// The display name of an output column.
pub(crate) fn output_name(expr: &Expr, alias: &Option<String>) -> String {
    if let Some(a) = alias {
        return a.clone();
    }
    match expr {
        Expr::Column(c) => c.column.clone(),
        other => other.to_string(),
    }
}

/// Static type inference for an output expression against the input schema.
/// Returns [`DataType::Null`] when the type can only be known dynamically.
pub fn infer_type(expr: &Expr, schema: &RelSchema) -> DataType {
    match expr {
        Expr::Column(c) => match schema.resolve(c) {
            Ok(Some(i)) => schema.fields[i].data_type,
            _ => DataType::Null,
        },
        Expr::Literal(l) => Value::from_literal(l).data_type(),
        Expr::Wildcard => DataType::Null,
        Expr::Unary { op: UnaryOp::Not, .. } => DataType::Bool,
        Expr::Unary { op: UnaryOp::Neg, expr } => infer_type(expr, schema),
        Expr::Binary { left, op, right } => {
            if op.is_comparison() || matches!(op, BinaryOp::And | BinaryOp::Or) {
                DataType::Bool
            } else if *op == BinaryOp::Concat {
                DataType::Str
            } else {
                let lt = infer_type(left, schema);
                let rt = infer_type(right, schema);
                // Date ± Int stays Date; Date - Date is Int days.
                match (lt, op, rt) {
                    (DataType::Date, BinaryOp::Sub, DataType::Date) => DataType::Int,
                    (DataType::Date, _, _) | (_, _, DataType::Date) => DataType::Date,
                    _ => lt.unify(rt).unwrap_or(DataType::Null),
                }
            }
        }
        Expr::Function { name, args, .. } => match name.as_str() {
            "count" | "length" | "year" | "month" | "day" => DataType::Int,
            "avg" => DataType::Float,
            "sum" | "min" | "max" | "abs" | "round" | "floor" | "ceil" => {
                args.first().map_or(DataType::Null, |a| infer_type(a, schema))
            }
            "lower" | "upper" | "substr" => DataType::Str,
            "coalesce" => args
                .iter()
                .map(|a| infer_type(a, schema))
                .reduce(|a, b| a.unify(b).unwrap_or(DataType::Null))
                .unwrap_or(DataType::Null),
            _ => DataType::Null,
        },
        Expr::Case { branches, else_expr, .. } => {
            let mut t = DataType::Null;
            for (_, then) in branches {
                t = t.unify(infer_type(then, schema)).unwrap_or(DataType::Null);
            }
            if let Some(e) = else_expr {
                t = t.unify(infer_type(e, schema)).unwrap_or(DataType::Null);
            }
            t
        }
        Expr::InList { .. }
        | Expr::InSubquery { .. }
        | Expr::Exists { .. }
        | Expr::Between { .. }
        | Expr::IsNull { .. }
        | Expr::Like { .. } => DataType::Bool,
        Expr::ScalarSubquery(_) => DataType::Null,
    }
}

/// Invoke `f` on each aggregate call in `expr`, without descending into
/// subqueries (they aggregate in their own scope) or into aggregate
/// arguments (aggregates cannot nest).
pub(crate) fn collect_aggregates(expr: &Expr, f: &mut impl FnMut(&Expr)) {
    match expr {
        Expr::Function { name, .. } if is_aggregate_function(name) => f(expr),
        Expr::InSubquery { expr, .. } => collect_aggregates(expr, f),
        Expr::Exists { .. } | Expr::ScalarSubquery(_) => {}
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => collect_aggregates(expr, f),
        Expr::Binary { left, right, .. } => {
            collect_aggregates(left, f);
            collect_aggregates(right, f);
        }
        Expr::Function { args, .. } => {
            for a in args {
                collect_aggregates(a, f);
            }
        }
        Expr::Case { operand, branches, else_expr } => {
            if let Some(o) = operand {
                collect_aggregates(o, f);
            }
            for (w, t) in branches {
                collect_aggregates(w, f);
                collect_aggregates(t, f);
            }
            if let Some(e) = else_expr {
                collect_aggregates(e, f);
            }
        }
        Expr::InList { expr, list, .. } => {
            collect_aggregates(expr, f);
            for e in list {
                collect_aggregates(e, f);
            }
        }
        Expr::Between { expr, low, high, .. } => {
            collect_aggregates(expr, f);
            collect_aggregates(low, f);
            collect_aggregates(high, f);
        }
        Expr::Like { expr, pattern, .. } => {
            collect_aggregates(expr, f);
            collect_aggregates(pattern, f);
        }
        Expr::Column(_) | Expr::Literal(_) | Expr::Wildcard => {}
    }
}

// ---- free-variable analysis -------------------------------------------------

/// The columns a query references that are *not* resolvable from its own
/// FROM clause (at any nesting level): its correlation variables. Used to
/// memoize correlated-subquery executions; also used by the DiffTree layer
/// to detect correlated structure.
pub fn free_columns(q: &Query, catalog: &Catalog) -> Vec<ColumnRef> {
    let mut out = Vec::new();
    collect_free(q, catalog, &[], &mut out);
    // Dedup, preserving first-seen order.
    let mut seen = HashSet::new();
    out.retain(|c| seen.insert(c.clone()));
    out
}

/// The (qualifier, column-name) pairs visible inside one query level, plus
/// its projection output names (so alias references in ORDER BY / HAVING
/// are not mistaken for correlation).
struct VisibleSet {
    /// Visible relation qualifiers (lower-cased).
    qualifiers: HashSet<String>,
    /// Visible column names (lower-cased).
    columns: HashSet<String>,
}

impl VisibleSet {
    fn resolves(&self, c: &ColumnRef) -> bool {
        match &c.table {
            // If the qualifier names a visible relation, the reference is
            // local even if the column is misspelled (that's an execution
            // error, not correlation).
            Some(q) => self.qualifiers.contains(&q.to_lowercase()),
            None => self.columns.contains(&c.column.to_lowercase()),
        }
    }
}

fn visible_of(q: &Query, catalog: &Catalog) -> VisibleSet {
    let mut vis = VisibleSet { qualifiers: HashSet::new(), columns: HashSet::new() };
    fn add_table(t: &TableRef, catalog: &Catalog, vis: &mut VisibleSet) {
        match t {
            TableRef::Named { name, alias } => {
                let q = alias.as_deref().unwrap_or(name);
                vis.qualifiers.insert(q.to_lowercase());
                if let Some(table) = catalog.get(name) {
                    for f in &table.schema.fields {
                        vis.columns.insert(f.name.to_lowercase());
                    }
                }
            }
            TableRef::Subquery { query, alias } => {
                vis.qualifiers.insert(alias.to_lowercase());
                for item in &query.projection {
                    if let SelectItem::Expr { expr, alias } = item {
                        let name = output_name(expr, alias);
                        vis.columns.insert(name.to_lowercase());
                    }
                }
            }
            TableRef::Join { left, right, .. } => {
                add_table(left, catalog, vis);
                add_table(right, catalog, vis);
            }
        }
    }
    for t in &q.from {
        add_table(t, catalog, &mut vis);
    }
    // Projection aliases are referencable in ORDER BY / HAVING.
    for item in &q.projection {
        if let SelectItem::Expr { alias: Some(a), .. } = item {
            vis.columns.insert(a.to_lowercase());
        }
    }
    vis
}

fn collect_free(q: &Query, catalog: &Catalog, outer: &[&VisibleSet], out: &mut Vec<ColumnRef>) {
    let vis = visible_of(q, catalog);
    let mut envs: Vec<&VisibleSet> = outer.to_vec();
    envs.push(&vis);

    // Gather this level's expressions (including join ON predicates) and
    // its derived tables.
    fn scan_table<'a>(t: &'a TableRef, derived: &mut Vec<&'a Query>, ons: &mut Vec<&'a Expr>) {
        match t {
            TableRef::Named { .. } => {}
            TableRef::Subquery { query, .. } => derived.push(query),
            TableRef::Join { left, right, on, .. } => {
                scan_table(left, derived, ons);
                scan_table(right, derived, ons);
                if let Some(on) = on {
                    ons.push(on);
                }
            }
        }
    }
    let mut derived: Vec<&Query> = Vec::new();
    let mut exprs: Vec<&Expr> = Vec::new();
    for t in &q.from {
        scan_table(t, &mut derived, &mut exprs);
    }
    for item in &q.projection {
        if let SelectItem::Expr { expr, .. } = item {
            exprs.push(expr);
        }
    }
    if let Some(w) = &q.where_clause {
        exprs.push(w);
    }
    exprs.extend(q.group_by.iter());
    if let Some(h) = &q.having {
        exprs.push(h);
    }
    exprs.extend(q.order_by.iter().map(|o| &o.expr));

    {
        let envs_ref = &envs;
        let mut check = |e: &Expr| -> bool {
            match e {
                Expr::Column(c) => {
                    if !envs_ref.iter().any(|v| v.resolves(c)) {
                        out.push(c.clone());
                    }
                    true
                }
                // Recurse into subqueries with the extended environment;
                // `walk_expr` must not descend itself (return false), but
                // the left-hand side of IN still needs checking.
                Expr::InSubquery { expr, subquery, .. } => {
                    walk_expr(expr, &mut |e2| {
                        if let Expr::Column(c) = e2 {
                            if !envs_ref.iter().any(|v| v.resolves(c)) {
                                out.push(c.clone());
                            }
                        }
                        true
                    });
                    collect_free(subquery, catalog, envs_ref, out);
                    false
                }
                Expr::Exists { subquery, .. } => {
                    collect_free(subquery, catalog, envs_ref, out);
                    false
                }
                Expr::ScalarSubquery(sq) => {
                    collect_free(sq, catalog, envs_ref, out);
                    false
                }
                _ => true,
            }
        };
        for e in exprs {
            walk_expr(e, &mut check);
        }
    }

    // Derived tables cannot be correlated in this dialect, so they see only
    // the outer environments they could legally reference: none beyond their
    // own. Analyzing with the current environment stack is harmlessly
    // lenient (it can only shrink the memo key when a name shadows).
    for dq in derived {
        collect_free(dq, catalog, &envs, out);
    }
}
