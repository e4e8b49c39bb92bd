//! The columnar fast-path executor.
//!
//! Single-table queries — the shape every widget interaction produces — are
//! executed against the typed column vectors sealed at registration (see
//! [`crate::columnar`]) without decoding rows. Expressions are
//! compiled **once per query** into [`CExpr`] (column references become
//! vector indices, so the per-row cost drops to an array access instead of a
//! case-insensitive name resolution), WHERE runs as mask refinement with
//! typed loops for column-vs-constant comparisons, and aggregation hashes
//! group keys over the selected row set.
//!
//! The selection mask is a bit-packed [`BitMask`], and typed loops walk it
//! one zone-map block at a time. When every conjunct of the WHERE clause
//! is a typed loop, each block is decided across all of them before any
//! row is read: a block some conjunct's `[min, max]` rules out is cleared
//! 64 rows per word without touching column data, conjuncts the block
//! trivially satisfies (holding no NULLs) are skipped, and the rest visit
//! only the rows still selected. Every prune carries a `debug_assert` that
//! re-scans the block and proves the shortcut agrees with the row-by-row
//! answer, so the conformance fuzz loop (which replays its corpus under
//! `cargo test`, debug assertions on) exercises pruning soundness
//! continuously.
//! String comparisons run on dictionary codes: the dictionary is sorted, so
//! a constant's binary-searched rank turns every string predicate into a
//! `u32` comparison.
//!
//! The row-at-a-time interpreter in [`crate::exec`] remains the semantic
//! reference. This module keeps parity by construction: anything it is not
//! sure it can reproduce exactly — joins, subqueries, unresolvable names —
//! makes [`try_execute`] return `None` and the caller falls back to the
//! reference path. Shared helpers (`cmp_values`, `arithmetic`,
//! `finalize_result`, …) ensure the overlapping semantics cannot drift; the
//! conformance `columnar-parity` oracle checks the rest.

use crate::catalog::Catalog;
use crate::columnar::{
    block_count, block_range, BitMask, Column, ColumnBuilder, ColumnData, ColumnarTable, ZoneMap,
};
use crate::error::{EngineError, Result};
use crate::eval::{
    and3, apply_comparison, arithmetic, cmp_values, enforce_limits, like_match, or3,
    three_valued_cmp, to_bool3, RelSchema, LIMIT_CHECK_ROWS,
};
use crate::exec::{
    collect_aggregates, expand_projection, finalize_result, infer_type, output_name, qualified,
    Output,
};
use crate::functions::eval_scalar;
use crate::result::ResultSet;
use crate::schema::Field;
use crate::stats::ScanStats;
use crate::value::Value;
use pi2_sql::{
    is_aggregate_function, BinaryOp, ColumnRef, Expr, Literal, Query, TableRef, UnaryOp,
};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::convert::Infallible;
use std::ops::Range;
use std::sync::Arc;

/// Execute `q` on the columnar path, or `None` when the query's shape is
/// outside the fast path's supported fragment (the caller falls back to the
/// reference executor, which also owns producing any name-resolution error).
pub(crate) fn try_execute(catalog: &Catalog, q: &Query) -> Option<Result<ResultSet>> {
    let p = prepare(catalog, q)?;
    let ctx = p.ctx(catalog);
    Some(ctx.compute_mask().and_then(|mask| ctx.run_with_mask(q, &mask)))
}

/// Resolve and compile `q` against the catalog's columnar storage, or
/// `None` when the query leaves the fast path's fragment. The result can
/// be executed directly ([`try_execute`]) or driven block-by-block by the
/// incremental path (see [`crate::delta`]).
pub(crate) fn prepare(catalog: &Catalog, q: &Query) -> Option<Prepared> {
    // Only plain single-table FROM clauses; joins, derived tables, and
    // multi-table products stay on the reference path.
    let [TableRef::Named { name, alias }] = q.from.as_slice() else {
        return None;
    };
    let table = catalog.get(name)?;
    let schema = qualified(&table.schema, alias.as_ref().unwrap_or(name));

    let items = expand_projection(&q.projection, &schema).ok()?;
    let plan = Plan::compile(q, &schema, &items)?;
    Some(Prepared { table, schema, items, plan })
}

/// A compiled, executable columnar query: the sealed table, the resolved
/// schema, the expanded projection, and the compiled plan.
pub(crate) struct Prepared {
    pub(crate) table: Arc<ColumnarTable>,
    schema: RelSchema,
    items: Vec<(Expr, Option<String>)>,
    plan: Plan,
}

impl Prepared {
    /// An execution context borrowing this plan, with the catalog's limits
    /// and scan counters attached.
    pub(crate) fn ctx(&self, catalog: &Catalog) -> ColCtx<'_> {
        ColCtx {
            table: &self.table,
            schema: &self.schema,
            items: &self.items,
            plan: &self.plan,
            limits: catalog.limits(),
            started: std::time::Instant::now(),
            scan: catalog.scan_stats(),
        }
    }
}

/// A compiled expression: column references resolved to vector indices,
/// literals materialized, aggregate calls replaced by slots into the
/// per-group aggregate array.
#[derive(Debug)]
enum CExpr {
    Col(usize),
    Const(Value),
    Agg(usize),
    Unary {
        op: UnaryOp,
        expr: Box<CExpr>,
    },
    Binary {
        left: Box<CExpr>,
        op: BinaryOp,
        right: Box<CExpr>,
    },
    Func {
        name: String,
        args: Vec<CExpr>,
    },
    Case {
        operand: Option<Box<CExpr>>,
        branches: Vec<(CExpr, CExpr)>,
        else_expr: Option<Box<CExpr>>,
    },
    InList {
        expr: Box<CExpr>,
        list: Vec<CExpr>,
        negated: bool,
    },
    Between {
        expr: Box<CExpr>,
        low: Box<CExpr>,
        high: Box<CExpr>,
        negated: bool,
    },
    IsNull {
        expr: Box<CExpr>,
        negated: bool,
    },
    Like {
        expr: Box<CExpr>,
        pattern: Box<CExpr>,
        negated: bool,
    },
}

/// How one ORDER BY entry produces its sort key — resolved once per query
/// instead of per row (the reference re-runs the alias/position scan for
/// every output row).
#[derive(Debug)]
enum KeySpec {
    /// Sort by output column `i`.
    Output(usize),
    /// Sort by a compiled expression.
    Compiled(CExpr),
}

/// One compiled aggregate call.
#[derive(Debug)]
struct CAgg {
    name: String,
    distinct: bool,
    /// `None` for `count(*)`.
    arg: Option<CExpr>,
}

/// The fully compiled query plan.
struct Plan {
    where_clause: Option<CExpr>,
    /// Projection expressions (pre-agg for plain queries, post-agg when
    /// aggregating).
    items: Vec<CExpr>,
    order_keys: Vec<KeySpec>,
    /// Aggregating-query extras.
    group_by: Vec<CExpr>,
    aggs: Vec<CAgg>,
    having: Option<CExpr>,
}

/// Expression compiler; `agg_hashes` is the structural-hash index of the
/// collected aggregate calls when compiling post-aggregation expressions.
struct Compiler<'a> {
    schema: &'a RelSchema,
    agg_hashes: &'a [u64],
    allow_aggs: bool,
}

impl Compiler<'_> {
    /// Compile, or `None` when the expression leaves the supported fragment
    /// (subqueries, unresolvable/ambiguous names, nested aggregates).
    fn compile(&self, e: &Expr) -> Option<CExpr> {
        Some(match e {
            Expr::Column(c) => CExpr::Col(self.resolve(c)?),
            Expr::Literal(l) => CExpr::Const(Value::from_literal(l)),
            Expr::Wildcard => return None,
            Expr::Unary { op, expr } => {
                CExpr::Unary { op: *op, expr: Box::new(self.compile(expr)?) }
            }
            Expr::Binary { left, op, right } => CExpr::Binary {
                left: Box::new(self.compile(left)?),
                op: *op,
                right: Box::new(self.compile(right)?),
            },
            Expr::Function { name, args, .. } => {
                if is_aggregate_function(name) {
                    if !self.allow_aggs {
                        return None;
                    }
                    let h = e.structural_hash();
                    let slot = self.agg_hashes.iter().position(|&a| a == h)?;
                    CExpr::Agg(slot)
                } else {
                    let args: Option<Vec<CExpr>> = args.iter().map(|a| self.compile(a)).collect();
                    CExpr::Func { name: name.clone(), args: args? }
                }
            }
            Expr::Case { operand, branches, else_expr } => CExpr::Case {
                operand: match operand {
                    Some(o) => Some(Box::new(self.compile(o)?)),
                    None => None,
                },
                branches: branches
                    .iter()
                    .map(|(w, t)| Some((self.compile(w)?, self.compile(t)?)))
                    .collect::<Option<_>>()?,
                else_expr: match else_expr {
                    Some(e) => Some(Box::new(self.compile(e)?)),
                    None => None,
                },
            },
            Expr::InList { expr, list, negated } => CExpr::InList {
                expr: Box::new(self.compile(expr)?),
                list: list.iter().map(|i| self.compile(i)).collect::<Option<_>>()?,
                negated: *negated,
            },
            Expr::Between { expr, low, high, negated } => CExpr::Between {
                expr: Box::new(self.compile(expr)?),
                low: Box::new(self.compile(low)?),
                high: Box::new(self.compile(high)?),
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => {
                CExpr::IsNull { expr: Box::new(self.compile(expr)?), negated: *negated }
            }
            Expr::Like { expr, pattern, negated } => CExpr::Like {
                expr: Box::new(self.compile(expr)?),
                pattern: Box::new(self.compile(pattern)?),
                negated: *negated,
            },
            Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::ScalarSubquery(_) => return None,
        })
    }

    fn resolve(&self, c: &ColumnRef) -> Option<usize> {
        self.schema.resolve(c).ok().flatten()
    }
}

impl Plan {
    fn compile(q: &Query, schema: &RelSchema, items: &[(Expr, Option<String>)]) -> Option<Plan> {
        let aggregating = q.is_aggregating();
        let pre = Compiler { schema, agg_hashes: &[], allow_aggs: false };

        let where_clause = match &q.where_clause {
            Some(p) => Some(pre.compile(p)?),
            None => None,
        };

        // Collect aggregate calls in the same order as the reference
        // executor (projection, HAVING, ORDER BY; deduped by structural
        // hash) so slot indices match what post-agg compilation hands out.
        let mut agg_exprs: Vec<Expr> = Vec::new();
        let mut agg_hashes: Vec<u64> = Vec::new();
        if aggregating {
            let mut seen: HashSet<u64> = HashSet::new();
            let mut collect = |e: &Expr| {
                collect_aggregates(e, &mut |agg| {
                    if seen.insert(agg.structural_hash()) {
                        agg_exprs.push(agg.clone());
                        agg_hashes.push(agg.structural_hash());
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
        }

        let aggs = agg_exprs
            .iter()
            .map(|agg| {
                let Expr::Function { name, args, distinct } = agg else {
                    return None;
                };
                let arg = if name == "count" && matches!(args.first(), Some(Expr::Wildcard)) {
                    None
                } else {
                    Some(pre.compile(args.first()?)?)
                };
                Some(CAgg { name: name.clone(), distinct: *distinct, arg })
            })
            .collect::<Option<Vec<_>>>()?;

        let post = Compiler { schema, agg_hashes: &agg_hashes, allow_aggs: true };
        let out = if aggregating { &post } else { &pre };

        let compiled_items =
            items.iter().map(|(e, _)| out.compile(e)).collect::<Option<Vec<_>>>()?;
        let group_by = q.group_by.iter().map(|g| pre.compile(g)).collect::<Option<Vec<_>>>()?;
        let having = match &q.having {
            Some(h) if aggregating => Some(out.compile(h)?),
            // HAVING without aggregation: handled in run() with the
            // reference executor's exact error.
            Some(_) => None,
            None => None,
        };

        // ORDER BY: resolve alias / positional references to output columns
        // once; compile the rest.
        let mut order_keys = Vec::with_capacity(q.order_by.len());
        for o in &q.order_by {
            if let Expr::Column(ColumnRef { table: None, column }) = &o.expr {
                if let Some(idx) = items.iter().position(|(expr, alias)| {
                    alias.as_deref().is_some_and(|a| a.eq_ignore_ascii_case(column))
                        || matches!(expr, Expr::Column(c) if c.column.eq_ignore_ascii_case(column) && c.table.is_none())
                }) {
                    order_keys.push(KeySpec::Output(idx));
                    continue;
                }
            }
            if let Expr::Literal(Literal::Int(pos)) = &o.expr {
                let idx = *pos as usize;
                if idx >= 1 && idx <= items.len() {
                    order_keys.push(KeySpec::Output(idx - 1));
                    continue;
                }
            }
            order_keys.push(KeySpec::Compiled(out.compile(&o.expr)?));
        }

        Some(Plan { where_clause, items: compiled_items, order_keys, group_by, aggs, having })
    }
}

/// What a zone map says about one block under a predicate.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Decision {
    /// No row in the block can satisfy the predicate: clear it wholesale.
    AllFail,
    /// Every row satisfies it (and none is NULL): leave the mask untouched.
    AllPass,
    /// Inconclusive: scan the block row by row.
    Scan,
}

/// Decide a block for a `col <op> const` comparison. `keep` is the
/// row-level acceptance test on `row.cmp(konst)`; because the zone min/max
/// are stored as [`Value`]s whose total order agrees with every typed
/// comparison loop, the set of orderings a row can produce is exactly the
/// closed interval between `min.cmp(konst)` and `max.cmp(konst)`.
fn prune_decision(zone: &ZoneMap, konst: &Value, keep: impl Fn(Ordering) -> bool) -> Decision {
    // An all-NULL block compares NULL everywhere: nothing survives.
    let Some((zmin, zmax)) = &zone.min_max else { return Decision::AllFail };
    let lo = zmin.cmp(konst);
    let hi = zmax.cmp(konst);
    let mut any_keep = false;
    let mut any_drop = false;
    for ord in [Ordering::Less, Ordering::Equal, Ordering::Greater] {
        if ord >= lo && ord <= hi {
            if keep(ord) {
                any_keep = true;
            } else {
                any_drop = true;
            }
        }
    }
    if !any_keep {
        Decision::AllFail
    } else if !any_drop && zone.null_count == 0 {
        Decision::AllPass
    } else {
        Decision::Scan
    }
}

/// Decide a block for `col BETWEEN lo AND hi` by comparing the zone's min
/// and max with the bounds as the reference compares values
/// ([`cmp_values`]: INT against INT exactly, mixed numerics as f64). Every
/// typed range loop's row test is monotone in the row value under that
/// comparison, so the zone bounds bracket every row's outcome.
fn range_decision(zone: &ZoneMap, lo: &Value, hi: &Value) -> Decision {
    let Some((zmin, zmax)) = &zone.min_max else { return Decision::AllFail };
    let cmp = |v: &Value, bound: &Value| cmp_values(v, bound).ok().flatten();
    let (Some(min_lo), Some(min_hi), Some(max_lo), Some(max_hi)) =
        (cmp(zmin, lo), cmp(zmin, hi), cmp(zmax, lo), cmp(zmax, hi))
    else {
        return Decision::Scan;
    };
    if max_lo == Ordering::Less || min_hi == Ordering::Greater {
        Decision::AllFail
    } else if zone.null_count == 0 && min_lo != Ordering::Less && max_hi != Ordering::Greater {
        Decision::AllPass
    } else {
        Decision::Scan
    }
}

/// Decide a block for `col IS NULL` (`negated`: `IS NOT NULL`) from its
/// null count alone.
fn null_decision(zone: &ZoneMap, negated: bool) -> Decision {
    let is_null_holds = if zone.min_max.is_none() {
        true
    } else if zone.null_count == 0 {
        false
    } else {
        return Decision::Scan;
    };
    if is_null_holds != negated {
        Decision::AllPass
    } else {
        Decision::AllFail
    }
}

/// A numeric `BETWEEN` bound as an INT row value compares with it in the
/// reference: exactly against an INT, as f64 against a FLOAT.
#[derive(Clone, Copy)]
enum IntBound {
    Int(i64),
    Float(f64),
}

impl IntBound {
    fn of(v: &Value) -> Option<Self> {
        match v {
            Value::Int(k) => Some(IntBound::Int(*k)),
            Value::Float(k) => Some(IntBound::Float(*k)),
            _ => None,
        }
    }

    /// How row value `x` orders against the bound.
    fn order(self, x: i64) -> Ordering {
        match self {
            IntBound::Int(k) => x.cmp(&k),
            IntBound::Float(k) => (x as f64).total_cmp(&k),
        }
    }
}

/// A WHERE conjunct compiled to a typed loop that cannot fail: a zone
/// decision per block and a row test. The pre-pass calls it once per block
/// (a dynamic call), and the row loop inside [`TypedLoop::scan`] is
/// monomorphic.
trait TypedLoop {
    /// What block `b`'s zone map says about this conjunct.
    fn decide(&self, b: usize) -> Decision;
    /// Whether row `row` satisfies the conjunct (NULL fails).
    fn keep(&self, row: usize) -> bool;
    /// Clear the selected rows of `range` that fail; true when any row of
    /// `range` is still selected.
    fn scan(&self, mask: &mut BitMask, range: Range<usize>) -> bool;
}

struct Loop<D, K> {
    decide: D,
    keep: K,
}

impl<D: Fn(usize) -> Decision, K: Fn(usize) -> bool> TypedLoop for Loop<D, K> {
    fn decide(&self, b: usize) -> Decision {
        (self.decide)(b)
    }

    fn keep(&self, row: usize) -> bool {
        (self.keep)(row)
    }

    fn scan(&self, mask: &mut BitMask, range: Range<usize>) -> bool {
        let Ok(any) = mask.retain_in(range, |i| Ok::<_, Infallible>((self.keep)(i)));
        any
    }
}

/// A typed loop over a column with zone maps `zones`, whose blocks are
/// decided by `zone` (blocks without a zone map are scanned).
fn zoned<'a>(
    zones: &'a [ZoneMap],
    zone: impl Fn(&ZoneMap) -> Decision + 'a,
    keep: impl Fn(usize) -> bool + 'a,
) -> Box<dyn TypedLoop + 'a> {
    Box::new(Loop { decide: move |b: usize| zones.get(b).map_or(Decision::Scan, &zone), keep })
}

/// Execution context for one columnar query run.
pub(crate) struct ColCtx<'a> {
    table: &'a Arc<ColumnarTable>,
    schema: &'a RelSchema,
    items: &'a [(Expr, Option<String>)],
    plan: &'a Plan,
    limits: crate::catalog::ExecLimits,
    started: std::time::Instant,
    scan: Arc<ScanStats>,
}

impl ColCtx<'_> {
    /// Evaluate the WHERE clause over the whole table into a selection
    /// mask.
    pub(crate) fn compute_mask(&self) -> Result<BitMask> {
        let len = self.table.len;
        let mut mask = BitMask::new(len, true);
        if let Some(pred) = &self.plan.where_clause {
            let blocks: Vec<usize> = (0..block_count(len)).collect();
            self.refine(pred, &mut mask, &blocks)?;
        }
        Ok(mask)
    }

    /// Re-evaluate the WHERE clause over just the listed blocks. The
    /// caller must have reset those blocks' mask bits to all-true; other
    /// blocks are left untouched (the incremental path reuses their bits).
    pub(crate) fn refine_blocks(&self, mask: &mut BitMask, blocks: &[usize]) -> Result<()> {
        if let Some(pred) = &self.plan.where_clause {
            self.refine(pred, mask, blocks)?;
        }
        Ok(())
    }

    /// Project / aggregate / order / finalize over the rows selected by
    /// `mask`.
    pub(crate) fn run_with_mask(&self, q: &Query, mask: &BitMask) -> Result<ResultSet> {
        let out_fields: Vec<Field> = self
            .items
            .iter()
            .map(|(expr, alias)| {
                Field::new(output_name(expr, alias), infer_type(expr, self.schema))
            })
            .collect();

        let mut out = Output::new(self.plan.items.len());
        if q.is_aggregating() {
            self.run_grouped(mask.iter_ones(), &mut out)?;
        } else {
            if q.having.is_some() {
                return Err(EngineError::Unsupported("HAVING without aggregation".into()));
            }
            if let Some((columns, keys)) = self.bare_columns() {
                self.gather(mask, &columns, &keys, &mut out)?;
            } else {
                let mut values = Vec::with_capacity(self.plan.items.len());
                for row in mask.iter_ones() {
                    self.check_limits(out.len)?;
                    self.push_row(Some(row), &[], &mut values, &mut out)?;
                }
            }
        }

        Ok(finalize_result(q, out_fields, out))
    }

    /// When every projected item is a bare column and every ORDER BY key an
    /// output column: the items' table columns and the keys' output columns.
    fn bare_columns(&self) -> Option<(Vec<usize>, Vec<usize>)> {
        let items = self.plan.items.iter().map(|e| match e {
            CExpr::Col(i) => Some(*i),
            _ => None,
        });
        let keys = self.plan.order_keys.iter().map(|k| match k {
            KeySpec::Output(i) => Some(*i),
            KeySpec::Compiled(_) => None,
        });
        Some((items.collect::<Option<_>>()?, keys.collect::<Option<_>>()?))
    }

    /// Project the bare table `columns` (sorting by the output columns
    /// `keys`) over the selected rows: the row indices are collected once,
    /// then each output column gathers its rows from the table column, in
    /// the table column's typed form, one chunk of [`LIMIT_CHECK_ROWS`]
    /// rows at a time. Before each chunk the limits are checked as the row
    /// loop checks them before each of its rows: the timeout on the chunk's
    /// first row (the only one it checks the clock on), and the row cap on
    /// the first row past it, so both fail at the same row count with the
    /// same error.
    fn gather(
        &self,
        mask: &BitMask,
        columns: &[usize],
        keys: &[usize],
        out: &mut Output,
    ) -> Result<()> {
        // The row loop fails at the latest on row `max_rows + 1`.
        let cap = self.limits.max_rows.map_or(usize::MAX, |m| m.saturating_add(2));
        let rows: Vec<usize> = mask.iter_ones().take(cap).collect();
        out.columns =
            columns.iter().map(|&c| ColumnBuilder::like(self.col(c), rows.len())).collect();
        for (n, chunk) in rows.chunks(LIMIT_CHECK_ROWS).enumerate() {
            let start = n * LIMIT_CHECK_ROWS;
            self.check_limits(start)?;
            if let Some(m) = self.limits.max_rows.filter(|&m| start + chunk.len() - 1 > m) {
                self.check_limits(m + 1)?;
            }
            for (column, &c) in out.columns.iter_mut().zip(columns) {
                column.extend_rows(self.col(c), chunk);
            }
        }
        out.len = rows.len();
        if !keys.is_empty() {
            let key = |&r: &usize| keys.iter().map(|&k| self.col(columns[k]).value(r)).collect();
            out.keys = rows.iter().map(key).collect();
        }
        Ok(())
    }

    /// Hash-aggregate the selected rows, filter with HAVING, project.
    fn run_grouped(&self, selected: impl Iterator<Item = usize>, out: &mut Output) -> Result<()> {
        let plan = self.plan;
        // Group rows by GROUP BY keys (first-seen order, like the reference).
        let mut groups: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
        let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
        for row in selected {
            let key: Vec<Value> = plan
                .group_by
                .iter()
                .map(|g| self.eval(g, Some(row), &[]))
                .collect::<Result<_>>()?;
            match index.get(&key) {
                Some(&i) => groups[i].1.push(row),
                None => {
                    index.insert(key.clone(), groups.len());
                    groups.push((key, vec![row]));
                }
            }
        }
        // Ungrouped aggregation over zero rows still yields one group.
        if groups.is_empty() && plan.group_by.is_empty() {
            groups.push((Vec::new(), Vec::new()));
        }

        let mut values = Vec::with_capacity(plan.items.len());
        for (_, group_rows) in groups {
            self.check_limits(out.len)?;
            let mut agg_values = Vec::with_capacity(plan.aggs.len());
            for agg in &plan.aggs {
                agg_values.push(self.compute_aggregate(agg, &group_rows)?);
            }
            // The representative row for post-agg column references; `None`
            // stands in for the reference executor's synthetic all-NULL row.
            let rep = group_rows.first().copied();
            if let Some(h) = &plan.having {
                if !self.eval(h, rep, &agg_values)?.is_truthy() {
                    continue;
                }
            }
            self.push_row(rep, &agg_values, &mut values, out)?;
        }
        Ok(())
    }

    /// One aggregate over a group; mirrors the reference's
    /// `compute_aggregate` value-for-value (including float summation
    /// order).
    fn compute_aggregate(&self, agg: &CAgg, group_rows: &[usize]) -> Result<Value> {
        let Some(arg) = &agg.arg else {
            return Ok(Value::Int(group_rows.len() as i64)); // count(*)
        };
        let mut vals: Vec<Value> = Vec::with_capacity(group_rows.len());
        for &row in group_rows {
            let v = self.eval(arg, Some(row), &[])?;
            if !v.is_null() {
                vals.push(v);
            }
        }
        if agg.distinct {
            let mut seen: HashSet<Value> = HashSet::new();
            vals.retain(|v| seen.insert(v.clone()));
        }
        let name = agg.name.as_str();
        match name {
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

    /// Evaluate the projection for one output row (`row = None`: the
    /// synthetic all-NULL row of an empty aggregation group) into `values`
    /// (a buffer reused across rows), record its ORDER BY keys when the
    /// query sorts, and append it to `out`.
    fn push_row(
        &self,
        row: Option<usize>,
        aggs: &[Value],
        values: &mut Vec<Value>,
        out: &mut Output,
    ) -> Result<()> {
        values.clear();
        for e in &self.plan.items {
            values.push(self.eval(e, row, aggs)?);
        }
        if !self.plan.order_keys.is_empty() {
            let mut keys = Vec::with_capacity(self.plan.order_keys.len());
            for spec in &self.plan.order_keys {
                keys.push(match spec {
                    KeySpec::Output(i) => values[*i].clone(),
                    KeySpec::Compiled(e) => self.eval(e, row, aggs)?,
                });
            }
            out.keys.push(keys);
        }
        out.push_row(values.drain(..));
        Ok(())
    }

    fn check_limits(&self, rows: usize) -> Result<()> {
        enforce_limits(&self.limits, self.started, rows)
    }

    fn col(&self, i: usize) -> &Column {
        &self.table.columns[i]
    }

    fn zones(&self, i: usize) -> &[ZoneMap] {
        &self.table.zones[i]
    }

    /// Clear mask slots whose rows do not satisfy `e` (strictly-true
    /// semantics, as in the reference WHERE loop), visiting only the listed
    /// blocks.
    ///
    /// When every conjunct of `e` takes a typed loop that cannot fail, each
    /// block is decided across the whole conjunction before any row is read
    /// ([`Self::refine_typed`]). Otherwise the whole conjunction is evaluated
    /// row by row ([`Self::refine_generic`]), as the reference's `AND` does:
    /// it evaluates a conjunct on every row where the conjuncts before it
    /// are TRUE *or NULL*, whereas refinement drops both, so a conjunct that
    /// errors on a row an earlier conjunct left NULL would go unseen. The
    /// fallback is conservative: a typed loop is the only proof that a
    /// conjunct cannot fail, so conjuncts that cannot fail but have no
    /// typed loop (`IN`, `LIKE`, `NOT BETWEEN`, `OR`, a Bool column) also
    /// send their conjunction down the row-by-row path, without zone
    /// pruning.
    fn refine(&self, e: &CExpr, mask: &mut BitMask, blocks: &[usize]) -> Result<()> {
        let loops: Option<Vec<_>> = self.conjuncts(e).iter().map(|c| self.typed_loop(c)).collect();
        match loops {
            Some(loops) => {
                self.refine_typed(&loops, mask, blocks);
                Ok(())
            }
            None => self.refine_generic(e, mask, blocks),
        }
    }

    /// Flatten `e`'s AND chain into its conjuncts, in query order.
    ///
    /// `l AND r` splits only when both sides can evaluate to nothing but
    /// Bool/NULL (or fail identically on both paths): the reference feeds
    /// AND operands through `to_bool3`, which *errors* on other types,
    /// whereas mask refinement would silently treat them as false.
    fn conjuncts<'e>(&self, e: &'e CExpr) -> Vec<&'e CExpr> {
        fn walk<'e>(ctx: &ColCtx<'_>, e: &'e CExpr, out: &mut Vec<&'e CExpr>) {
            match e {
                CExpr::Binary { left, op: BinaryOp::And, right }
                    if ctx.is_predicate(left) && ctx.is_predicate(right) =>
                {
                    walk(ctx, left, out);
                    walk(ctx, right, out);
                }
                _ => out.push(e),
            }
        }
        let mut out = Vec::new();
        walk(self, e, &mut out);
        out
    }

    /// When every WHERE conjunct takes a typed loop (so none can fail), the
    /// `BETWEEN` conjuncts as `(column, lo, hi)` in query order, with the
    /// bounds as f64 (dates by day number); `None` otherwise. This is the
    /// delta path's classifier, so it accepts only queries [`Self::refine`]
    /// decides per block. It also declines an INT bound beyond ±2^53: the
    /// delta path tracks bound movement in f64, where two such bounds can
    /// round alike and hide a move the exact INT comparison sees.
    pub(crate) fn typed_ranges(&self) -> Option<Vec<(usize, f64, f64)>> {
        let exact = |v: &Value| match v {
            Value::Int(k) if k.unsigned_abs() > 1 << 53 => None,
            _ => v.as_f64(),
        };
        let mut ranges = Vec::new();
        for c in self.conjuncts(self.plan.where_clause.as_ref()?) {
            self.typed_loop(c)?;
            if let CExpr::Between { expr, low, high, .. } = c {
                if let (CExpr::Col(col), CExpr::Const(lo), CExpr::Const(hi)) =
                    (expr.as_ref(), low.as_ref(), high.as_ref())
                {
                    ranges.push((*col, exact(lo)?, exact(hi)?));
                }
            }
        }
        Some(ranges)
    }

    /// True when `e` can only evaluate to `Bool`/`NULL` — or fail with the
    /// same error on both executor paths — making it safe to use under mask
    /// refinement's "not strictly true means dropped" rule.
    fn is_predicate(&self, e: &CExpr) -> bool {
        match e {
            CExpr::Binary { op, left, right } => {
                op.is_comparison()
                    || (matches!(op, BinaryOp::And | BinaryOp::Or)
                        && self.is_predicate(left)
                        && self.is_predicate(right))
            }
            CExpr::Between { .. }
            | CExpr::InList { .. }
            | CExpr::IsNull { .. }
            | CExpr::Like { .. } => true,
            // NOT of a non-bool errors identically in both evaluators.
            CExpr::Unary { op: UnaryOp::Not, .. } => true,
            CExpr::Const(v) => matches!(v, Value::Bool(_) | Value::Null),
            CExpr::Col(i) => matches!(self.col(*i).data, ColumnData::Bool(_)),
            _ => false,
        }
    }

    /// Refine `mask` over `blocks` by a conjunction of typed loops. Every conjunct's zone
    /// decision for a block is read before any row: one `AllFail` clears
    /// the block (counted as pruned); `AllPass` conjuncts are skipped; the
    /// rest scan the block's selected rows in query order until it is
    /// empty. A block counts as scanned when any conjunct read its rows,
    /// as pruned otherwise. Debug builds re-check row by row every decision
    /// that spared a scan, so pruning provably never changes the selected
    /// row set.
    fn refine_typed(
        &self,
        loops: &[Box<dyn TypedLoop + '_>],
        mask: &mut BitMask,
        blocks: &[usize],
    ) {
        let len = self.table.len;
        let (mut scanned, mut pruned) = (0u64, 0u64);
        let mut decisions = Vec::with_capacity(loops.len());
        for &b in blocks {
            let range = block_range(b, len);
            decisions.clear();
            decisions.extend(loops.iter().map(|l| l.decide(b)));
            if let Some(i) = decisions.iter().position(|&d| d == Decision::AllFail) {
                debug_assert!(
                    range.clone().all(|row| !loops[i].keep(row)),
                    "zone pruning dropped a matching row in block {b}"
                );
                mask.fill_range(range, false);
                pruned += 1;
                continue;
            }
            let (mut any, mut walked) = (true, false);
            for (l, &d) in loops.iter().zip(&decisions) {
                if d == Decision::AllPass {
                    debug_assert!(
                        range.clone().all(|row| l.keep(row)),
                        "zone pruning kept a non-matching row in block {b}"
                    );
                } else if any {
                    any = l.scan(mask, range.clone());
                    walked = true;
                }
            }
            if walked {
                scanned += 1;
            } else {
                pruned += 1;
            }
        }
        self.scan.record(scanned, pruned);
    }

    /// Per-row fallback refinement (still cheap: no name resolution, no row
    /// materialization).
    fn refine_generic(&self, e: &CExpr, mask: &mut BitMask, blocks: &[usize]) -> Result<()> {
        let len = self.table.len;
        for &b in blocks {
            mask.retain_in(block_range(b, len), |i| Ok(self.eval(e, Some(i), &[])?.is_truthy()))?;
        }
        Ok(())
    }

    /// The typed loop for conjunct `e`, or `None` when `e` has none — then
    /// it takes the generic path, which also owns reproducing the
    /// reference's type-mismatch errors. This is the one table of shapes
    /// that cannot fail: a column compared with a constant of a matching
    /// type (or with NULL), a numeric or date `BETWEEN` with constant
    /// bounds, and `IS [NOT] NULL` on a column.
    fn typed_loop<'s>(&'s self, e: &'s CExpr) -> Option<Box<dyn TypedLoop + 's>> {
        match e {
            CExpr::Binary { left, op, right } if op.is_comparison() => {
                match (left.as_ref(), right.as_ref()) {
                    (CExpr::Col(c), CExpr::Const(k)) => self.cmp_loop(*c, *op, k, false),
                    (CExpr::Const(k), CExpr::Col(c)) => self.cmp_loop(*c, *op, k, true),
                    _ => None,
                }
            }
            CExpr::Between { expr, low, high, negated: false } => {
                match (expr.as_ref(), low.as_ref(), high.as_ref()) {
                    (CExpr::Col(c), CExpr::Const(lo), CExpr::Const(hi)) => {
                        self.range_loop(*c, lo, hi)
                    }
                    _ => None,
                }
            }
            CExpr::IsNull { expr, negated } => {
                let CExpr::Col(c) = expr.as_ref() else { return None };
                let (column, negated) = (self.col(*c), *negated);
                Some(zoned(
                    self.zones(*c),
                    move |z| null_decision(z, negated),
                    move |i| column.is_null(i) != negated,
                ))
            }
            _ => None,
        }
    }

    /// Typed loop for `col <op> const` (or `const <op> col` when `flipped`).
    fn cmp_loop<'s>(
        &'s self,
        col: usize,
        op: BinaryOp,
        konst: &'s Value,
        flipped: bool,
    ) -> Option<Box<dyn TypedLoop + 's>> {
        // NULL constant: every comparison is NULL, nothing survives.
        if konst.is_null() {
            return Some(Box::new(Loop { decide: |_| Decision::AllFail, keep: |_| false }));
        }
        let (column, zones) = (self.col(col), self.zones(col));
        let keep =
            move |ord: Ordering| apply_comparison(op, if flipped { ord.reverse() } else { ord });
        macro_rules! typed_loop {
            ($data:expr, $cmp:expr) => {{
                let (data, cmp) = ($data, $cmp);
                Some(zoned(
                    zones,
                    move |z| prune_decision(z, konst, keep),
                    move |i| !column.is_null(i) && keep(cmp(&data[i])),
                ))
            }};
        }
        match (&column.data, konst) {
            (ColumnData::Int(data), Value::Int(k)) => typed_loop!(data, |x: &i64| x.cmp(k)),
            (ColumnData::Int(data), Value::Float(k)) => {
                typed_loop!(data, |x: &i64| (*x as f64).total_cmp(k))
            }
            (ColumnData::Float(data), Value::Int(k)) => {
                let k = *k as f64;
                typed_loop!(data, move |x: &f64| x.total_cmp(&k))
            }
            (ColumnData::Float(data), Value::Float(k)) => {
                typed_loop!(data, |x: &f64| x.total_cmp(k))
            }
            (ColumnData::Str(d), Value::Str(k)) => {
                // Compare dictionary codes against the constant's rank: the
                // dictionary is sorted, so this is exactly the string
                // comparison.
                let rank = d.rank(k);
                typed_loop!(&d.codes, move |x: &u32| match rank {
                    Ok(r) => x.cmp(&r),
                    Err(p) => {
                        if *x < p {
                            Ordering::Less
                        } else {
                            Ordering::Greater
                        }
                    }
                })
            }
            (ColumnData::Date(data), Value::Date(k)) => typed_loop!(data, |x: &i32| x.cmp(&k.0)),
            (ColumnData::Bool(data), Value::Bool(k)) => typed_loop!(data, |x: &bool| x.cmp(k)),
            _ => None,
        }
    }

    /// Typed loop for `col BETWEEN lo AND hi`: numeric bounds over a
    /// numeric column, or date bounds over a date column, compared like the
    /// reference's `cmp_values`. An INT column compares each bound by its
    /// own type ([`IntBound`]); float and date columns compare as f64 with
    /// `total_cmp` (day numbers and the float cast of an INT bound are what
    /// the reference compares too).
    fn range_loop<'s>(
        &'s self,
        col: usize,
        lo: &'s Value,
        hi: &'s Value,
    ) -> Option<Box<dyn TypedLoop + 's>> {
        let (column, zones) = (self.col(col), self.zones(col));
        let numeric = lo.data_type().is_numeric() && hi.data_type().is_numeric();
        let dates = matches!((lo, hi), (Value::Date(_), Value::Date(_)));
        let zone = move |z: &ZoneMap| range_decision(z, lo, hi);
        if let ColumnData::Int(d) = &column.data {
            let (lo, hi) = (IntBound::of(lo)?, IntBound::of(hi)?);
            return Some(zoned(zones, zone, move |i| {
                !column.is_null(i)
                    && lo.order(d[i]) != Ordering::Less
                    && hi.order(d[i]) != Ordering::Greater
            }));
        }
        let (flo, fhi) = (lo.as_f64()?, hi.as_f64()?);
        let in_range = move |x: f64| {
            x.total_cmp(&flo) != Ordering::Less && x.total_cmp(&fhi) != Ordering::Greater
        };
        match &column.data {
            ColumnData::Float(d) if numeric => {
                Some(zoned(zones, zone, move |i| !column.is_null(i) && in_range(d[i])))
            }
            ColumnData::Date(d) if dates => {
                Some(zoned(zones, zone, move |i| !column.is_null(i) && in_range(f64::from(d[i]))))
            }
            _ => None,
        }
    }

    /// Evaluate a compiled expression for one row. `row = None` is the
    /// synthetic all-NULL representative of an empty aggregation group.
    fn eval(&self, e: &CExpr, row: Option<usize>, aggs: &[Value]) -> Result<Value> {
        match e {
            CExpr::Col(i) => Ok(match row {
                Some(r) => self.col(*i).value(r),
                None => Value::Null,
            }),
            CExpr::Const(v) => Ok(v.clone()),
            CExpr::Agg(i) => Ok(aggs[*i].clone()),
            CExpr::Unary { op, expr } => {
                let v = self.eval(expr, row, aggs)?;
                match op {
                    UnaryOp::Not => Ok(match v {
                        Value::Null => Value::Null,
                        Value::Bool(b) => Value::Bool(!b),
                        other => return Err(EngineError::TypeMismatch(format!("NOT {other}"))),
                    }),
                    UnaryOp::Neg => match v {
                        Value::Null => Ok(Value::Null),
                        Value::Int(v) => Ok(Value::Int(-v)),
                        Value::Float(v) => Ok(Value::Float(-v)),
                        other => Err(EngineError::TypeMismatch(format!("-{other}"))),
                    },
                }
            }
            CExpr::Binary { left, op, right } => match op {
                BinaryOp::And => {
                    let l = to_bool3(&self.eval(left, row, aggs)?)?;
                    if l == Some(false) {
                        return Ok(Value::Bool(false));
                    }
                    let r = to_bool3(&self.eval(right, row, aggs)?)?;
                    Ok(match and3(l, r) {
                        Some(b) => Value::Bool(b),
                        None => Value::Null,
                    })
                }
                BinaryOp::Or => {
                    let l = to_bool3(&self.eval(left, row, aggs)?)?;
                    if l == Some(true) {
                        return Ok(Value::Bool(true));
                    }
                    let r = to_bool3(&self.eval(right, row, aggs)?)?;
                    Ok(match or3(l, r) {
                        Some(b) => Value::Bool(b),
                        None => Value::Null,
                    })
                }
                _ => {
                    let l = self.eval(left, row, aggs)?;
                    let r = self.eval(right, row, aggs)?;
                    if op.is_comparison() {
                        return Ok(match cmp_values(&l, &r)? {
                            None => Value::Null,
                            Some(ord) => Value::Bool(apply_comparison(*op, ord)),
                        });
                    }
                    arithmetic(&l, *op, &r)
                }
            },
            CExpr::Func { name, args } => {
                let vals: Vec<Value> =
                    args.iter().map(|a| self.eval(a, row, aggs)).collect::<Result<_>>()?;
                eval_scalar(name, &vals)
            }
            CExpr::Case { operand, branches, else_expr } => {
                let op_val = match operand {
                    Some(o) => Some(self.eval(o, row, aggs)?),
                    None => None,
                };
                for (when, then) in branches {
                    let hit = match &op_val {
                        Some(ov) => {
                            let wv = self.eval(when, row, aggs)?;
                            cmp_values(ov, &wv)? == Some(Ordering::Equal)
                        }
                        None => self.eval(when, row, aggs)?.is_truthy(),
                    };
                    if hit {
                        return self.eval(then, row, aggs);
                    }
                }
                match else_expr {
                    Some(e) => self.eval(e, row, aggs),
                    None => Ok(Value::Null),
                }
            }
            CExpr::InList { expr, list, negated } => {
                let needle = self.eval(expr, row, aggs)?;
                if needle.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let v = self.eval(item, row, aggs)?;
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
            CExpr::Between { expr, low, high, negated } => {
                let v = self.eval(expr, row, aggs)?;
                let lo = self.eval(low, row, aggs)?;
                let hi = self.eval(high, row, aggs)?;
                let ge = three_valued_cmp(&v, &lo, |o| o != Ordering::Less)?;
                let le = three_valued_cmp(&v, &hi, |o| o != Ordering::Greater)?;
                Ok(match and3(ge, le) {
                    None => Value::Null,
                    Some(b) => Value::Bool(b != *negated),
                })
            }
            CExpr::IsNull { expr, negated } => {
                let v = self.eval(expr, row, aggs)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            CExpr::Like { expr, pattern, negated } => {
                let v = self.eval(expr, row, aggs)?;
                let p = self.eval(pattern, row, aggs)?;
                match (v, p) {
                    (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                    (Value::Str(s), Value::Str(p)) => {
                        Ok(Value::Bool(like_match(&p, &s) != *negated))
                    }
                    (a, b) => Err(EngineError::TypeMismatch(format!("{a} LIKE {b}"))),
                }
            }
        }
    }
}
