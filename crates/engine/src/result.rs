//! Query results.

use crate::columnar::{compute_stats, Column};
use crate::schema::Schema;
use crate::stats::ColumnStats;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// The materialized result of executing a query: an inferred output schema
/// plus one shared typed [`Column`] per output field — the storage's own
/// column type, so a 1M-row `FLOAT` column is 8 bytes a cell plus a null
/// mask. The columns are behind [`Arc`]s so the result cache, sessions and
/// retained scenes hold the same storage instead of copying it.
///
/// Equality is value equality: same schema, same row count, equal cells
/// (see [`Column`]'s equality).
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// The output schema.
    pub schema: Schema,
    columns: Vec<Arc<Column>>,
    len: usize,
}

impl ResultSet {
    /// A result from columns that each hold `len` rows (one column per
    /// schema field).
    pub(crate) fn new(schema: Schema, columns: Vec<Column>, len: usize) -> Self {
        assert!(
            columns.len() == schema.len() && columns.iter().all(|c| c.len() == len),
            "result columns must match the schema and hold one value per row"
        );
        ResultSet { schema, columns: columns.into_iter().map(Arc::new).collect(), len }
    }

    /// A result from row-major data (each row holds one value per schema
    /// field).
    pub fn from_rows(schema: Schema, rows: Vec<Vec<Value>>) -> Self {
        let mut out = crate::exec::Output::new(schema.len());
        rows.into_iter().for_each(|row| out.push_row(row));
        let (columns, len) = out.finish();
        ResultSet::new(schema, columns, len)
    }

    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The shared output columns, in schema order.
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// All values of output column `idx`, each materialized as a
    /// [`Value`].
    pub fn column(&self, idx: usize) -> impl ExactSizeIterator<Item = Value> + '_ {
        self.columns[idx].iter()
    }

    /// The rows, each materialized from the columns (for row consumers
    /// such as table renderers).
    pub fn rows(&self) -> impl ExactSizeIterator<Item = Vec<Value>> + '_ {
        (0..self.len).map(|i| self.columns.iter().map(|c| c.value(i)).collect())
    }

    /// Statistics for output column `idx`.
    pub fn column_stats(&self, idx: usize) -> ColumnStats {
        compute_stats(&self.schema.fields[idx], &self.columns[idx])
    }

    /// Render the result as an ASCII table (the "static table" rendering the
    /// paper contrasts PI2 against).
    pub fn to_ascii_table(&self) -> String {
        let headers: Vec<String> = self.schema.fields.iter().map(|f| f.name.clone()).collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let cells: Vec<Vec<String>> =
            self.rows().map(|r| r.iter().map(|v| v.to_string()).collect()).collect();
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (h, w) in headers.iter().zip(&widths) {
            out.push_str(&format!(" {h:<w$} |"));
        }
        out.push('\n');
        sep(&mut out);
        for row in &cells {
            out.push('|');
            for (c, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {c:<w$} |"));
            }
            out.push('\n');
        }
        sep(&mut out);
        out
    }
}

impl fmt::Display for ResultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_ascii_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::value::DataType;

    #[test]
    fn ascii_table_renders() {
        let rs = ResultSet::from_rows(
            Schema::new(vec![
                Field::new("state", DataType::Str),
                Field::new("cases", DataType::Int),
            ]),
            vec![vec![Value::str("NY"), Value::Int(1200)], vec![Value::str("FL"), Value::Int(87)]],
        );
        let t = rs.to_ascii_table();
        assert!(t.contains("| state | cases |"));
        assert!(t.contains("| NY    | 1200  |"));
        assert!(t.contains("| FL    | 87    |"));
    }
}
