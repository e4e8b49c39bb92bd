//! Tables under construction.

use crate::columnar::{ColumnBuilder, ColumnarTable};
use crate::error::{EngineError, Result};
use crate::schema::{Field, Schema};
use crate::value::{DataType, Value};

/// A named table under construction, with a fixed schema.
///
/// Rows are validated against the schema on insertion: each value must match
/// the column's declared type or be `NULL` (integer values are silently
/// widened into `FLOAT` columns). Each value then goes straight into its
/// column's typed builder; no row is kept. [`Table::seal`] (called by
/// [`crate::Catalog::register`]) turns the builders into the
/// [`ColumnarTable`] the engine queries.
#[derive(Debug, Clone)]
pub struct Table {
    /// The name.
    pub name: String,
    /// The output schema.
    pub schema: Schema,
    /// One typed builder per schema column.
    columns: Vec<ColumnBuilder>,
    /// Rows pushed so far.
    len: usize,
}

impl Table {
    /// Start building a table.
    pub fn builder(name: impl Into<String>) -> TableBuilder {
        TableBuilder { name: name.into(), fields: Vec::new() }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a row after validating it against the schema.
    pub fn push_row(&mut self, mut row: Vec<Value>) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(EngineError::SchemaViolation(format!(
                "table {}: row has {} values, schema has {} columns",
                self.name,
                row.len(),
                self.schema.len()
            )));
        }
        for (value, field) in row.iter_mut().zip(&self.schema.fields) {
            if value.is_null() {
                continue;
            }
            let vt = value.data_type();
            if vt == field.data_type {
                continue;
            }
            // Widen Int into Float columns.
            if field.data_type == DataType::Float && vt == DataType::Int {
                if let Value::Int(v) = value {
                    *value = Value::Float(*v as f64);
                }
                continue;
            }
            return Err(EngineError::SchemaViolation(format!(
                "table {}: column {} expects {}, got {} ({})",
                self.name, field.name, field.data_type, vt, value
            )));
        }
        for (column, value) in self.columns.iter_mut().zip(row) {
            column.push(value);
        }
        self.len += 1;
        Ok(())
    }

    /// Seal the column builders into the immutable [`ColumnarTable`]:
    /// sorted dictionaries, null masks and zone maps. The seal is timed
    /// (see [`crate::Catalog::columnar_build_nanos`]).
    pub fn seal(self) -> ColumnarTable {
        let started = std::time::Instant::now();
        let columns = self.columns.into_iter().map(ColumnBuilder::seal).collect();
        let nanos = started.elapsed().as_nanos() as u64;
        ColumnarTable::new(self.name, self.schema, self.len, columns, nanos)
    }
}

/// Builder for [`Table`].
pub struct TableBuilder {
    name: String,
    fields: Vec<Field>,
}

impl TableBuilder {
    /// Add a column.
    pub fn column(mut self, name: impl Into<String>, data_type: DataType) -> Self {
        self.fields.push(Field::new(name, data_type));
        self
    }

    /// Finish, producing an empty table.
    pub fn build(self) -> Table {
        let columns = self.fields.iter().map(|f| ColumnBuilder::declared(f.data_type)).collect();
        Table { name: self.name, schema: Schema::new(self.fields), columns, len: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Table {
        Table::builder("t")
            .column("a", DataType::Int)
            .column("b", DataType::Str)
            .column("c", DataType::Float)
            .build()
    }

    #[test]
    fn push_valid_row() {
        let mut table = t();
        table.push_row(vec![Value::Int(1), Value::str("x"), Value::Float(1.5)]).unwrap();
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn widens_int_to_float() {
        let mut table = t();
        table.push_row(vec![Value::Int(1), Value::str("x"), Value::Int(2)]).unwrap();
        let row = table.seal().row(0);
        assert_eq!(row[2], Value::Float(2.0));
        assert_eq!(row[2].data_type(), DataType::Float);
    }

    #[test]
    fn nulls_allowed_everywhere() {
        let mut table = t();
        table.push_row(vec![Value::Null, Value::Null, Value::Null]).unwrap();
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn rejects_wrong_arity() {
        let mut table = t();
        assert!(table.push_row(vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn rejects_wrong_type() {
        let mut table = t();
        assert!(table.push_row(vec![Value::str("oops"), Value::str("x"), Value::Null]).is_err());
        // A rejected row leaves no partial values behind.
        table.push_row(vec![Value::Int(1), Value::str("x"), Value::Null]).unwrap();
        assert!(table.push_row(vec![Value::Int(2), Value::str("y"), Value::str("z")]).is_err());
        let sealed = table.seal();
        assert_eq!(
            sealed.rows().collect::<Vec<_>>(),
            vec![vec![Value::Int(1), Value::str("x"), Value::Null]]
        );
    }
}
