//! CSV import/export for tables — how a downstream user loads their own
//! data into the engine (the demo's participants would bring datasets).
//!
//! The format is RFC-4180-style: comma separators, `"` quoting with `""`
//! escapes, a header row. Types are either declared by the caller or
//! inferred per column from the data (Int ⊂ Float ⊂ Str, with ISO dates
//! and true/false recognized). An unquoted empty cell is NULL; a quoted
//! empty cell (`""`) is the empty string.

use crate::columnar::ColumnarTable;
use crate::error::{EngineError, Result};
use crate::table::Table;
use crate::value::{DataType, Value};
use pi2_sql::Date;

/// Parse one CSV record, honoring quotes: each field's text, and whether
/// any of it was quoted. Returns `None` at end of input.
fn parse_record(input: &str, pos: &mut usize) -> Option<Vec<(String, bool)>> {
    if *pos >= input.len() {
        return None;
    }
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut quoted = false;
    let mut in_quotes = false;
    let mut chars = input[*pos..].chars().peekable();
    while let Some(c) = chars.next() {
        *pos += c.len_utf8();
        if in_quotes {
            if c == '"' {
                if chars.next_if_eq(&'"').is_some() {
                    field.push('"');
                    *pos += 1;
                } else {
                    in_quotes = false;
                }
            } else {
                field.push(c);
            }
        } else {
            match c {
                '"' => (in_quotes, quoted) = (true, true),
                ',' => fields.push((std::mem::take(&mut field), std::mem::take(&mut quoted))),
                '\r' => {}
                '\n' => break,
                _ => field.push(c),
            }
        }
    }
    fields.push((field, quoted));
    Some(fields)
}

/// Parse a cell into the most specific value for `ty`.
fn parse_cell(cell: &str, quoted: bool, ty: DataType) -> Result<Value> {
    if cell.is_empty() && !quoted {
        return Ok(Value::Null);
    }
    match ty {
        DataType::Int => cell
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| EngineError::SchemaViolation(format!("bad INT cell {cell:?}"))),
        DataType::Float => cell
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| EngineError::SchemaViolation(format!("bad FLOAT cell {cell:?}"))),
        DataType::Bool => match cell {
            "true" | "TRUE" | "True" => Ok(Value::Bool(true)),
            "false" | "FALSE" | "False" => Ok(Value::Bool(false)),
            _ => Err(EngineError::SchemaViolation(format!("bad BOOL cell {cell:?}"))),
        },
        DataType::Date => Date::parse(cell)
            .map(Value::Date)
            .ok_or_else(|| EngineError::SchemaViolation(format!("bad DATE cell {cell:?}"))),
        DataType::Str | DataType::Null => Ok(Value::str(cell)),
    }
}

/// Infer the narrowest type that fits every non-NULL cell of a column.
fn infer_column_type<'a>(cells: impl Iterator<Item = &'a (String, bool)>) -> DataType {
    let mut ty: Option<DataType> = None;
    for (cell, quoted) in cells {
        if cell.is_empty() && !quoted {
            continue;
        }
        let cell_ty = if cell.parse::<i64>().is_ok() {
            DataType::Int
        } else if cell.parse::<f64>().is_ok() {
            DataType::Float
        } else if Date::parse(cell).is_some() {
            DataType::Date
        } else if matches!(cell.as_str(), "true" | "false" | "TRUE" | "FALSE" | "True" | "False") {
            DataType::Bool
        } else {
            DataType::Str
        };
        ty = Some(match (ty, cell_ty) {
            (None, t) => t,
            (Some(a), b) if a == b => a,
            (Some(DataType::Int), DataType::Float) | (Some(DataType::Float), DataType::Int) => {
                DataType::Float
            }
            _ => DataType::Str,
        });
        if ty == Some(DataType::Str) {
            break;
        }
    }
    ty.unwrap_or(DataType::Str)
}

impl Table {
    /// Load a table from CSV text with a header row, inferring column types.
    pub fn from_csv(name: impl Into<String>, csv: &str) -> Result<Table> {
        Self::from_csv_impl(name, csv, None)
    }

    /// Load a table from CSV text with a header row, using the caller's
    /// declared column types (one per header column) instead of inference.
    /// Cells that don't parse as the declared type fail with their row and
    /// column position.
    pub fn from_csv_with_types(
        name: impl Into<String>,
        csv: &str,
        types: &[DataType],
    ) -> Result<Table> {
        Self::from_csv_impl(name, csv, Some(types))
    }

    fn from_csv_impl(
        name: impl Into<String>,
        csv: &str,
        declared: Option<&[DataType]>,
    ) -> Result<Table> {
        let mut pos = 0;
        let header: Vec<String> = parse_record(csv, &mut pos)
            .ok_or_else(|| EngineError::SchemaViolation("empty CSV".into()))?
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        if let Some(types) = declared {
            if types.len() != header.len() {
                return Err(EngineError::SchemaViolation(format!(
                    "{} declared types for {} header columns",
                    types.len(),
                    header.len()
                )));
            }
        }
        let mut records = Vec::new();
        // Data rows are 1-based and exclude the header, matching how a
        // user counts lines in their file (header = line 1, first data
        // row = row 1 on line 2).
        let mut data_row = 0usize;
        while let Some(rec) = parse_record(csv, &mut pos) {
            // A blank line is a row only of a one-column table, whose NULL
            // cells `to_csv` writes as empty lines; wider tables skip it.
            if header.len() > 1 && rec.len() == 1 && rec[0] == (String::new(), false) {
                continue;
            }
            data_row += 1;
            if rec.len() != header.len() {
                return Err(EngineError::SchemaViolation(format!(
                    "CSV row {data_row} (line {}) has {} fields, header has {}",
                    data_row + 1,
                    rec.len(),
                    header.len()
                )));
            }
            records.push(rec);
        }
        let types: Vec<DataType> = match declared {
            Some(types) => types.to_vec(),
            None => (0..header.len())
                .map(|i| infer_column_type(records.iter().map(|r| &r[i])))
                .collect(),
        };
        let mut builder = Table::builder(name);
        for (h, t) in header.iter().zip(&types) {
            builder = builder.column(h.clone(), *t);
        }
        let mut table = builder.build();
        for (r, rec) in records.iter().enumerate() {
            let row: Vec<Value> = rec
                .iter()
                .zip(&types)
                .enumerate()
                .map(|(c, ((cell, quoted), ty))| {
                    parse_cell(cell, *quoted, *ty).map_err(|e| match e {
                        EngineError::SchemaViolation(msg) => EngineError::SchemaViolation(format!(
                            "CSV row {}, column {} ({}): {msg}",
                            r + 1,
                            c + 1,
                            header[c]
                        )),
                        other => other,
                    })
                })
                .collect::<Result<_>>()?;
            table.push_row(row)?;
        }
        Ok(table)
    }
}

impl ColumnarTable {
    /// Serialize the table as CSV with a header row, reading the row
    /// cursor. Strings that are empty or hold a separator, quote, `\n` or
    /// `\r` are quoted, so [`Table::from_csv_with_types`] reads back
    /// exactly these values.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let quote = |s: &str| -> String {
            if s.is_empty() || s.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let header: Vec<String> = self.schema.fields.iter().map(|f| quote(&f.name)).collect();
        out.push_str(&header.join(","));
        out.push('\n');
        for row in self.rows() {
            let cells: Vec<String> = row
                .iter()
                .map(|v| match v {
                    Value::Null => String::new(),
                    Value::Str(s) => quote(s),
                    other => other.to_string(),
                })
                .collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;

    const SAMPLE: &str = "date,state,cases,rate,flag,note\n\
        2021-12-01,NY,100,1.5,true,plain\n\
        2021-12-02,FL,80,0.25,false,\"quoted, cell\"\n\
        2021-12-03,VT,,0.1,true,\"with \"\"quotes\"\"\"\n";

    #[test]
    fn imports_with_type_inference() {
        let t = Table::from_csv("covid", SAMPLE).unwrap();
        let types: Vec<DataType> = t.schema.fields.iter().map(|f| f.data_type).collect();
        assert_eq!(
            types,
            vec![
                DataType::Date,
                DataType::Str,
                DataType::Int,
                DataType::Float,
                DataType::Bool,
                DataType::Str
            ]
        );
        assert_eq!(t.len(), 3);
        let t = t.seal();
        assert_eq!(t.row(1)[5], Value::str("quoted, cell"));
        assert_eq!(t.row(2)[2], Value::Null);
        assert_eq!(t.row(2)[5], Value::str("with \"quotes\""));
    }

    #[test]
    fn imported_table_is_queryable() {
        let mut c = Catalog::new();
        c.register(Table::from_csv("covid", SAMPLE).unwrap());
        let r = c.execute_sql("SELECT state FROM covid WHERE cases > 90").unwrap();
        assert_eq!(r.rows, vec![vec![Value::str("NY")]]);
    }

    #[test]
    fn csv_roundtrips() {
        let t = Table::from_csv("covid", SAMPLE).unwrap().seal();
        let t2 = Table::from_csv("covid", &t.to_csv()).unwrap().seal();
        assert_eq!(t.schema, t2.schema);
        assert!(t.rows().eq(t2.rows()));
    }

    #[test]
    fn one_column_null_rows_round_trip_and_wider_tables_skip_blank_lines() {
        let csv = "v\n1\n\n2\n\n";
        let t = Table::from_csv_with_types("t", csv, &[DataType::Int]).unwrap().seal();
        let values: Vec<Value> = t.rows().map(|r| r[0].clone()).collect();
        assert_eq!(values, [Value::Int(1), Value::Null, Value::Int(2), Value::Null]);
        assert_eq!(t.to_csv(), csv);
        let wide = Table::from_csv("t", "a,b\n1,2\n\n").unwrap().seal();
        assert_eq!(wide.rows().count(), 1);
    }

    #[test]
    fn mixed_int_float_column_widens() {
        let t = Table::from_csv("t", "x\n1\n2.5\n").unwrap().seal();
        assert_eq!(t.schema.fields[0].data_type, DataType::Float);
        assert_eq!(t.row(0)[0], Value::Float(1.0));
    }

    #[test]
    fn ragged_record_is_error() {
        assert!(Table::from_csv("t", "a,b\n1\n").is_err());
        assert!(Table::from_csv("t", "").is_err());
    }

    #[test]
    fn ragged_record_error_reports_row_and_line() {
        // Rows 1 and 2 are fine; row 3 (file line 4) is ragged.
        let err = Table::from_csv("t", "a,b\n1,2\n3,4\n5\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("row 3"), "missing row number: {msg}");
        assert!(msg.contains("line 4"), "missing line number: {msg}");
        assert!(msg.contains("1 fields, header has 2"), "missing field counts: {msg}");
    }

    #[test]
    fn bad_cell_error_reports_row_and_column() {
        // Declared types make the malformed INT cell in row 2 an error
        // instead of widening the column to Str.
        let err =
            Table::from_csv_with_types("t", "a,b\nx,1\ny,oops\n", &[DataType::Str, DataType::Int])
                .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("row 2"), "missing row number: {msg}");
        assert!(msg.contains("column 2 (b)"), "missing column: {msg}");
        assert!(msg.contains("oops"), "missing cell text: {msg}");
    }

    #[test]
    fn declared_types_are_used_verbatim() {
        let t = Table::from_csv_with_types("t", "x\n1\n2\n", &[DataType::Float]).unwrap().seal();
        assert_eq!(t.schema.fields[0].data_type, DataType::Float);
        assert_eq!(t.row(0)[0], Value::Float(1.0));
        assert!(Table::from_csv_with_types("t", "x,y\n1,2\n", &[DataType::Int]).is_err());
    }

    #[test]
    fn synthetic_datasets_export_and_reimport() {
        let mut t = Table::builder("prices").column("v", DataType::Float).build();
        t.push_row(vec![Value::Float(1.25)]).unwrap();
        let t2 = Table::from_csv("prices", &t.seal().to_csv()).unwrap().seal();
        assert_eq!(t2.row(0)[0], Value::Float(1.25));
    }
}
