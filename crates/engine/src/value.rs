//! Runtime values and data types.

use pi2_sql::{Date, Literal, F64};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The engine's column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// Boolean literal/value.
    Bool,
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// String.
    Str,
    /// Calendar date.
    Date,
    /// Unknown/unresolved type (e.g. a column of all NULLs).
    Null,
}

impl DataType {
    /// True for Int and Float.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float)
    }

    /// The wider of two numeric types, or `None` if they aren't unifiable.
    pub fn unify(self, other: DataType) -> Option<DataType> {
        use DataType::*;
        match (self, other) {
            (a, b) if a == b => Some(a),
            (Null, b) => Some(b),
            (a, Null) => Some(a),
            (Int, Float) | (Float, Int) => Some(Float),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "TEXT",
            DataType::Date => "DATE",
            DataType::Null => "NULL",
        };
        f.write_str(s)
    }
}

/// A runtime value.
///
/// `Value` implements *total* equality, ordering, and hashing so it can be
/// used directly as a group key or sort key: `Null` sorts first, numeric
/// types compare numerically across `Int`/`Float`, and floats compare via
/// `total_cmp`. SQL's three-valued comparison semantics live in
/// [`crate::eval`], not here.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean literal/value.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// String.
    Str(String),
    /// Calendar date.
    Date(Date),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// Convenience constructor for date values; panics on bad input
    /// (intended for tests and dataset builders with known-good dates).
    pub fn date(s: &str) -> Self {
        Value::Date(Date::parse(s).expect("valid date"))
    }

    /// The value's runtime type.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Bool(_) => DataType::Bool,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
            Value::Date(_) => DataType::Date,
        }
    }

    /// True if the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, if it has one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Bool(b) => Some(*b as i64 as f64),
            Value::Date(d) => Some(d.0 as f64),
            _ => None,
        }
    }

    /// Truthiness for WHERE/HAVING: NULL and FALSE filter the row out.
    pub fn is_truthy(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// Convert a literal from the AST into a runtime value.
    pub fn from_literal(lit: &Literal) -> Self {
        match lit {
            Literal::Null => Value::Null,
            Literal::Bool(b) => Value::Bool(*b),
            Literal::Int(v) => Value::Int(*v),
            Literal::Float(F64(v)) => Value::Float(*v),
            Literal::Str(s) => Value::Str(s.clone()),
            Literal::Date(d) => Value::Date(*d),
        }
    }

    /// Convert back to an AST literal (used when binding interface state
    /// into query holes).
    pub fn to_literal(&self) -> Literal {
        match self {
            Value::Null => Literal::Null,
            Value::Bool(b) => Literal::Bool(*b),
            Value::Int(v) => Literal::Int(*v),
            Value::Float(v) => Literal::Float(F64(*v)),
            Value::Str(s) => Literal::Str(s.clone()),
            Value::Date(d) => Literal::Date(*d),
        }
    }

    /// Rank used to order values of different types.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
            Value::Date(_) => 4,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Int and Float that compare equal must hash equal.
            Value::Int(v) => {
                2u8.hash(state);
                (*v as f64).to_bits().hash(state);
            }
            Value::Float(v) => {
                2u8.hash(state);
                v.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Date(d) => {
                4u8.hash(state);
                d.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "{d}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn int_float_compare_numerically() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(2.5) < Value::Int(3));
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(hash_of(&Value::Int(7)), hash_of(&Value::Float(7.0)));
        assert_ne!(hash_of(&Value::Int(7)), hash_of(&Value::Int(8)));
    }

    #[test]
    fn null_sorts_first() {
        let mut v = [Value::Int(1), Value::Null, Value::str("a")];
        v.sort();
        assert_eq!(v[0], Value::Null);
    }

    #[test]
    fn literal_roundtrip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Int(-4),
            Value::Float(2.75),
            Value::str("hi"),
            Value::date("2021-12-25"),
        ] {
            assert_eq!(Value::from_literal(&v.to_literal()), v);
        }
    }

    #[test]
    fn truthiness() {
        assert!(Value::Bool(true).is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Int(1).is_truthy());
    }

    #[test]
    fn unify_types() {
        assert_eq!(DataType::Int.unify(DataType::Float), Some(DataType::Float));
        assert_eq!(DataType::Null.unify(DataType::Str), Some(DataType::Str));
        assert_eq!(DataType::Int.unify(DataType::Str), None);
    }
}
