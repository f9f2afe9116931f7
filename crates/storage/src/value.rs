//! Scalar values and data types.

use std::cmp::Ordering;
use std::fmt;

/// Column data types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int64,
    /// 64-bit IEEE float.
    Float64,
    /// UTF-8 string.
    Utf8,
    /// Boolean.
    Bool,
}

impl DataType {
    /// Estimated encoded width in bytes of one value of this type, used for
    /// data-volume accounting in the cost models. Strings use an assumed
    /// average payload; exact string bytes are tracked where data exists.
    pub fn width_estimate(self) -> usize {
        match self {
            DataType::Int64 | DataType::Float64 => 8,
            DataType::Utf8 => 16,
            DataType::Bool => 1,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int64 => "INT",
            DataType::Float64 => "DOUBLE",
            DataType::Utf8 => "VARCHAR",
            DataType::Bool => "BOOLEAN",
        };
        f.write_str(s)
    }
}

/// A single scalar value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// The value's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Int(_) => DataType::Int64,
            Value::Float(_) => DataType::Float64,
            Value::Str(_) => DataType::Utf8,
            Value::Bool(_) => DataType::Bool,
        }
    }

    /// Total order within a type; `Int` and `Float` compare numerically with
    /// each other (SQL numeric coercion). Cross-type comparisons otherwise
    /// return `None`.
    pub fn partial_cmp_sql(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Numeric view (ints coerce to float), `None` for strings/bools.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Integer view, `None` unless the value is an `Int`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The smaller of two comparable values (self if incomparable).
    pub fn min_sql(self, other: Value) -> Value {
        match self.partial_cmp_sql(&other) {
            Some(Ordering::Greater) => other,
            _ => self,
        }
    }

    /// The larger of two comparable values (self if incomparable).
    pub fn max_sql(self, other: Value) -> Value {
        match self.partial_cmp_sql(&other) {
            Some(Ordering::Less) => other,
            _ => self,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "'{v}'"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_of_value() {
        assert_eq!(Value::Int(1).data_type(), DataType::Int64);
        assert_eq!(Value::Float(1.0).data_type(), DataType::Float64);
        assert_eq!(Value::from("x").data_type(), DataType::Utf8);
        assert_eq!(Value::Bool(true).data_type(), DataType::Bool);
    }

    #[test]
    fn sql_comparison_coerces_numerics() {
        assert_eq!(
            Value::Int(2).partial_cmp_sql(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Float(3.0).partial_cmp_sql(&Value::Int(3)),
            Some(Ordering::Equal)
        );
        assert_eq!(Value::Int(1).partial_cmp_sql(&Value::from("a")), None);
    }

    #[test]
    fn min_max_sql() {
        assert_eq!(Value::Int(3).min_sql(Value::Int(5)), Value::Int(3));
        assert_eq!(Value::Int(3).max_sql(Value::Int(5)), Value::Int(5));
        assert_eq!(Value::from("b").max_sql(Value::from("a")), Value::from("b"));
    }

    #[test]
    fn widths() {
        assert_eq!(DataType::Utf8.width_estimate(), 16);
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::from("abc").to_string(), "'abc'");
    }
}
