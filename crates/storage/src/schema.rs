//! Table schemas.

use std::fmt;
use std::sync::Arc;

use ci_types::{CiError, Result};

use crate::value::DataType;

/// One named, typed column.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    /// Column name (case-sensitive after normalization by the parser).
    pub name: String,
    /// Column type.
    pub data_type: DataType,
}

impl Field {
    /// Creates a field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Field {
        Field {
            name: name.into(),
            data_type,
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name, self.data_type)
    }
}

/// An ordered list of fields. Shared via `Arc` because every batch of a
/// table points at the same schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
}

/// Shared schema handle.
pub type SchemaRef = Arc<Schema>;

impl Schema {
    /// Builds a schema; duplicate column names are rejected.
    pub fn new(fields: Vec<Field>) -> Result<Schema> {
        for (i, f) in fields.iter().enumerate() {
            if fields[..i].iter().any(|g| g.name == f.name) {
                return Err(CiError::Catalog(format!(
                    "duplicate column name '{}'",
                    f.name
                )));
            }
        }
        Ok(Schema { fields })
    }

    /// Builds a schema from fields the caller knows to be distinctly named
    /// (a literal list, as in test fixtures and bench set-ups); code that
    /// can return an error uses [`Schema::new`].
    ///
    /// # Panics
    ///
    /// On a duplicate column name.
    pub fn of(fields: Vec<Field>) -> Schema {
        Schema::new(fields).expect("valid schema")
    }

    /// The fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| CiError::Catalog(format!("unknown column '{name}'")))
    }

    /// Field at an index.
    pub fn field(&self, i: usize) -> &Field {
        &self.fields[i]
    }

    /// A new schema that projects the given column indices, in order.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema {
            fields: indices.iter().map(|&i| self.fields[i].clone()).collect(),
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{field}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::of(vec![
            Field::new("id", DataType::Int64),
            Field::new("price", DataType::Float64),
            Field::new("name", DataType::Utf8),
        ])
    }

    #[test]
    fn lookup_by_name() {
        let s = sample();
        assert_eq!(s.index_of("price").unwrap(), 1);
        assert!(s.index_of("missing").is_err());
        assert_eq!(s.arity(), 3);
    }

    #[test]
    fn duplicate_names_rejected() {
        let r = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("a", DataType::Utf8),
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn projection_keeps_order() {
        let s = sample().project(&[2, 0]);
        assert_eq!(s.field(0).name, "name");
        assert_eq!(s.field(1).name, "id");
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(sample().to_string(), "(id INT, price DOUBLE, name VARCHAR)");
    }
}
