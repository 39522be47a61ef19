//! Row-addressable tables.

use crate::value::Value;

/// A column definition (name only; the engine is dynamically typed, like
/// the string-centric mappings of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
}

impl ColumnDef {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>) -> Self {
        ColumnDef { name: name.into() }
    }
}

/// Index of a row within a table.
pub type RowId = usize;

/// A heap table: a schema plus rows.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table name (System B resolves its fragments by it).
    pub name: String,
    columns: Vec<ColumnDef>,
    rows: Vec<Vec<Value>>,
}

impl Table {
    /// Create an empty table with the given column names.
    pub fn new(name: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            name: name.into(),
            columns: columns.iter().map(|c| ColumnDef::new(*c)).collect(),
            rows: Vec::new(),
        }
    }

    /// Column definitions.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Position of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the row arity does not match the schema.
    pub fn insert(&mut self, row: Vec<Value>) -> RowId {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "arity mismatch inserting into {}",
            self.name
        );
        self.rows.push(row);
        self.rows.len() - 1
    }

    /// Borrow a row.
    pub fn row(&self, id: RowId) -> &[Value] {
        &self.rows[id]
    }

    /// A single cell.
    pub fn cell(&self, id: RowId, column: usize) -> &Value {
        &self.rows[id][column]
    }

    /// Iterate over `(RowId, row)` pairs — the physical table scan.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &[Value])> {
        self.rows.iter().enumerate().map(|(i, r)| (i, r.as_slice()))
    }

    /// Approximate resident bytes, for the Table 1 "database sizes" column.
    pub fn heap_size_bytes(&self) -> usize {
        let mut total = self.rows.capacity() * std::mem::size_of::<Vec<Value>>();
        for row in &self.rows {
            total += row.capacity() * std::mem::size_of::<Value>();
            for v in row {
                if let Value::Str(s) = v {
                    total += s.capacity();
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("person", &["id", "name", "income"]);
        t.insert(vec![
            Value::Int(0),
            Value::str("Alice"),
            Value::Float(45_000.0),
        ]);
        t.insert(vec![Value::Int(1), Value::str("Bob"), Value::Null]);
        t
    }

    #[test]
    fn inserts_and_scans() {
        let t = sample();
        assert_eq!(t.len(), 2);
        let names: Vec<String> = t.scan().map(|(_, r)| r[1].to_string()).collect();
        assert_eq!(names, vec!["Alice", "Bob"]);
    }

    #[test]
    fn column_lookup() {
        let t = sample();
        assert_eq!(t.column_index("income"), Some(2));
        assert_eq!(t.column_index("missing"), None);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn rejects_wrong_arity() {
        let mut t = sample();
        t.insert(vec![Value::Int(2)]);
    }

    #[test]
    fn heap_size_accounts_for_strings() {
        let t = sample();
        let base = t.heap_size_bytes();
        let mut bigger = t.clone();
        bigger.insert(vec![
            Value::Int(2),
            Value::str("x".repeat(5_000)),
            Value::Null,
        ]);
        assert!(bigger.heap_size_bytes() > base + 5_000);
    }
}
