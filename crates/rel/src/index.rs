//! Hash indexes over table columns.
//!
//! The relational stores build these during bulkload (their cost is part of
//! the Table 1 load times) and navigate through them — parent, tag and
//! owner postings — instead of scanning their tables.

use std::collections::HashMap;

use crate::table::{RowId, Table};
use crate::value::{OrdValue, Value};

/// Equality index: value → row ids.
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    map: HashMap<OrdValue, Vec<RowId>>,
}

impl HashIndex {
    /// Build over one column of `table`.
    pub fn build(table: &Table, column: usize) -> Self {
        let mut map: HashMap<OrdValue, Vec<RowId>> = HashMap::with_capacity(table.len());
        for (rid, row) in table.scan() {
            if row[column].is_null() {
                continue; // NULLs are not indexed, matching SQL semantics.
            }
            map.entry(OrdValue(row[column].clone()))
                .or_default()
                .push(rid);
        }
        HashIndex { map }
    }

    /// Rows with exactly this key.
    pub fn get(&self, key: &Value) -> &[RowId] {
        self.map
            .get(&OrdValue(key.clone()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    /// Approximate resident bytes.
    pub fn heap_size_bytes(&self) -> usize {
        let mut total = self.map.capacity()
            * (std::mem::size_of::<OrdValue>() + std::mem::size_of::<Vec<RowId>>());
        for (k, v) in &self.map {
            total += v.capacity() * std::mem::size_of::<RowId>();
            if let Value::Str(s) = &k.0 {
                total += s.capacity();
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new("t", &["k", "v"]);
        t.insert(vec![Value::str("a"), Value::Int(1)]);
        t.insert(vec![Value::str("b"), Value::Int(2)]);
        t.insert(vec![Value::str("a"), Value::Int(3)]);
        t.insert(vec![Value::Null, Value::Int(4)]);
        t
    }

    #[test]
    fn hash_index_finds_duplicates() {
        let t = table();
        let idx = HashIndex::build(&t, 0);
        assert_eq!(idx.get(&Value::str("a")), &[0, 2]);
        assert_eq!(idx.get(&Value::str("z")), &[] as &[RowId]);
        assert_eq!(idx.distinct_keys(), 2);
    }

    #[test]
    fn nulls_are_not_indexed() {
        let t = table();
        let idx = HashIndex::build(&t, 0);
        assert_eq!(idx.get(&Value::Null), &[] as &[RowId]);
    }

    #[test]
    fn index_sizes_are_positive() {
        let t = table();
        assert!(HashIndex::build(&t, 0).heap_size_bytes() > 0);
    }
}
