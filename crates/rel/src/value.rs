//! Relational values.
//!
//! §2(2) of the paper: "Strings are the basic data type" of XML, and §7
//! notes that "all character data … were stored as strings and cast at
//! runtime to richer data types whenever necessary" (Queries 3, 5, 11, 12,
//! 18, 20). [`Value::as_f64`] is that runtime cast; Q5 measures its cost.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A value stored in a relational column.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit integer (node ids, positions).
    Int(i64),
    /// Double-precision float (cast results).
    Float(f64),
    /// String — the XML-native type.
    Str(String),
    /// SQL-style NULL (absent optional element/attribute; §2(4) of the
    /// paper: "NULL values can blow up the size of the database").
    Null,
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// Runtime cast to `f64` — the coercion XMark Q5 charges for.
    /// Returns `None` for NULL or non-numeric strings.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Str(s) => s.trim().parse::<f64>().ok(),
            Value::Null => None,
        }
    }

    /// Cast to `i64` (truncating floats).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) => Some(*f as i64),
            Value::Str(s) => s.trim().parse::<i64>().ok(),
            Value::Null => None,
        }
    }

    /// Borrow the string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Whether the value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => f.write_str(s),
            Value::Null => f.write_str("NULL"),
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
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Total-order wrapper for [`Value`], the key type of
/// [`crate::HashIndex`]. The order is NULL < numbers (Int and Float
/// compared numerically) < strings; float NaNs sort above all other
/// numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct OrdValue(pub Value);

impl Eq for OrdValue {}

impl PartialOrd for OrdValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdValue {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        fn class(v: &Value) -> u8 {
            match v {
                Null => 0,
                Int(_) | Float(_) => 1,
                Str(_) => 2,
            }
        }
        match (&self.0, &other.0) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (a @ (Int(_) | Float(_)), b @ (Int(_) | Float(_))) => {
                let fa = a.as_f64().unwrap_or(f64::NAN);
                let fb = b.as_f64().unwrap_or(f64::NAN);
                fa.total_cmp(&fb)
            }
            (a, b) => class(a).cmp(&class(b)),
        }
    }
}

impl Hash for OrdValue {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match &self.0 {
            Value::Null => 0u8.hash(state),
            // Hash numbers through their f64 bit pattern so Int(2) and
            // Float(2.0) hash identically (they compare equal above).
            Value::Int(i) => {
                1u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                1u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn casts_strings_at_runtime() {
        assert_eq!(Value::str("40.50").as_f64(), Some(40.5));
        assert_eq!(Value::str(" 7 ").as_i64(), Some(7));
        assert_eq!(Value::str("gold").as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
    }

    #[test]
    fn ord_value_total_order() {
        let mut vals = [
            OrdValue(Value::str("b")),
            OrdValue(Value::Int(5)),
            OrdValue(Value::Null),
            OrdValue(Value::Float(2.5)),
            OrdValue(Value::str("a")),
        ];
        vals.sort();
        let rendered: Vec<String> = vals.iter().map(|v| v.0.to_string()).collect();
        assert_eq!(rendered, vec!["NULL", "2.5", "5", "a", "b"]);
    }

    #[test]
    fn int_and_float_compare_numerically() {
        assert_eq!(
            OrdValue(Value::Int(2)).cmp(&OrdValue(Value::Float(2.0))),
            Ordering::Equal
        );
        assert!(OrdValue(Value::Int(2)) < OrdValue(Value::Float(2.5)));
    }

    #[test]
    fn equal_numbers_hash_identically() {
        use std::collections::hash_map::DefaultHasher;
        fn h(v: &OrdValue) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        assert_eq!(h(&OrdValue(Value::Int(2))), h(&OrdValue(Value::Float(2.0))));
    }

    #[test]
    fn display_matches_sql_conventions() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::str("x").to_string(), "x");
        assert_eq!(Value::Int(-3).to_string(), "-3");
    }
}
