//! A miniature relational storage layer.
//!
//! The paper's Systems A, B and C are "based on relational technology"
//! (§7). Their mappings in `xmark-store` shred XML into what this crate
//! provides: typed values with a total order ([`Value`], [`OrdValue`]),
//! row-addressable tables ([`Table`]) and hash indexes ([`HashIndex`]).
//! The stores navigate those structures directly through the shared query
//! engine; each one's catalog cost (the paper's Table 2) is reported by
//! its own `XmlStore::estimate_step`.

pub mod index;
pub mod table;
pub mod value;

pub use index::HashIndex;
pub use table::{ColumnDef, RowId, Table};
pub use value::{OrdValue, Value};
