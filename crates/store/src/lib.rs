//! XML storage backends for the XMark benchmark — one per architecture
//! family the paper evaluates (§7).
//!
//! | Backend | Paper system | Architecture |
//! |---------|--------------|--------------|
//! | [`EdgeStore`] | A | relational, monolithic edge table |
//! | [`FragmentedStore`] | B | relational, one relation per tag |
//! | [`InlinedStore`] | C | relational, DTD-inlined entity tables |
//! | [`SummaryStore`] | D | main-memory, structural summary |
//! | [`IntervalStore`] (indexed) | E | native containment intervals + tag indexes |
//! | [`IntervalStore`] (scan) | F | native containment intervals, scans |
//! | [`NaiveStore`] | G | embedded interpretive DOM walker |
//! | [`PagedStore`] | H *(extension)* | disk-resident paged intervals, buffer pool + WAL |
//!
//! All backends implement [`XmlStore`]; the query engine in `xmark-query`
//! is backend-agnostic, so a query's cost profile on a backend is decided
//! by the access paths that backend provides — the paper's central claim:
//! "The physical XML mapping has a far-reaching influence on the complexity
//! of query plans."
//!
//! On top of the per-architecture access paths sits the **persistent
//! index subsystem** ([`index::IndexManager`], one per store via
//! [`XmlStore::indexes`]): lazily-built, exactly-once, thread-safe
//! element-name postings (the planner's indexed counts), a shared
//! attribute-value index (one `lookup_id` code path for all eight
//! backends), typed child-value indexes (`tag/text()` tails), and
//! signature-keyed value slots holding the query layer's join build
//! sides across executions. [`PlannerCaps`] tells the planner which of
//! the two layers serves each step; index memory is included in
//! [`XmlStore::size_bytes`] and reported separately via
//! [`XmlStore::index_size_bytes`].
//!
//! Backend **H** is the one non-RAM-resident mapping: the [`paged`]
//! subsystem stores the interval encoding in a checksummed page file
//! served through a bounded pin/unpin buffer pool with an append-only
//! WAL underneath (see the [`paged`] module docs for the layering). Its
//! [`XmlStore::size_bytes`] reports *resident* memory (pool frames +
//! catalog + indexes) while [`XmlStore::disk_bytes`] reports the file —
//! the rows `table1_bulkload` prints separately.

pub mod axis;
pub mod edge;
pub mod fragmented;
pub mod index;
pub mod inlined;
pub mod interval;
pub mod loader;
pub mod naive;
pub mod paged;
pub mod shard;
pub mod summary;
pub mod sync;
pub mod traits;

pub use axis::{AttrIter, ChildIter, ChildrenNamed, DescendantsNamed};
pub use edge::EdgeStore;
pub use fragmented::FragmentedStore;
pub use index::{AttrIndex, ChildValues, ElementIndex, IndexManager, IndexStats};
pub use inlined::InlinedStore;
pub use interval::IntervalStore;
pub use naive::NaiveStore;
pub use paged::{PagedStore, PoolStats, DEFAULT_POOL_PAGES};
pub use shard::{ShardError, ShardedStore};
pub use summary::SummaryStore;
pub use traits::{
    descendants_by_cursors, serialize_by_cursors, string_value_by_cursors, Node, PlannerCaps,
    PositionSpec, StepEstimate, StoreSource, SystemId, XmlStore,
};

// Compile-time proof that every backend can be shared across threads:
// `XmlStore` carries `Send + Sync` supertraits, and each concrete store
// must satisfy them (everything is immutable after bulkload, and the
// lazily built indexes and buffer pools synchronize internally). A backend
// that regresses to `Cell`, `Rc`, or `RefCell` fails to compile right here.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EdgeStore>();
    assert_send_sync::<FragmentedStore>();
    assert_send_sync::<InlinedStore>();
    assert_send_sync::<SummaryStore>();
    assert_send_sync::<IntervalStore>();
    assert_send_sync::<NaiveStore>();
    assert_send_sync::<PagedStore>();
    assert_send_sync::<ShardedStore>();
    assert_send_sync::<Box<dyn XmlStore>>();
    assert_send_sync::<std::sync::Arc<dyn XmlStore>>();
};

/// Bulkload `xml` into the store modeling `system`.
///
/// # Errors
/// Propagates XML parse errors.
pub fn build_store(system: SystemId, xml: &str) -> Result<Box<dyn XmlStore>, xmark_xml::Error> {
    Ok(match system {
        SystemId::A => Box::new(EdgeStore::load(xml)?),
        SystemId::B => Box::new(FragmentedStore::load(xml)?),
        SystemId::C => Box::new(InlinedStore::load(xml)?),
        SystemId::D => Box::new(SummaryStore::load(xml)?),
        SystemId::E => Box::new(IntervalStore::load_indexed(xml)?),
        SystemId::F => Box::new(IntervalStore::load_scan(xml)?),
        SystemId::G => Box::new(NaiveStore::load(xml)?),
        SystemId::H => Box::new(PagedStore::load_temp(xml, DEFAULT_POOL_PAGES)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_every_system() {
        let xml = r#"<site><people><person id="person0"><name>A</name></person></people></site>"#;
        for system in SystemId::EXTENDED {
            let store = build_store(system, xml).unwrap();
            assert_eq!(store.system(), system);
            assert_eq!(store.tag_of(store.root()), Some("site"));
            assert!(store.size_bytes() > 0);
        }
    }
}
