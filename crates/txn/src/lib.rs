//! The transaction subsystem: structural updates over the read-only
//! XMark stores, with MVCC snapshot isolation and WAL-backed recovery.
//!
//! XMark models a live auction site, but every backend bulkloads an
//! immutable document. This crate adds the write path **without
//! touching the bulkloaded data**: a [`VersionedStore`] wraps any
//! backend and layers committed changes on top of it as an immutable
//! delta, so the eight storage architectures keep their read-optimized
//! layouts while the document evolves.
//!
//! # The snapshot/commit protocol
//!
//! ```text
//!             readers                       one writer at a time
//!    ┌──────────────────────┐      ┌────────────────────────────────┐
//!    │ snapshot() ──► Arc ──┼──┐   │ begin() ──► Transaction (ops)  │
//!    │   pin epoch N        │  │   │ commit():                      │
//!    └──────────────────────┘  │   │   1. re-check epoch (conflict) │
//!        never blocks,         │   │   2. carry indexes forward     │
//!        never sees N+1        │   │   3. apply ops to a *copy* of  │
//!        mid-request           │   │      the delta (O(changes))    │
//!                              │   │   4. WAL append + force (H)    │
//!                              └── │   5. publish epoch N+1         │
//!                                  └────────────────────────────────┘
//! ```
//!
//! * **Readers never block.** [`VersionedStore::snapshot`] clones an
//!   `Arc` to the currently published [`SnapshotStore`] — an immutable
//!   (base, delta) overlay implementing [`xmark_store::XmlStore`]. A
//!   request pins one snapshot and executes entirely against it; a
//!   concurrent commit publishes a *new* snapshot and never mutates a
//!   pinned one, so torn reads are impossible by construction.
//! * **Writers are serialized** by a commit mutex (single-writer MVCC).
//!   A transaction buffers its operations — [`Transaction::insert_subtree`],
//!   [`Transaction::delete_subtree`], [`Transaction::replace_text`],
//!   [`Transaction::replace_attr`] — and validates + applies them at
//!   commit. First-committer-wins: a commit whose start epoch is stale
//!   fails with [`TxnError::Conflict`] instead of publishing over a
//!   concurrent change.
//! * **Commits share the base's indexes and correct them through the
//!   delta.** The successor snapshot's [`xmark_store::IndexManager`] is
//!   *seeded* from the predecessor's and shares its build/hit counters.
//!   Two of its structures describe the immutable base and are never
//!   copied or patched: every snapshot shares the base's `@id` index,
//!   built once by [`VersionedStore::new`], and
//!   [`SnapshotStore`]'s `lookup_id` corrects it through the delta (see
//!   below); every snapshot after the first gets an empty element
//!   index. `cvals|` typed-value slots are carried unchanged, and
//!   every other value slot (Lookup indexes, path materializations) is
//!   dropped, to rebuild on its next use. A carried map is never
//!   patched: [`SnapshotStore`] vouches for a node's entry only while
//!   the node's subtree is clean, and value tails walk the children of
//!   any node it declines. A future fold of the delta into a new base
//!   must drop the carried `cvals|` slots, whose ids it renumbers.
//!   Compiled plans need no invalidation at all: every access path a
//!   plan can pick falls back at execution time on a snapshot that
//!   cannot serve it (an indexed count walks once the snapshot's empty
//!   element index cannot stab), so a plan cache keyed on query text
//!   stays valid across commits.
//! * **Durability on backend H.** When the base store exposes a WAL
//!   ([`xmark_store::XmlStore::txn_wal`]), commit appends logical
//!   redo/undo records (`TxnBegin … TxnCommit`) and forces the log
//!   *before* publishing. The protocol is no-steal (uncommitted state
//!   lives only in writer-private memory) and no-force for data pages
//!   (bulkloaded pages stay immutable), so [`recover_paged`] after a
//!   crash is exactly: truncate the torn log tail at the last record
//!   boundary, reopen the page file, and replay the transactions whose
//!   `TxnCommit` made it to disk — in log order, with deterministic
//!   id/rank allocation reproducing the pre-crash snapshot.
//!
//! # Document order under inserts
//!
//! Inserted nodes get fresh ids *above* the base id range, so raw id
//! comparison no longer encodes document order. Every node instead has
//! a `u64` **order rank** — base node `n` at `n << 32`, inserted nodes
//! at ranks subdivided into the gap between their predecessor and
//! successor (rebalanced within a base gap when a run of appends
//! exhausts it). An inserted fragment takes its ids and its ranks in
//! pre-order, the order the parser numbers it in, so within a fragment
//! id order and rank order agree. [`SnapshotStore`] surfaces the rank
//! through [`xmark_store::XmlStore::doc_order_key`]; `Q4`'s `<<`
//! compares ranks, and a path step merged over several context nodes
//! sorts its output by the same key, never by raw id.
//!
//! A commit reads its own in-progress state through a *working*
//! [`SnapshotStore`] — the same overlay readers use, holding the indexes
//! carried forward — and publishes that snapshot. The reload oracle in
//! the integration tests checks the result: an updated snapshot answers
//! exactly like a fresh bulkload of its own serialization.
//!
//! Only the epoch-0 snapshot's element index stabs (it is the base's):
//! stabbing needs ids in document order, and inserted ids are not. Every
//! later snapshot's element index is empty and reports
//! `ordered() == false`, so planner and executors use the streamed axis
//! cursors and no commit derives posting lists. The axis cursors
//! themselves still stab: under a base node,
//! [`SnapshotStore`]'s descendant scans and counts take the *base*
//! store's postings (exact forever — the base is immutable), drop
//! deleted ids, and merge in by rank the live inserted elements whose
//! nearest base ancestor lies in the node's base subtree. Only an
//! inserted context node walks its subtree.
//!
//! `@id` lookups follow the same rule. The shared base index names a
//! value's base holder; the snapshot keeps it only if that node is live
//! and its `id` still carries the value, and takes the lowest-ranked
//! live delta holder (inserted elements and base elements with an
//! attribute override) instead when that one ranks first. An index built
//! over a post-commit snapshot could not be corrected this way: once an
//! inserted holder that shadowed a base holder is deleted, nothing would
//! point at the base holder any more.

mod delta;
mod indexes;
mod recovery;
mod snapshot;
mod versioned;

pub use recovery::{recover_paged, RecoveryReport};
pub use snapshot::SnapshotStore;
pub use versioned::{CommitInfo, Transaction, TxnError, VersionedStore};

// Compile-time Send+Sync roster for this crate's XmlStore implementor
// (the store crate's R6 roster cannot name it without a dependency
// cycle, so the assertion lives here).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SnapshotStore>();
    assert_send_sync::<VersionedStore>();
};
