//! Disk-resident paged storage — the engine under backend **H**.
//!
//! Every other backend in this crate keeps the whole document in RAM;
//! this subsystem stores it in a page file and serves queries through a
//! bounded [`BufferPool`], so document size is capped by disk, not
//! memory. The layering is the classic Sciore/BusTub split:
//!
//! ```text
//!  PagedStore (store.rs)   XmlStore impl: axis cursors over pinned
//!      │                   pages, bulkload, cold open
//!  BufferPool (buffer.rs)  pin/unpin frames, LRU replacement,
//!      │                   hit/miss/eviction counters,
//!      │                   flush-log-before-data write-back
//!  FileManager (file.rs)   block read/write of PAGE_SIZE pages
//!  LogManager (wal.rs)     append-only WAL: bulkload bracketing today,
//!                          the durability substrate for updates next
//!  Page (page.rs)          checksummed slotted page
//!  layout.rs               record codecs, header page, catalog blob
//! ```
//!
//! The on-disk format and the torn-load story live in [`layout`]'s
//! module docs. Scratch files (benches, tests, ephemeral stores) land
//! under `target/paged-tmp/` via [`scratch_dir`] so CI trees stay
//! clean.

mod buffer;
mod file;
mod layout;
mod page;
mod store;
mod wal;

pub use buffer::{BufferPool, PageGuard, PageRead, PageWrite, PoolStats};
pub use file::FileManager;
pub use layout::{Catalog, Header, NodeRec, NODES_PER_PAGE};
pub use page::{checksum, Page, PageId, PageKind, PAGE_SIZE};
pub use store::{
    wal_path_for, PagedChildren, PagedChildrenNamed, PagedScanNamed, PagedStore, DEFAULT_POOL_PAGES,
};
pub use wal::{LogManager, LogRecord, Lsn};

use std::path::PathBuf;

/// Directory for scratch page files: `$XMARK_PAGED_DIR` when set, else
/// the nearest `target/` directory above the current directory (so CI
/// and local runs keep temp files inside the build tree), else the
/// system temp dir. The directory is created on first use.
pub fn scratch_dir() -> PathBuf {
    let base = std::env::var_os("XMARK_PAGED_DIR")
        .map(PathBuf::from)
        .or_else(|| {
            let mut dir = std::env::current_dir().ok()?;
            loop {
                let target = dir.join("target");
                if target.is_dir() {
                    return Some(target.join("paged-tmp"));
                }
                if !dir.pop() {
                    return None;
                }
            }
        })
        .unwrap_or_else(std::env::temp_dir);
    std::fs::create_dir_all(&base).ok();
    base
}
