//! Backend **H** — the disk-resident paged interval store.
//!
//! `PagedStore` keeps the same logical encoding as Systems E/F (the
//! containment intervals of Zhang et al. \[26\]) but stores it in a page
//! file served through a bounded [`BufferPool`], so the resident
//! footprint is the pool's frame budget plus the catalog — not the
//! document. Bulkload runs *through* the pool (exercising eviction and
//! the WAL's log-before-data discipline), and a finished file re-opens
//! cold: [`PagedStore::open`] reads the header and catalog pages only,
//! no XML parse.
//!
//! Navigation pins once per *page run*: every multi-record read path (the
//! named cursors, `string_value_into`, `serialize_node_to`, the text and
//! attribute reads) goes through one private reader, `PageRun`, that
//! keeps the last node, text and attribute page pinned and re-pins only
//! when the page number changes. A reader lives inside one call — never
//! across a cursor's `next()` — and its pins are a cache: at most one per
//! extent (3 per thread), dropped and retried without when the pool runs
//! out of frames. Single-record callers (`tag_of`, `parent`,
//! `is_text_node`) pin per call. Node records are fixed-width
//! ([`NODES_PER_PAGE`] per page), so a node id maps to a `(page, slot)`
//! pair by arithmetic; text and attribute lookups binary-search the
//! catalog's sparse first-id-per-page indexes. `text` and
//! `attributes_iter` cannot lend references into evictable frames, so
//! they return owned copies of the values (`Cow::Owned`); the page file
//! is the only copy of the document this store keeps.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use xmark_xml::Document;

use crate::axis::{AttrIter, ChildIter, ChildrenNamed, DescendantsNamed};
use crate::index::IndexManager;
use crate::loader::{parent_array, subtree_ends, NONE};
use crate::traits::{Node, PlannerCaps, StepEstimate, SystemId, XmlStore};

use super::buffer::{BufferPool, PageGuard, PoolStats};
use super::file::FileManager;
use super::layout::{le_u16, le_u32, Catalog, Header, NodeRec, NODES_PER_PAGE, TEXT_CHUNK};
use super::page::{PageId, PageKind};
use super::wal::{LogManager, LogRecord};

/// Text-node marker in the tag-code column (same sentinel as E/F).
const TEXT_TAG: u16 = u16::MAX;

/// Default frame budget: 256 × 4 KiB = 1 MiB of resident page cache.
pub const DEFAULT_POOL_PAGES: usize = 256;

/// Disk-resident interval store — the paper's architecture H.
pub struct PagedStore {
    pool: BufferPool,
    wal: Arc<LogManager>,
    header: Header,
    catalog: Catalog,
    tag_lookup: HashMap<String, u16>,
    path: PathBuf,
    wal_path: PathBuf,
    /// Delete the page + log files on drop (scratch stores).
    ephemeral: bool,
    indexes: IndexManager,
}

/// Fills one contiguous same-kind extent through the pool, logging each
/// page format and tracking the sparse first-owner-per-page index.
struct ExtentWriter<'a> {
    pool: &'a BufferPool,
    wal: &'a LogManager,
    kind: PageKind,
    guard: Option<PageGuard<'a>>,
    pages: u32,
    firsts: Vec<u32>,
}

impl<'a> ExtentWriter<'a> {
    fn new(pool: &'a BufferPool, wal: &'a LogManager, kind: PageKind) -> Self {
        ExtentWriter {
            pool,
            wal,
            kind,
            guard: None,
            pages: 0,
            firsts: Vec::new(),
        }
    }

    fn push(&mut self, owner: u32, rec: &[u8]) -> io::Result<()> {
        loop {
            if let Some(g) = self.guard.as_mut() {
                if g.write().insert(rec).is_some() {
                    return Ok(());
                }
            }
            let (pid, mut g) = self.pool.pin_new()?;
            let lsn = self.wal.append(&LogRecord::FormatPage {
                page: pid,
                kind: self.kind,
            });
            g.write().set_lsn(lsn);
            self.firsts.push(owner);
            self.pages += 1;
            self.guard = Some(g);
        }
    }

    fn finish(self) -> (u32, Vec<u32>) {
        (self.pages, self.firsts)
    }
}

/// The `.wal` sibling of a page file — the log [`PagedStore::create_at`]
/// writes and crash recovery (`xmark_txn::recover_paged`) scans before
/// reopening.
pub fn wal_path_for(path: &Path) -> PathBuf {
    path.with_extension("wal")
}

fn corrupt(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl PagedStore {
    /// Bulkload `doc` into a new page file at `path` (WAL alongside,
    /// `.wal` extension), serving reads through a pool of `pool_pages`
    /// frames. The load itself runs through the pool, so a pool smaller
    /// than the file evicts during the load.
    ///
    /// # Errors
    /// I/O failure creating or writing the files.
    pub fn create_at(path: &Path, doc: &Document, pool_pages: usize) -> io::Result<PagedStore> {
        let n = doc.node_count();
        let parent = parent_array(doc);
        let end = subtree_ends(doc);

        // Intern tags and count extents (the planner's exact statistics).
        let mut tag_code = vec![TEXT_TAG; n];
        let mut tag_names: Vec<String> = Vec::new();
        let mut tag_lookup: HashMap<String, u16> = HashMap::new();
        let mut tag_counts: Vec<u32> = Vec::new();
        for id in 0..n as u32 {
            let node = xmark_xml::NodeId(id);
            if doc.text(node).is_some() {
                continue;
            }
            let tag = doc.tag_name(node);
            let code = match tag_lookup.get(tag) {
                Some(&c) => c,
                None => {
                    let c = tag_names.len() as u16;
                    tag_names.push(tag.to_string());
                    tag_lookup.insert(tag.to_string(), c);
                    tag_counts.push(0);
                    c
                }
            };
            tag_code[id as usize] = code;
            tag_counts[code as usize] += 1;
        }

        let wal_path = wal_path_for(path);
        let wal = Arc::new(LogManager::create(&wal_path)?);
        wal.append(&LogRecord::BeginBulkLoad { nodes: n as u32 });
        let pool = BufferPool::new(
            FileManager::create(path)?,
            Some(Arc::clone(&wal)),
            pool_pages,
        );

        // Page 0 is the header; its contents are written *last* so a
        // torn load leaves no valid header behind.
        {
            let (pid, mut g) = pool.pin_new()?;
            debug_assert_eq!(pid, 0, "header must be page 0");
            let lsn = wal.append(&LogRecord::FormatPage {
                page: 0,
                kind: PageKind::Header,
            });
            g.write().set_lsn(lsn);
        }

        // Node extent: fixed 12-byte interval records in id order.
        let node_start = pool.num_pages();
        let mut writer = ExtentWriter::new(&pool, &wal, PageKind::Node);
        for id in 0..n as u32 {
            let rec = NodeRec {
                parent: parent[id as usize],
                end: end[id as usize],
                tag_code: tag_code[id as usize],
                level: 0,
            };
            writer.push(id, &rec.encode())?;
        }
        let (node_pages, _) = writer.finish();

        // Text extent: [owner u32][chunk] records, long values split on
        // char boundaries across consecutive records.
        let text_start = pool.num_pages();
        let mut writer = ExtentWriter::new(&pool, &wal, PageKind::Text);
        for id in 0..n as u32 {
            let Some(text) = doc.text(xmark_xml::NodeId(id)) else {
                continue;
            };
            let mut rest = text;
            loop {
                let mut cut = TEXT_CHUNK.min(rest.len());
                while !rest.is_char_boundary(cut) {
                    cut -= 1;
                }
                let mut rec = Vec::with_capacity(4 + cut);
                rec.extend_from_slice(&id.to_le_bytes());
                rec.extend_from_slice(&rest.as_bytes()[..cut]);
                writer.push(id, &rec)?;
                rest = &rest[cut..];
                if rest.is_empty() {
                    break;
                }
            }
        }
        let (text_pages, text_first_id) = writer.finish();

        // Attribute extent: [owner u32][name_code u16][value] records,
        // consecutive per owner in document order.
        let attr_start = pool.num_pages();
        let mut attr_names: Vec<String> = Vec::new();
        let mut attr_lookup: HashMap<String, u16> = HashMap::new();
        let mut writer = ExtentWriter::new(&pool, &wal, PageKind::Attr);
        for id in 0..n as u32 {
            for (sym, value) in doc.attributes(xmark_xml::NodeId(id)) {
                let name = doc.interner().resolve(*sym);
                let code = match attr_lookup.get(name) {
                    Some(&c) => c,
                    None => {
                        let c = attr_names.len() as u16;
                        attr_names.push(name.to_string());
                        attr_lookup.insert(name.to_string(), c);
                        c
                    }
                };
                let mut rec = Vec::with_capacity(6 + value.len());
                rec.extend_from_slice(&id.to_le_bytes());
                rec.extend_from_slice(&code.to_le_bytes());
                rec.extend_from_slice(value.as_bytes());
                writer.push(id, &rec)?;
            }
        }
        let (attr_pages, attr_first_owner) = writer.finish();

        // Catalog blob, chunked over meta pages.
        let catalog = Catalog {
            tag_names,
            attr_names,
            tag_counts,
            text_first_id,
            attr_first_owner,
        };
        let blob = catalog.encode();
        let meta_start = pool.num_pages();
        let mut writer = ExtentWriter::new(&pool, &wal, PageKind::Meta);
        for chunk in blob.chunks(TEXT_CHUNK.max(1)) {
            writer.push(0, chunk)?;
        }
        let (meta_pages, _) = writer.finish();

        // Commit: data pages down (log first, per page LSN), then the
        // bulkload end marker, then the header — strictly last.
        pool.flush_all()?;
        let end_lsn = wal.append(&LogRecord::EndBulkLoad {
            pages: pool.num_pages(),
        });
        wal.flush(end_lsn)?;
        let header = Header {
            node_count: n as u32,
            root: doc.root_element().0,
            node_start,
            node_pages,
            text_start,
            text_pages,
            attr_start,
            attr_pages,
            meta_start,
            meta_pages,
            meta_len: blob.len() as u32,
        };
        {
            let mut g = pool.pin(0)?;
            header.write_to(&mut g.write());
        }
        pool.flush_all()?;

        Ok(PagedStore {
            pool,
            wal,
            header,
            catalog,
            tag_lookup,
            path: path.to_path_buf(),
            wal_path,
            ephemeral: false,
            indexes: IndexManager::new(),
        })
    }

    /// Open a previously written page file **cold**: validate the WAL's
    /// bulkload end marker, read the header and catalog pages, and serve
    /// everything else on demand — no XML parse.
    ///
    /// # Errors
    /// `InvalidData` for a torn load (WAL without `EndBulkLoad`), a bad
    /// header, or checksum mismatches on the pages read here; plain I/O
    /// errors otherwise.
    pub fn open(path: &Path, pool_pages: usize) -> io::Result<PagedStore> {
        let wal_path = wal_path_for(path);
        let records = LogManager::read_all(&wal_path)?;
        if !records
            .iter()
            .any(|r| matches!(r, LogRecord::EndBulkLoad { .. }))
        {
            return Err(corrupt(format!(
                "torn bulkload: {} has no EndBulkLoad record",
                wal_path.display()
            )));
        }
        let wal = Arc::new(LogManager::open(&wal_path)?);
        let pool = BufferPool::new(FileManager::open(path)?, Some(Arc::clone(&wal)), pool_pages);
        let header = {
            let g = pool.pin(0)?;
            let page = g.read();
            Header::read_from(&page)?
        };
        let mut blob = Vec::with_capacity(header.meta_len as usize);
        for pi in 0..header.meta_pages {
            let g = pool.pin(header.meta_start + pi)?;
            let page = g.read();
            for slot in 0..page.slot_count() {
                blob.extend_from_slice(page.record(slot));
            }
        }
        if blob.len() != header.meta_len as usize {
            return Err(corrupt(format!(
                "catalog is {} bytes, header says {}",
                blob.len(),
                header.meta_len
            )));
        }
        let catalog = Catalog::decode(&blob)?;
        let tag_lookup = catalog
            .tag_names
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), i as u16))
            .collect();
        Ok(PagedStore {
            pool,
            wal,
            header,
            catalog,
            tag_lookup,
            path: path.to_path_buf(),
            wal_path,
            ephemeral: false,
            indexes: IndexManager::new(),
        })
    }

    /// Bulkload `xml` into a scratch page file under
    /// [`crate::paged::scratch_dir`]; the files are deleted when the
    /// store drops. This is the [`crate::build_store`] path for H.
    ///
    /// # Errors
    /// Propagates XML parse errors. Scratch-file I/O failure is
    /// environmental and panics.
    pub fn load_temp(xml: &str, pool_pages: usize) -> Result<PagedStore, xmark_xml::Error> {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let doc = xmark_xml::parse_document(xml)?;
        let path = super::scratch_dir().join(format!(
            "h-{}-{}.pages",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut store = PagedStore::create_at(&path, &doc, pool_pages)
            .unwrap_or_else(|e| panic!("scratch page store at {}: {e}", path.display()));
        store.ephemeral = true;
        Ok(store)
    }

    /// The page file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Buffer-pool counters (hits, misses, evictions, page I/O).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Frame budget of the pool.
    pub fn pool_capacity(&self) -> usize {
        self.pool.capacity()
    }

    /// Pages in the store file.
    pub fn num_pages(&self) -> u32 {
        self.pool.num_pages()
    }

    /// Keep the page + WAL files on disk when this store drops (scratch
    /// stores delete them by default).
    pub fn persist(&mut self) {
        self.ephemeral = false;
    }

    /// Delete the page + WAL files when this store drops — the inverse of
    /// [`PagedStore::persist`], for stores created at explicit scratch
    /// paths (per-shard page files) that should not outlive their union.
    pub fn mark_ephemeral(&mut self) {
        self.ephemeral = true;
    }

    // ---- page reads ------------------------------------------------------

    /// One record, one pin — for the single-record callers.
    fn node_rec(&self, id: u32) -> NodeRec {
        PageRun::new(self).node_rec(id)
    }

    /// Locate the first sparse-index page that can hold records of
    /// `owner`, walking back over pages whose first record *is* `owner`
    /// (a value spanning page boundaries).
    fn sparse_start(firsts: &[u32], owner: u32) -> Option<usize> {
        let mut pi = match firsts.partition_point(|&f| f <= owner) {
            0 => return None,
            p => p - 1,
        };
        while pi > 0 && firsts[pi] == owner {
            pi -= 1;
        }
        Some(pi)
    }
}

impl fmt::Debug for PagedStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PagedStore")
            .field("path", &self.path)
            .field("nodes", &self.header.node_count)
            .field("pages", &self.pool.num_pages())
            .field("pool_capacity", &self.pool.capacity())
            .finish_non_exhaustive()
    }
}

impl Drop for PagedStore {
    fn drop(&mut self) {
        if self.ephemeral {
            let _ = std::fs::remove_file(&self.path);
            let _ = std::fs::remove_file(&self.wal_path);
        }
    }
}

// ---- the page-run reader --------------------------------------------------

fn write_attr(out: &mut dyn fmt::Write, name: &str, value: &str) -> fmt::Result {
    out.write_char(' ')?;
    out.write_str(name)?;
    out.write_str("=\"")?;
    xmark_xml::escape::escape_attr_to(value, out)?;
    out.write_char('"')
}

// Where each extent's cached pin sits in `PageRun::pins`.
const NODE: usize = 0;
const TEXT: usize = 1;
const ATTR: usize = 2;

/// Reads records through at most one cached pin per extent, re-pinning
/// only when a read leaves the page the previous one was on. The pins
/// are a cache, never needed for correctness.
struct PageRun<'a> {
    store: &'a PagedStore,
    pins: [Option<PageGuard<'a>>; 3],
}

impl<'a> PageRun<'a> {
    fn new(store: &'a PagedStore) -> Self {
        PageRun {
            store,
            pins: [None, None, None],
        }
    }

    /// Page `pid` of extent `ext`, pinned. When every frame is pinned
    /// (a pool smaller than the pins in flight) the cached pins go and
    /// the pin is tried once more.
    fn page(&mut self, ext: usize, pid: PageId) -> &PageGuard<'a> {
        if !matches!(&self.pins[ext], Some(g) if g.page_id() == pid) {
            self.pins[ext] = None;
            let pool = &self.store.pool;
            let guard = match pool.pin(pid) {
                Err(e) if e.kind() == io::ErrorKind::ResourceBusy => {
                    self.pins = [None, None, None];
                    pool.pin(pid)
                }
                other => other,
            }
            .unwrap_or_else(|e| panic!("paged read of page {pid}: {e}"));
            self.pins[ext] = Some(guard);
        }
        match &self.pins[ext] {
            Some(guard) => guard,
            None => unreachable!("pinned just above"),
        }
    }

    fn node_rec(&mut self, id: u32) -> NodeRec {
        let pid = self.store.header.node_start + id / NODES_PER_PAGE as u32;
        let slot = (id % NODES_PER_PAGE as u32) as u16;
        NodeRec::decode(self.page(NODE, pid).read().record(slot))
    }

    /// Call `visit` with the bytes after the owner id of every record
    /// of `owner` in extent `ext` (`TEXT` or `ATTR`, the two keyed by
    /// owner), in order, until it returns `Some`.
    fn find_record<T>(
        &mut self,
        ext: usize,
        owner: u32,
        mut visit: impl FnMut(&[u8]) -> Option<T>,
    ) -> Option<T> {
        let store = self.store;
        let (firsts, first_page, pages) = match ext {
            TEXT => (
                &store.catalog.text_first_id,
                store.header.text_start,
                store.header.text_pages,
            ),
            _ => (
                &store.catalog.attr_first_owner,
                store.header.attr_start,
                store.header.attr_pages,
            ),
        };
        let start = PagedStore::sparse_start(firsts, owner)?;
        for pi in start as u32..pages {
            let page = self.page(ext, first_page + pi).read();
            for slot in 0..page.slot_count() {
                let rec = page.record(slot);
                match le_u32(rec, 0) {
                    o if o < owner => continue,
                    o if o > owner => return None,
                    _ => {}
                }
                if let Some(found) = visit(&rec[4..]) {
                    return Some(found);
                }
            }
        }
        None
    }

    /// Append the text content of text node `id` (concatenating its
    /// chunk records) to `out`.
    fn text_into(&mut self, id: u32, out: &mut String) {
        self.find_record(TEXT, id, |chunk| {
            // Chunks are split on char boundaries at write time, and
            // the page checksum was verified at pin time — a lossy
            // decode never actually lossifies, it just keeps the
            // infallible read path panic-free.
            out.push_str(&String::from_utf8_lossy(chunk));
            None::<()>
        });
    }

    /// Call `visit(name_code, value)` for the attributes of node `id`
    /// in document order until it returns `Some`.
    fn find_attr<T>(
        &mut self,
        id: u32,
        mut visit: impl FnMut(u16, Cow<'_, str>) -> Option<T>,
    ) -> Option<T> {
        self.find_record(ATTR, id, |rec| {
            visit(le_u16(rec, 0), String::from_utf8_lossy(&rec[2..]))
        })
    }

    /// All attributes of node `id`, names borrowed from the catalog.
    fn attrs(&mut self, id: u32) -> Vec<(&'a str, String)> {
        let names = &self.store.catalog.attr_names;
        let mut out = Vec::new();
        self.find_attr(id, |code, value| {
            out.push((names[code as usize].as_str(), value.into_owned()));
            None::<()>
        });
        out
    }

    /// Serialize the subtree of node `id`; returns the last id in it.
    fn serialize(&mut self, id: u32, out: &mut dyn fmt::Write) -> Result<u32, fmt::Error> {
        let rec = self.node_rec(id);
        if rec.tag_code == TEXT_TAG {
            let mut s = String::new();
            self.text_into(id, &mut s);
            xmark_xml::escape::escape_text_to(&s, out)?;
            return Ok(rec.end);
        }
        let catalog = &self.store.catalog;
        let tag = &catalog.tag_names[rec.tag_code as usize];
        out.write_char('<')?;
        out.write_str(tag)?;
        let failed = self.find_attr(id, |code, value| {
            write_attr(out, &catalog.attr_names[code as usize], &value).err()
        });
        if let Some(e) = failed {
            return Err(e);
        }
        if rec.end == id {
            out.write_str("/>")?;
            return Ok(rec.end);
        }
        out.write_char('>')?;
        let mut child = id + 1;
        while child <= rec.end {
            child = self.serialize(child, out)? + 1;
        }
        out.write_str("</")?;
        out.write_str(tag)?;
        out.write_char('>')?;
        Ok(rec.end)
    }
}

// ---- streaming cursors over pinned pages --------------------------------

/// Child cursor: interval hop (`cur = end(cur) + 1`) where each `end`
/// lookup is a page read through the pool.
pub struct PagedChildren<'a> {
    store: &'a PagedStore,
    cur: u32,
    stop: u32,
}

impl Iterator for PagedChildren<'_> {
    type Item = Node;

    fn next(&mut self) -> Option<Node> {
        if self.cur > self.stop {
            return None;
        }
        let n = Node(self.cur);
        self.cur = self.store.node_rec(self.cur).end + 1;
        Some(n)
    }
}

/// [`PagedChildren`] plus a tag-code test.
pub struct PagedChildrenNamed<'a> {
    store: &'a PagedStore,
    cur: u32,
    stop: u32,
    code: u16,
}

impl Iterator for PagedChildrenNamed<'_> {
    type Item = Node;

    fn next(&mut self) -> Option<Node> {
        let mut run = PageRun::new(self.store);
        while self.cur <= self.stop {
            let id = self.cur;
            let rec = run.node_rec(id);
            self.cur = rec.end + 1;
            if rec.tag_code == self.code {
                return Some(Node(id));
            }
        }
        None
    }
}

/// Descendant scan: every id in the interval, tag-code tested — the
/// sequential-page access pattern the LRU pool likes.
pub struct PagedScanNamed<'a> {
    store: &'a PagedStore,
    cur: u32,
    stop: u32,
    code: u16,
}

impl Iterator for PagedScanNamed<'_> {
    type Item = Node;

    fn next(&mut self) -> Option<Node> {
        let mut run = PageRun::new(self.store);
        while self.cur <= self.stop {
            let id = self.cur;
            self.cur += 1;
            if run.node_rec(id).tag_code == self.code {
                return Some(Node(id));
            }
        }
        None
    }
}

impl XmlStore for PagedStore {
    fn system(&self) -> SystemId {
        SystemId::H
    }

    fn root(&self) -> Node {
        Node(self.header.root)
    }

    fn node_count(&self) -> usize {
        self.header.node_count as usize
    }

    fn size_bytes(&self) -> usize {
        // Resident only: pool frames, catalog, tag lookup and the shared
        // indexes. The page file itself is disk_bytes().
        let tag_lookup: usize = self.tag_lookup.keys().map(|k| k.capacity() + 2 + 48).sum();
        self.pool.resident_bytes()
            + self.catalog.resident_bytes()
            + tag_lookup
            + self.indexes.size_bytes()
    }

    fn disk_bytes(&self) -> usize {
        self.pool.disk_bytes() + self.wal.size_bytes()
    }

    fn paged_stats(&self) -> Option<PoolStats> {
        Some(self.pool.stats())
    }

    fn txn_wal(&self) -> Option<&LogManager> {
        Some(&self.wal)
    }

    fn indexes(&self) -> &IndexManager {
        &self.indexes
    }

    fn tag_of(&self, n: Node) -> Option<&str> {
        match self.node_rec(n.0).tag_code {
            TEXT_TAG => None,
            c => Some(&self.catalog.tag_names[c as usize]),
        }
    }

    fn is_text_node(&self, n: Node) -> bool {
        self.node_rec(n.0).tag_code == TEXT_TAG
    }

    fn parent(&self, n: Node) -> Option<Node> {
        match self.node_rec(n.0).parent {
            NONE => None,
            p => Some(Node(p)),
        }
    }

    fn text(&self, n: Node) -> Option<Cow<'_, str>> {
        let mut run = PageRun::new(self);
        if run.node_rec(n.0).tag_code != TEXT_TAG {
            return None;
        }
        let mut s = String::new();
        run.text_into(n.0, &mut s);
        Some(Cow::Owned(s))
    }

    fn attribute(&self, n: Node, name: &str) -> Option<String> {
        let names = &self.catalog.attr_names;
        let code = names.iter().position(|a| a == name)? as u16;
        PageRun::new(self).find_attr(n.0, |c, value| (c == code).then(|| value.into_owned()))
    }

    fn attributes_iter(&self, n: Node) -> AttrIter<'_> {
        AttrIter::Owned(PageRun::new(self).attrs(n.0).into_iter())
    }

    fn children_iter(&self, n: Node) -> ChildIter<'_> {
        ChildIter::Paged(PagedChildren {
            store: self,
            cur: n.0 + 1,
            stop: self.node_rec(n.0).end,
        })
    }

    fn children_named_iter<'a>(&'a self, n: Node, tag: &'a str) -> ChildrenNamed<'a> {
        let Some(&code) = self.tag_lookup.get(tag) else {
            return ChildrenNamed::Empty;
        };
        ChildrenNamed::Paged(PagedChildrenNamed {
            store: self,
            cur: n.0 + 1,
            stop: self.node_rec(n.0).end,
            code,
        })
    }

    fn descendants_named_iter<'a>(&'a self, n: Node, tag: &'a str) -> DescendantsNamed<'a> {
        let Some(&code) = self.tag_lookup.get(tag) else {
            return DescendantsNamed::Empty;
        };
        DescendantsNamed::PagedScan(PagedScanNamed {
            store: self,
            cur: n.0 + 1,
            stop: self.node_rec(n.0).end,
            code,
        })
    }

    fn string_value_into(&self, n: Node, out: &mut String) {
        let mut run = PageRun::new(self);
        let rec = run.node_rec(n.0);
        if rec.tag_code == TEXT_TAG {
            run.text_into(n.0, out);
            return;
        }
        // Subtree text in document order == ascending id over the
        // interval; a sequential page scan instead of recursion.
        for id in n.0 + 1..=rec.end {
            if run.node_rec(id).tag_code == TEXT_TAG {
                run.text_into(id, out);
            }
        }
    }

    fn serialize_node_to(&self, n: Node, out: &mut dyn fmt::Write) -> fmt::Result {
        // One reader for the whole recursion.
        PageRun::new(self).serialize(n.0, out).map(|_| ())
    }

    fn planner_caps(&self) -> PlannerCaps {
        PlannerCaps {
            id_index: true,
            // Descendant steps should stab the shared posting lists
            // instead of scanning the interval page by page.
            element_index: true,
            ..PlannerCaps::default()
        }
    }

    fn estimate_step(&self, tag: &str) -> StepEstimate {
        // One read of the resident catalog, whose per-tag extent counts
        // are exact.
        StepEstimate {
            rows: self
                .tag_lookup
                .get(tag)
                .map_or(0, |&c| u64::from(self.catalog.tag_counts[c as usize])),
            metadata_accesses: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::IntervalStore;

    const SAMPLE: &str = r#"<site><regions><europe><item id="item0" featured="yes"><name>cup</name></item><item id="item1"><name>gold coin</name></item></europe></regions><people><person id="person0"><name>Alice &amp; Bob</name></person></people></site>"#;

    fn temp(xml: &str, pool: usize) -> PagedStore {
        PagedStore::load_temp(xml, pool).unwrap()
    }

    #[test]
    fn navigation_matches_the_interval_store() {
        let h = temp(SAMPLE, 8);
        let e = IntervalStore::load_indexed(SAMPLE).unwrap();
        assert_eq!(h.node_count(), e.node_count());
        assert_eq!(h.root(), e.root());
        for id in 0..h.node_count() as u32 {
            let n = Node(id);
            assert_eq!(h.tag_of(n), e.tag_of(n), "tag of {n}");
            assert_eq!(h.parent(n), e.parent(n), "parent of {n}");
            assert_eq!(
                h.children_iter(n).collect::<Vec<_>>(),
                e.children_iter(n).collect::<Vec<_>>(),
                "children of {n}"
            );
            assert_eq!(
                h.attributes_iter(n).collect::<Vec<_>>(),
                e.attributes_iter(n).collect::<Vec<_>>(),
                "attrs of {n}"
            );
            assert_eq!(h.string_value(n), e.string_value(n), "value of {n}");
            assert_eq!(h.is_text_node(n), e.is_text_node(n), "is_text {n}");
        }
        let mut hs = String::new();
        let mut es = String::new();
        h.serialize_node_to(h.root(), &mut hs).unwrap();
        e.serialize_node_to(e.root(), &mut es).unwrap();
        assert_eq!(hs, es, "serialization");
    }

    #[test]
    fn named_cursors_and_lookup_work() {
        let h = temp(SAMPLE, 8);
        let items: Vec<_> = h.descendants_named_iter(h.root(), "item").collect();
        assert_eq!(items.len(), 2);
        assert_eq!(h.attribute(items[0], "id").as_deref(), Some("item0"));
        assert_eq!(h.attribute(items[0], "featured").as_deref(), Some("yes"));
        assert_eq!(h.attribute(items[1], "featured"), None);
        let people = h.descendants_named_iter(h.root(), "people").next().unwrap();
        assert_eq!(h.children_named_iter(people, "person").count(), 1);
        assert_eq!(h.descendants_named_iter(people, "name").count(), 1);
        let hit = h.lookup_id("person0").unwrap();
        assert_eq!(h.tag_of(hit), Some("person"));
        assert_eq!(h.estimate_step("item").rows, 2);
        assert_eq!(h.estimate_step("ghost").rows, 0);
    }

    #[test]
    fn attribute_agrees_with_attributes() {
        let xml = r#"<site><item id="i0" featured="yes" lang="en" rank="3">x</item><item id="i1"/></site>"#;
        let h = temp(xml, 2);
        let items: Vec<_> = h.descendants_named_iter(h.root(), "item").collect();
        let all: Vec<_> = h.attributes_iter(items[0]).collect();
        assert_eq!(all.len(), 4);
        for (name, value) in &all {
            assert_eq!(h.attribute(items[0], name).as_deref(), Some(&**value));
        }
        assert_eq!(h.attribute(items[1], "id").as_deref(), Some("i1"));
        // A name the catalog knows but the node lacks, and one the
        // catalog has never seen.
        assert_eq!(h.attribute(items[1], "rank"), None);
        assert_eq!(h.attribute(items[0], "ghost"), None);
    }

    #[test]
    fn tiny_pool_evicts_but_answers_identically() {
        let big: String = {
            let items: String = (0..200)
                .map(|i| format!("<item id=\"item{i}\"><name>thing {i}</name></item>"))
                .collect();
            format!("<site><regions>{items}</regions></site>")
        };
        let h = temp(&big, 2);
        assert!(
            h.num_pages() > 4,
            "document should span several pages ({})",
            h.num_pages()
        );
        let e = IntervalStore::load_indexed(&big).unwrap();
        let h_names: Vec<String> = h
            .descendants_named_iter(h.root(), "name")
            .map(|n| h.string_value(n))
            .collect();
        let e_names: Vec<String> = e
            .descendants_named_iter(e.root(), "name")
            .map(|n| e.string_value(n))
            .collect();
        assert_eq!(h_names, e_names);
        let stats = h.pool_stats();
        assert!(stats.evictions > 0, "a 2-frame pool must evict: {stats:?}");
        assert!(stats.hits > 0);
    }

    #[test]
    fn text_longer_than_a_page_round_trips() {
        let long: String = "chunked text αβγ ".repeat(600); // ≫ one page, multi-byte chars
        let xml = format!("<site><doc>{long}</doc></site>");
        let h = temp(&xml, 4);
        let doc = h.descendants_named_iter(h.root(), "doc").next().unwrap();
        assert_eq!(h.string_value(doc), long);
        let text_child = h.children_iter(doc).next().unwrap();
        assert_eq!(h.text(text_child).as_deref(), Some(long.as_str()));
    }

    #[test]
    fn reopen_serves_queries_without_the_xml() {
        let path =
            super::super::scratch_dir().join(format!("h-reopen-{}.pages", std::process::id()));
        let doc = xmark_xml::parse_document(SAMPLE).unwrap();
        let mut serialized = String::new();
        {
            let store = PagedStore::create_at(&path, &doc, 8).unwrap();
            store
                .serialize_node_to(store.root(), &mut serialized)
                .unwrap();
        }
        let cold = PagedStore::open(&path, 4).unwrap();
        assert_eq!(cold.node_count(), doc.node_count());
        let mut again = String::new();
        cold.serialize_node_to(cold.root(), &mut again).unwrap();
        assert_eq!(again, serialized);
        let stats = cold.pool_stats();
        assert!(stats.pages_read > 0, "cold open reads pages: {stats:?}");
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(wal_path_for(&path)).unwrap();
    }

    #[test]
    fn torn_wal_is_rejected_at_open() {
        let path = super::super::scratch_dir().join(format!("h-torn-{}.pages", std::process::id()));
        let doc = xmark_xml::parse_document(SAMPLE).unwrap();
        drop(PagedStore::create_at(&path, &doc, 8).unwrap());
        // Rewrite the WAL without its EndBulkLoad marker — a load that
        // died mid-flight.
        let wal_path = wal_path_for(&path);
        let log = LogManager::create(&wal_path).unwrap();
        log.append(&LogRecord::BeginBulkLoad { nodes: 1 });
        log.flush_all().unwrap();
        drop(log);
        let err = PagedStore::open(&path, 4).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("torn"), "{err}");
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&wal_path).unwrap();
    }

    #[test]
    fn corrupted_data_page_is_detected() {
        let path =
            super::super::scratch_dir().join(format!("h-corrupt-{}.pages", std::process::id()));
        let doc = xmark_xml::parse_document(SAMPLE).unwrap();
        drop(PagedStore::create_at(&path, &doc, 8).unwrap());
        // Flip a byte in page 1 (first node page).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[super::super::PAGE_SIZE + 64] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let cold = PagedStore::open(&path, 4).unwrap(); // header + meta still fine
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cold.children_iter(cold.root()).count();
        }));
        assert!(err.is_err(), "reading the corrupted page must fail");
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(wal_path_for(&path)).unwrap();
    }

    #[test]
    fn resident_bytes_stay_bounded_by_the_pool_not_the_file() {
        let big: String = {
            let items: String = (0..400)
                .map(|i| format!("<item id=\"i{i}\"><name>widget number {i}</name></item>"))
                .collect();
            format!("<site><regions>{items}</regions></site>")
        };
        let h = temp(&big, 4);
        let _: Vec<_> = h.descendants_named_iter(h.root(), "name").collect();
        assert!(h.disk_bytes() > 10 * super::super::PAGE_SIZE);
        // Resident: 4 frames + catalog + lookup — far below the file.
        assert!(
            h.size_bytes() < h.disk_bytes() / 2,
            "resident {} vs disk {}",
            h.size_bytes(),
            h.disk_bytes()
        );
    }
}
