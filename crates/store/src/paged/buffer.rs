//! The buffer pool: a bounded set of in-memory page frames with
//! pin/unpin discipline, LRU replacement, and write-back through the
//! WAL's log-before-data rule.
//!
//! BusTub/Sciore-shaped: callers [`BufferPool::pin`] a page and receive
//! a [`PageGuard`] whose `Drop` unpins it; a pinned frame is never a
//! replacement victim, so the bytes a cursor is reading cannot be
//! evicted underneath it (pin-count safety is pinned by tests here).
//! Replacement is LRU over unpinned frames (last-use ticks, updated on
//! every pin). Evicting a dirty frame first flushes the WAL up to the
//! page's LSN, seals the page checksum, and writes it back — the
//! flush-before-write discipline the update path will rely on.
//!
//! Every pool keeps hit/miss/eviction/read/write counters
//! ([`PoolStats`]) — the numbers the `fig4_embedded` report prints for
//! backend H's cold-vs-warm comparison.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use super::file::FileManager;
use super::page::{Page, PageId, PAGE_SIZE};
use super::wal::LogManager;

use crate::sync::{lock, read, write};

/// A snapshot of the pool's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Pins served from a resident frame.
    pub hits: u64,
    /// Pins that had to read the page from disk.
    pub misses: u64,
    /// Frames reassigned to a different page.
    pub evictions: u64,
    /// Pages read from the file.
    pub pages_read: u64,
    /// Pages written to the file.
    pub pages_written: u64,
    /// Dirty evictions (write-backs forced by replacement, a subset of
    /// `pages_written`).
    pub dirty_writebacks: u64,
}

impl PoolStats {
    /// Hit rate over all pins, in `[0, 1]`; `1.0` for an untouched pool.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter-wise sum (`self + other`) — the sharded union view
    /// aggregates its per-shard pools into one logical report.
    pub fn merged(&self, other: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            pages_read: self.pages_read + other.pages_read,
            pages_written: self.pages_written + other.pages_written,
            dirty_writebacks: self.dirty_writebacks + other.dirty_writebacks,
        }
    }

    /// Counter-wise difference (`self - earlier`) for per-phase deltas.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            pages_read: self.pages_read - earlier.pages_read,
            pages_written: self.pages_written - earlier.pages_written,
            dirty_writebacks: self.dirty_writebacks - earlier.dirty_writebacks,
        }
    }
}

struct Frame {
    page_id: PageId,
    data: Arc<RwLock<Page>>,
    pin_count: u32,
    dirty: bool,
    last_use: u64,
}

struct Inner {
    frames: Vec<Frame>,
    /// page id → frame index.
    table: HashMap<PageId, usize>,
    tick: u64,
}

/// The bounded frame pool over one page file (plus its WAL).
pub struct BufferPool {
    capacity: usize,
    inner: Mutex<Inner>,
    file: Mutex<FileManager>,
    wal: Option<Arc<LogManager>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    pages_read: AtomicU64,
    pages_written: AtomicU64,
    dirty_writebacks: AtomicU64,
}

impl BufferPool {
    /// A pool of at most `capacity` frames over `file`, logging page
    /// writes against `wal` (when present).
    pub fn new(file: FileManager, wal: Option<Arc<LogManager>>, capacity: usize) -> BufferPool {
        assert!(capacity >= 2, "a useful pool needs at least two frames");
        BufferPool {
            capacity,
            inner: Mutex::new(Inner {
                frames: Vec::new(),
                table: HashMap::new(),
                tick: 0,
            }),
            file: Mutex::new(file),
            wal,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            pages_read: AtomicU64::new(0),
            pages_written: AtomicU64::new(0),
            dirty_writebacks: AtomicU64::new(0),
        }
    }

    /// Frame budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resident bytes of the frames currently held (≤ capacity × page
    /// size) plus bookkeeping.
    pub fn resident_bytes(&self) -> usize {
        let inner = lock(&self.inner);
        inner.frames.len() * (PAGE_SIZE + std::mem::size_of::<Frame>() + 48)
    }

    /// The counters right now.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            pages_read: self.pages_read.load(Ordering::Relaxed),
            pages_written: self.pages_written.load(Ordering::Relaxed),
            dirty_writebacks: self.dirty_writebacks.load(Ordering::Relaxed),
        }
    }

    /// Pages currently allocated in the underlying file.
    pub fn num_pages(&self) -> u32 {
        lock(&self.file).num_pages()
    }

    /// The file's on-disk bytes (all allocated pages).
    pub fn disk_bytes(&self) -> usize {
        lock(&self.file).size_bytes()
    }

    /// Pin page `id`, reading it from disk on a miss (checksum
    /// verified). The returned guard unpins on drop.
    ///
    /// # Errors
    /// I/O failure, checksum mismatch, or pool exhaustion (every frame
    /// pinned).
    pub fn pin(&self, id: PageId) -> io::Result<PageGuard<'_>> {
        let mut inner = lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(&idx) = inner.table.get(&id) {
            let frame = &mut inner.frames[idx];
            frame.pin_count += 1;
            frame.last_use = tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            let data = Arc::clone(&frame.data);
            return Ok(PageGuard {
                pool: self,
                page_id: id,
                data,
                dirty: false,
            });
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let idx = self.take_frame(&mut inner)?;

        let mut page = Page::new();
        {
            let mut file = lock(&self.file);
            file.read_page(id, &mut page)?;
        }
        self.pages_read.fetch_add(1, Ordering::Relaxed);
        if !page.verify() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("checksum mismatch reading page {id}"),
            ));
        }
        self.install(&mut inner, idx, id, page, tick)
    }

    /// Allocate a brand-new page in the file and pin its (empty, dirty)
    /// frame — the bulkload path. Returns the new page id with the
    /// guard.
    pub fn pin_new(&self) -> io::Result<(PageId, PageGuard<'_>)> {
        let id = {
            let mut file = lock(&self.file);
            file.allocate()
        };
        let mut inner = lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        self.misses.fetch_add(1, Ordering::Relaxed);
        let idx = self.take_frame(&mut inner)?;
        let mut guard = self.install(&mut inner, idx, id, Page::new(), tick)?;
        guard.dirty = true;
        Ok((id, guard))
    }

    /// Pick a frame: grow the pool to capacity, else evict the LRU
    /// unpinned frame (write-back if dirty). Caller holds the inner
    /// lock.
    fn take_frame(&self, inner: &mut Inner) -> io::Result<usize> {
        if inner.frames.len() < self.capacity {
            inner.frames.push(Frame {
                page_id: u32::MAX,
                data: Arc::new(RwLock::new(Page::new())),
                pin_count: 0,
                dirty: false,
                last_use: 0,
            });
            return Ok(inner.frames.len() - 1);
        }
        let victim = inner
            .frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.pin_count == 0)
            .min_by_key(|(_, f)| f.last_use)
            .map(|(i, _)| i)
            .ok_or_else(|| {
                io::Error::other(format!(
                    "buffer pool exhausted: all {} frames pinned",
                    self.capacity
                ))
            })?;
        let (old_id, dirty) = {
            let f = &inner.frames[victim];
            (f.page_id, f.dirty)
        };
        if dirty {
            let data = Arc::clone(&inner.frames[victim].data);
            self.write_back(old_id, &data)?;
            self.dirty_writebacks.fetch_add(1, Ordering::Relaxed);
            inner.frames[victim].dirty = false;
        }
        inner.table.remove(&old_id);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        Ok(victim)
    }

    fn install<'a>(
        &'a self,
        inner: &mut Inner,
        idx: usize,
        id: PageId,
        page: Page,
        tick: u64,
    ) -> io::Result<PageGuard<'a>> {
        let frame = &mut inner.frames[idx];
        frame.page_id = id;
        frame.data = Arc::new(RwLock::new(page));
        frame.pin_count = 1;
        frame.dirty = false;
        frame.last_use = tick;
        let data = Arc::clone(&frame.data);
        inner.table.insert(id, idx);
        Ok(PageGuard {
            pool: self,
            page_id: id,
            data,
            dirty: false,
        })
    }

    /// WAL-disciplined page write: flush the log up to the page's LSN
    /// *before* the data write, then seal the checksum and write.
    fn write_back(&self, id: PageId, data: &Arc<RwLock<Page>>) -> io::Result<()> {
        let mut page = write(data);
        if let Some(wal) = &self.wal {
            wal.flush(page.lsn())?;
        }
        page.seal();
        let mut file = lock(&self.file);
        file.write_page(id, &page)?;
        self.pages_written.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn unpin(&self, id: PageId, dirtied: bool) {
        let mut inner = lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        // Runs from PageGuard::drop: a missing entry is a pool bug, but
        // panicking in Drop would abort mid-unwind, so tolerate it.
        let Some(&idx) = inner.table.get(&id) else {
            debug_assert!(false, "unpin of unresident page {id}");
            return;
        };
        let frame = &mut inner.frames[idx];
        assert!(frame.pin_count > 0, "unpin of unpinned page {id}");
        frame.pin_count -= 1;
        frame.dirty |= dirtied;
        frame.last_use = tick;
    }

    /// Write every dirty frame back (WAL first) and sync the file — the
    /// bulkload commit point.
    ///
    /// # Errors
    /// I/O failure; also if a dirty frame is still pinned.
    pub fn flush_all(&self) -> io::Result<()> {
        let inner = lock(&self.inner);
        for frame in &inner.frames {
            if !frame.dirty {
                continue;
            }
            if frame.pin_count > 0 {
                return Err(io::Error::other(format!(
                    "flush_all with page {} still pinned",
                    frame.page_id
                )));
            }
            self.write_back(frame.page_id, &frame.data)?;
        }
        drop(inner);
        // Second pass to clear dirty bits (write_back borrowed data).
        let mut inner = lock(&self.inner);
        for frame in &mut inner.frames {
            frame.dirty = false;
        }
        drop(inner);
        lock(&self.file).sync()
    }
}

/// A pinned page. Reading goes through [`PageGuard::read`]; writing
/// through [`PageGuard::write`], which marks the frame dirty at unpin.
/// Dropping the guard unpins the frame.
pub struct PageGuard<'a> {
    pool: &'a BufferPool,
    page_id: PageId,
    data: Arc<RwLock<Page>>,
    dirty: bool,
}

impl std::fmt::Debug for PageGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageGuard")
            .field("page_id", &self.page_id)
            .field("dirty", &self.dirty)
            .finish_non_exhaustive()
    }
}

impl PageGuard<'_> {
    /// The pinned page's id.
    pub fn page_id(&self) -> PageId {
        self.page_id
    }

    /// Shared read access to the page image.
    pub fn read(&self) -> RwLockReadGuard<'_, Page> {
        read(&self.data)
    }

    /// Exclusive write access; the frame is marked dirty when the guard
    /// unpins.
    pub fn write(&mut self) -> RwLockWriteGuard<'_, Page> {
        self.dirty = true;
        write(&self.data)
    }
}

impl Drop for PageGuard<'_> {
    fn drop(&mut self) {
        self.pool.unpin(self.page_id, self.dirty);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paged::wal::{LogManager, LogRecord};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        crate::paged::scratch_dir().join(format!("pool-{}-{name}.pages", std::process::id()))
    }

    /// A pool over a fresh file pre-seeded with `pages` sealed pages,
    /// each holding one record naming its page number.
    fn seeded_pool(name: &str, pages: u32, capacity: usize) -> (BufferPool, PathBuf) {
        let path = tmp(name);
        let mut fm = FileManager::create(&path).unwrap();
        for id in 0..pages {
            let _ = fm.allocate();
            let mut p = Page::new();
            p.insert(format!("page-{id}").as_bytes()).unwrap();
            p.seal();
            fm.write_page(id, &p).unwrap();
        }
        (BufferPool::new(fm, None, capacity), path)
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let (pool, path) = seeded_pool("counters", 3, 2);
        {
            let g = pool.pin(0).unwrap();
            assert_eq!(g.read().record(0), b"page-0");
        }
        let _ = pool.pin(0).unwrap();
        let s = pool.stats();
        assert_eq!((s.misses, s.hits, s.pages_read), (1, 1, 1));
        assert!((pool.stats().hit_rate() - 0.5).abs() < 1e-9);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn eviction_follows_lru_order() {
        let (pool, path) = seeded_pool("lru", 4, 2);
        let _ = pool.pin(0).unwrap(); // frames: {0}
        let _ = pool.pin(1).unwrap(); // frames: {0, 1}
        let _ = pool.pin(0).unwrap(); // 0 is now more recent than 1
        let _ = pool.pin(2).unwrap(); // evicts 1 (LRU), frames: {0, 2}
        assert_eq!(pool.stats().evictions, 1);
        let before = pool.stats().misses;
        let _ = pool.pin(0).unwrap(); // still resident — a hit
        assert_eq!(pool.stats().misses, before);
        let _ = pool.pin(1).unwrap(); // evicted earlier — a miss
        assert_eq!(pool.stats().misses, before + 1);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn pinned_frames_are_never_victims() {
        let (pool, path) = seeded_pool("pinsafe", 4, 2);
        let held = pool.pin(0).unwrap(); // keep page 0 pinned
        let _ = pool.pin(1).unwrap();
        let _ = pool.pin(2).unwrap(); // must evict 1, not pinned 0
        assert_eq!(held.read().record(0), b"page-0");
        let s = pool.stats();
        assert_eq!(s.evictions, 1);
        // Page 0 is still resident: pinning it again is a hit.
        let hits_before = pool.stats().hits;
        let _ = pool.pin(0).unwrap();
        assert_eq!(pool.stats().hits, hits_before + 1);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn exhausted_pool_reports_rather_than_evicting_pinned_pages() {
        let (pool, path) = seeded_pool("exhaust", 4, 2);
        let _g0 = pool.pin(0).unwrap();
        let _g1 = pool.pin(1).unwrap();
        let err = pool.pin(2).unwrap_err();
        assert!(err.to_string().contains("exhausted"), "{err}");
        drop(_g0);
        assert!(pool.pin(2).is_ok(), "freed frame is reusable");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn dirty_pages_write_back_on_eviction_and_survive() {
        let (pool, path) = seeded_pool("dirty", 4, 2);
        {
            let mut g = pool.pin(0).unwrap();
            g.write().insert(b"mutated").unwrap();
        }
        // Force page 0 out.
        let _ = pool.pin(1).unwrap();
        let _ = pool.pin(2).unwrap();
        let s = pool.stats();
        assert_eq!(s.dirty_writebacks, 1);
        assert_eq!(s.pages_written, 1);
        // Re-reading page 0 from disk sees the mutation, checksummed.
        let g = pool.pin(0).unwrap();
        assert_eq!(g.read().record(1), b"mutated");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn eviction_flushes_the_wal_before_the_data_write() {
        let path = tmp("waldisc");
        let wal_path = path.with_extension("wal");
        let fm = FileManager::create(&path).unwrap();
        let wal = Arc::new(LogManager::create(&wal_path).unwrap());
        let pool = BufferPool::new(fm, Some(Arc::clone(&wal)), 2);

        let (id, mut guard) = pool.pin_new().unwrap();
        let lsn = wal.append(&LogRecord::FormatPage {
            page: id,
            kind: crate::paged::page::PageKind::Node,
        });
        {
            let mut p = guard.write();
            p.set_lsn(lsn);
            p.insert(b"logged").unwrap();
        }
        drop(guard);
        assert_eq!(wal.flushed_lsn(), 0, "nothing flushed yet");

        // Evict the dirty page: the pool must flush the log first.
        let (_, _a) = pool.pin_new().unwrap();
        let (_, _b) = pool.pin_new().unwrap();
        assert!(
            wal.flushed_lsn() >= lsn,
            "log-before-data violated: flushed {} < page lsn {lsn}",
            wal.flushed_lsn()
        );
        assert_eq!(pool.stats().dirty_writebacks, 1);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&wal_path).unwrap();
    }

    #[test]
    fn flush_all_persists_every_dirty_frame() {
        let path = tmp("flushall");
        let fm = FileManager::create(&path).unwrap();
        let pool = BufferPool::new(fm, None, 4);
        let mut ids = Vec::new();
        for i in 0..3u32 {
            let (id, mut g) = pool.pin_new().unwrap();
            g.write().insert(format!("bulk-{i}").as_bytes()).unwrap();
            ids.push(id);
        }
        pool.flush_all().unwrap();
        assert_eq!(pool.stats().pages_written, 3);
        // A cold pool over the same file sees everything.
        let cold = BufferPool::new(FileManager::open(&path).unwrap(), None, 2);
        for (i, id) in ids.iter().enumerate() {
            let g = cold.pin(*id).unwrap();
            assert_eq!(g.read().record(0), format!("bulk-{i}").as_bytes());
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn checksum_corruption_is_detected_at_pin_time() {
        let (pool, path) = seeded_pool("corrupt", 2, 2);
        drop(pool);
        // Flip one payload byte of page 1 on disk.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[PAGE_SIZE + 100] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let pool = BufferPool::new(FileManager::open(&path).unwrap(), None, 2);
        assert!(pool.pin(0).is_ok(), "untouched page still reads");
        let err = pool.pin(1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
        std::fs::remove_file(path).unwrap();
    }
}
